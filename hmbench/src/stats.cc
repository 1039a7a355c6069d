#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace hmbench {

Percentile
percentile(std::vector<double> samples, double q)
{
    Percentile out;
    out.samples = samples.size();
    if (samples.empty())
        return out;
    const double n = static_cast<double>(samples.size());
    std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
    rank = std::clamp<std::size_t>(rank, 1, samples.size());
    std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                     samples.end());
    out.value = samples[rank - 1];
    out.beyond = samples.size() - rank;
    return out;
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : samples)
        sum += v;
    return sum / static_cast<double>(samples.size());
}

double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace hmbench
