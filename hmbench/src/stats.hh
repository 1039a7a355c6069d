/**
 * @file
 * Exact order statistics over raw per-request samples. A failed or
 * shed request is recorded as +infinity, so it sorts above every
 * served latency and misses any latency limit.
 */

#ifndef HMBENCH_STATS_HH
#define HMBENCH_STATS_HH

#include <cstddef>
#include <limits>
#include <vector>

namespace hmbench {

inline constexpr double kFailed = std::numeric_limits<double>::infinity();

/** One percentile read off the sorted samples. */
struct Percentile {
    double value = 0.0;     //!< the sample at the nearest rank
    std::size_t samples = 0;
    std::size_t beyond = 0; //!< samples strictly above the rank

    /** At least ten samples lie beyond it (the reporting rule). */
    bool supported() const { return beyond >= 10; }
};

/**
 * Nearest-rank percentile: the sample at rank ceil(q * n) of the
 * ascending order (q in (0, 1]). Empty input yields value 0 with
 * samples 0.
 */
Percentile percentile(std::vector<double> samples, double q);

/** Arithmetic mean (0 for no samples). */
double mean(const std::vector<double> &samples);

/** Geometric mean of positive values (0 for no samples). */
double geometricMean(const std::vector<double> &values);

} // namespace hmbench

#endif // HMBENCH_STATS_HH
