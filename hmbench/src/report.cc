#include "report.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

namespace hmbench {

namespace {

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = value > 0 ? std::numeric_limits<double>::max()
                          : std::numeric_limits<double>::lowest();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

} // namespace

void
Report::add(std::string name, double value, std::string unit,
            std::size_t samples, std::string note)
{
    metrics_.push_back({std::move(name), value, std::move(unit), samples,
                        std::move(note)});
}

void
Report::addPercentile(std::string name, const Percentile &p,
                      std::string unit)
{
    std::string note;
    if (p.samples > 0 && !p.supported())
        note = "only " + std::to_string(p.beyond) + " samples beyond";
    add(std::move(name), p.value, std::move(unit), p.samples,
        std::move(note));
}

void
Report::property(std::string name, std::string value)
{
    properties_.emplace_back(std::move(name), std::move(value));
}

void
Report::printTable(std::ostream &out) const
{
    for (const auto &[name, value] : properties_)
        out << "property " << std::left << std::setw(34) << name << value
            << "\n";
    out << "outcome  attempted=" << tally.attempted << " ok=" << tally.ok
        << " shed=" << tally.shed << " errors=" << tally.errors
        << " mismatches=" << tally.mismatches
        << " failed_frac=" << tally.failedFrac() << "\n";
    out << std::left << std::setw(32) << "metric" << std::right
        << std::setw(16) << "value" << "  " << std::left << std::setw(8)
        << "unit" << std::right << std::setw(9) << "samples"
        << "  note\n";
    for (const Metric &m : metrics_) {
        std::ostringstream value;
        value << std::setprecision(6) << m.value;
        out << std::left << std::setw(32) << m.name << std::right
            << std::setw(16) << value.str() << "  " << std::left
            << std::setw(8) << m.unit << std::right << std::setw(9)
            << m.samples << "  " << m.note << "\n";
    }
}

std::string
Report::json() const
{
    std::ostringstream out;
    out << "{\"correct\": " << (tally.mismatches == 0 ? "true" : "false")
        << ", \"attempted\": " << tally.attempted
        << ", \"failed\": " << tally.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
        const Metric &m = metrics_[i];
        out << (i ? ", " : "") << "\"" << m.name
            << "\": {\"value\": " << jsonNumber(m.value) << ", \"unit\": \""
            << m.unit << "\", \"samples\": " << m.samples << "}";
    }
    out << "}}";
    return out.str();
}

} // namespace hmbench
