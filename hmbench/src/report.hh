/**
 * @file
 * The run's result: every metric by name with its unit and sample
 * count, printed as a table for people and as one JSON line (the
 * last line of standard output) for tools.
 */

#ifndef HMBENCH_REPORT_HH
#define HMBENCH_REPORT_HH

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

#include "check.hh"
#include "stats.hh"

namespace hmbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::size_t samples = 0;
    std::string note;
};

class Report
{
  public:
    void add(std::string name, double value, std::string unit,
             std::size_t samples, std::string note = "");

    /**
     * Add a percentile; one with fewer than ten samples beyond it is
     * still reported (the exact order statistic) but flagged in the
     * note, so a reader knows the sample does not support it.
     */
    void addPercentile(std::string name, const Percentile &p,
                       std::string unit);

    /** A workload property, printed with the run (not a metric). */
    void property(std::string name, std::string value);

    Tally tally;

    /** Human-readable table of properties and metrics. */
    void printTable(std::ostream &out) const;

    /**
     * One JSON object: correct, attempted, failed and every metric as
     * {"value", "unit", "samples"}. +infinity (a failure at or below
     * the percentile) is written as the largest finite double.
     */
    std::string json() const;

  private:
    std::vector<Metric> metrics_;
    std::vector<std::pair<std::string, std::string>> properties_;
};

} // namespace hmbench

#endif // HMBENCH_REPORT_HH
