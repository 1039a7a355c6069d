/**
 * @file
 * The three benchmark workloads:
 *
 *  - net-zipf-hot: open loop over loopback TCP to an in-process
 *    NetServer (2 shards x 2 workers) serving a hot 9-graph catalogue;
 *  - inproc-cold: closed loop of 2 callers on a PredictionService,
 *    every request carrying a never-seen graph;
 *  - paper-matrix: one caller running HeteroMap::predict over the
 *    Table I dataset proxies x the Fig. 5 benchmarks.
 *
 * Each run sets up, measures, then checks every OK answer against
 * the library reference. With tracing on it also measures the serving
 * layers and replays each request through the public functions of
 * each module, timing the calls from here.
 */

#ifndef HMBENCH_WORKLOADS_HH
#define HMBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "report.hh"

namespace hmbench {

struct RunOptions {
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool setupOnly = false;   //!< stop after set-up (for setup_s repeats)
    std::string traceOut;     //!< Chrome-trace path (traced runs)
    int64_t processStartNs = 0;
};

/** Names of the benchmark workloads. */
const std::vector<std::string> &benchWorkloads();

/**
 * Run one workload into @p report. setup_s is always reported; the
 * rest only when !setupOnly. @return false for an unknown workload.
 */
bool runWorkload(const RunOptions &options, Report &report);

} // namespace hmbench

#endif // HMBENCH_WORKLOADS_HH
