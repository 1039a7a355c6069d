/**
 * @file
 * Workload interface. A workload is one of the paper's graph
 * benchmarks (Sec. VI-B): it carries a static B-variable descriptor
 * (Fig. 5/6, "set by the programmer") and an instrumented
 * implementation that executes for real under an Executor, producing
 * both a verifiable output and a WorkloadProfile for the performance
 * models.
 */

#ifndef HETEROMAP_WORKLOADS_WORKLOAD_HH
#define HETEROMAP_WORKLOADS_WORKLOAD_HH

#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "exec/executor.hh"
#include "features/bvars.hh"
#include "graph/graph.hh"

namespace heteromap {

/**
 * Result of a workload execution. vertexValues holds the per-vertex
 * output (distances, ranks, labels, ...; meaning documented per
 * workload); scalar holds aggregate outputs (e.g. triangle count).
 */
struct WorkloadOutput {
    std::vector<double> vertexValues;
    double scalar = 0.0;
};

/** Abstract graph benchmark. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Paper benchmark name, e.g. "SSSP-BF". */
    virtual std::string name() const = 0;

    /**
     * Full identity: name() plus every constructor parameter that can
     * change the output or the profile. Two workloads with equal
     * identities produce identical profiles on any graph, so this,
     * not name(), is what request batching and the profile memo
     * (workloads/profile_cache.hh) key on.
     */
    virtual std::string identity() const = 0;

    /** Static Fig. 5/6 benchmark descriptor. */
    virtual BVariables bVariables() const = 0;

    /**
     * Execute on @p graph under @p exec, recording phase profiles.
     * @return the algorithm's output for correctness validation.
     */
    virtual WorkloadOutput run(const Graph &graph,
                               Executor &exec) const = 0;

    /**
     * Convenience: run with a fresh executor and return both the
     * output and the profile.
     */
    std::pair<WorkloadOutput, WorkloadProfile>
    runProfiled(const Graph &graph) const;
};

/**
 * "<name>(<p0>,<p1>,...)" for Workload::identity(). Floating-point
 * parameters print as hexfloat, so the text is exact and distinct
 * parameter values never share an identity.
 */
template <typename... Params>
std::string
parameterizedIdentity(std::string_view name, const Params &...params)
{
    std::ostringstream os;
    os << name << '(' << std::hexfloat;
    const char *sep = "";
    ((os << sep << params, sep = ","), ...);
    os << ')';
    return os.str();
}

/** Source vertex convention shared by the traversal workloads. */
inline constexpr VertexId kDefaultSource = 0;

/** Infinite-distance marker in WorkloadOutput::vertexValues. */
inline constexpr double kUnreachable = 1e30;

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_WORKLOAD_HH
