/**
 * @file
 * SSSP Delta-stepping (SSSP-Delta), after the GAP benchmark suite:
 * bucketed shortest paths with push-pop bucket processing and a
 * reduction to select the next bucket — the paper's canonical
 * multicore-friendly SSSP variant (Fig. 5: B1, B4, B5 set).
 */

#ifndef HETEROMAP_WORKLOADS_SSSP_DELTA_HH
#define HETEROMAP_WORKLOADS_SSSP_DELTA_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Delta-stepping single-source shortest paths. */
class SsspDelta : public Workload
{
  public:
    /**
     * @param source Source vertex (clamped to the graph).
     * @param delta  Bucket width; 0 picks ~the average edge weight.
     */
    explicit SsspDelta(VertexId source = kDefaultSource,
                       int64_t delta = 0)
        : source_(source), delta_(delta)
    {
    }

    std::string name() const override { return "SSSP-Delta"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), source_, delta_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = integral shortest distance (kUnreachable if
     *  disconnected); scalar = number of reachable vertices. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    VertexId source_;
    int64_t delta_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_SSSP_DELTA_HH
