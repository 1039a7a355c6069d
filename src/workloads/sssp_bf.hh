/**
 * @file
 * SSSP-Bellman-Ford (SSSP-BF): iterative all-vertex edge relaxation,
 * the paper's canonical data-parallel, GPU-friendly benchmark. The B
 * descriptor follows Fig. 6 exactly (B1 = 1, B7 = 0.8, B9 = B10 = 0.5,
 * B11 = 0.2, B12 = B13 = 0.2). Distances are integral (no FP, B6 = 0).
 */

#ifndef HETEROMAP_WORKLOADS_SSSP_BF_HH
#define HETEROMAP_WORKLOADS_SSSP_BF_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Bellman-Ford single-source shortest paths. */
class SsspBellmanFord : public Workload
{
  public:
    /** @param source Source vertex (clamped to the graph). */
    explicit SsspBellmanFord(VertexId source = kDefaultSource)
        : source_(source)
    {
    }

    std::string name() const override { return "SSSP-BF"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), source_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = integral shortest distance (kUnreachable if
     *  disconnected); scalar = number of reachable vertices. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    VertexId source_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_SSSP_BF_HH
