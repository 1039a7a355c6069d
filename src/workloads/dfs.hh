/**
 * @file
 * Depth-first search: stack-ordered traversal processed in push-pop
 * batches. Fig. 5 classifies DFS as pure push-pop (B4) with complex
 * indirect accesses (B8) from the queueing structures.
 */

#ifndef HETEROMAP_WORKLOADS_DFS_HH
#define HETEROMAP_WORKLOADS_DFS_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Parallel pseudo-DFS: LIFO batches explored breadth-parallel. */
class Dfs : public Workload
{
  public:
    explicit Dfs(VertexId source = kDefaultSource) : source_(source) {}

    std::string name() const override { return "DFS"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), source_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = discovery round (kUnreachable if not
     *  reached); scalar = number of reachable vertices. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    VertexId source_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_DFS_HH
