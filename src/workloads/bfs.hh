/**
 * @file
 * Breadth-first search: frontier-based level traversal. Fig. 5
 * classifies BFS as pure pareto-division (B3) — the frontier chunks
 * mapped to threads grow and shrink dynamically with the wavefront.
 */

#ifndef HETEROMAP_WORKLOADS_BFS_HH
#define HETEROMAP_WORKLOADS_BFS_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Frontier BFS from a single source. */
class Bfs : public Workload
{
  public:
    explicit Bfs(VertexId source = kDefaultSource) : source_(source) {}

    std::string name() const override { return "BFS"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), source_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = hop distance (kUnreachable if disconnected);
     *  scalar = number of reachable vertices. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    VertexId source_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_BFS_HH
