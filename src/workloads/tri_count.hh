/**
 * @file
 * Triangle counting: per-vertex sorted-adjacency intersections with a
 * global reduction. The paper's example of a poorly parallel workload
 * with complex access patterns that multicore caches handle best.
 */

#ifndef HETEROMAP_WORKLOADS_TRI_COUNT_HH
#define HETEROMAP_WORKLOADS_TRI_COUNT_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Exact triangle counting over the undirected graph. */
class TriangleCount : public Workload
{
  public:
    TriangleCount() = default;

    std::string name() const override { return "TRI"; }
    std::string identity() const override { return name(); }
    BVariables bVariables() const override;

    /** vertexValues[v] = triangles incident to v; scalar = total
     *  triangle count (each triangle counted once). */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_TRI_COUNT_HH
