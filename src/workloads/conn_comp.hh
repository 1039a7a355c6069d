/**
 * @file
 * Connected components (Shiloach-Vishkin style): alternating hook and
 * pointer-jumping compress phases. The compress phase's pointer
 * chasing is the paper's example of complex indirect addressing (B8)
 * that favors multicores.
 */

#ifndef HETEROMAP_WORKLOADS_CONN_COMP_HH
#define HETEROMAP_WORKLOADS_CONN_COMP_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Shiloach-Vishkin connected components. */
class ConnectedComponents : public Workload
{
  public:
    ConnectedComponents() = default;

    std::string name() const override { return "CONN"; }
    std::string identity() const override { return name(); }
    BVariables bVariables() const override;

    /** vertexValues[v] = component representative id;
     *  scalar = number of components. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_CONN_COMP_HH
