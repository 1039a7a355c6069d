/**
 * @file
 * Betweenness centrality (Brandes' algorithm) — an extension workload
 * beyond the paper's nine benchmarks. Exercises a pattern mix the
 * paper's set lacks: alternating forward BFS waves and backward
 * dependency-accumulation waves with FP accumulators, per sampled
 * source. Available through makeWorkload("BC").
 */

#ifndef HETEROMAP_WORKLOADS_BETWEENNESS_HH
#define HETEROMAP_WORKLOADS_BETWEENNESS_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Brandes betweenness centrality (unweighted). */
class BetweennessCentrality : public Workload
{
  public:
    /**
     * @param samples Source vertices to run from; 0 = every vertex
     *                (exact centrality, small graphs only).
     */
    explicit BetweennessCentrality(unsigned samples = 16)
        : samples_(samples)
    {
    }

    std::string name() const override { return "BC"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), samples_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = (sampled) betweenness score;
     *  scalar = sum of all scores. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    unsigned samples_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_BETWEENNESS_HH
