/**
 * @file
 * PageRank (pull variant): per-vertex rank gathering with a
 * convergence reduction. FP-heavy (B6), the paper's canonical
 * multicore-biased benchmark.
 */

#ifndef HETEROMAP_WORKLOADS_PAGERANK_HH
#define HETEROMAP_WORKLOADS_PAGERANK_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Pull-based PageRank. */
class PageRank : public Workload
{
  public:
    /**
     * @param damping    Damping factor (0.85 default).
     * @param iterations Maximum iterations.
     * @param tolerance  L1 convergence threshold.
     */
    explicit PageRank(double damping = 0.85, unsigned iterations = 20,
                      double tolerance = 1e-7)
        : damping_(damping), maxIterations_(iterations),
          tolerance_(tolerance)
    {
    }

    std::string name() const override { return "PR"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), damping_, maxIterations_,
                                     tolerance_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = final rank; scalar = iterations executed. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    double damping_;
    unsigned maxIterations_;
    double tolerance_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_PAGERANK_HH
