/**
 * @file
 * PageRank-DP (data-parallel push variant): every vertex scatters its
 * rank contribution to neighbors with atomic accumulation — more
 * parallel slack but far more contention than the pull variant.
 */

#ifndef HETEROMAP_WORKLOADS_PAGERANK_DP_HH
#define HETEROMAP_WORKLOADS_PAGERANK_DP_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Push-based PageRank with atomic scatter. */
class PageRankDp : public Workload
{
  public:
    explicit PageRankDp(double damping = 0.85, unsigned iterations = 20,
                        double tolerance = 1e-7)
        : damping_(damping), maxIterations_(iterations),
          tolerance_(tolerance)
    {
    }

    std::string name() const override { return "PR-DP"; }
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

#endif // HETEROMAP_WORKLOADS_PAGERANK_DP_HH
