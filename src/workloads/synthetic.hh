/**
 * @file
 * Synthetic benchmark generator (Sec. V, Fig. 9). A SyntheticWorkload
 * inverts a B-variable vector into a runnable phase mix: B1-B5 choose
 * the outer-loop phase kinds and their code share, B6-B13 choose the
 * per-edge instruction/access mix. Together with the synthetic graph
 * generators (Table III) this produces the offline training corpus.
 */

#ifndef HETEROMAP_WORKLOADS_SYNTHETIC_HH
#define HETEROMAP_WORKLOADS_SYNTHETIC_HH

#include "util/rng.hh"
#include "workloads/workload.hh"

namespace heteromap {

/** A benchmark whose behaviour is dictated by a B vector. */
class SyntheticWorkload : public Workload
{
  public:
    /**
     * @param b          Target benchmark characteristics. Phase-mix
     *                   values (B1-B5) are renormalized to sum to 1.
     * @param seed       Determinizes the generated access pattern.
     * @param iterations Outer iterations to run (>= 1).
     * @param frontier_rounds Number of narrow invocations the
     *                   frontier-style phase kinds (pareto, dynamic
     *                   pareto, push-pop) are split into per
     *                   iteration — models the dependence-chain
     *                   structure of high-diameter inputs.
     */
    SyntheticWorkload(BVariables b, uint64_t seed,
                      unsigned iterations = 3,
                      unsigned frontier_rounds = 1);

    std::string name() const override;
    std::string identity() const override;
    BVariables bVariables() const override { return b_; }

    /** vertexValues[v] = final accumulator; scalar = checksum. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    BVariables b_;
    uint64_t seed_;
    unsigned iterations_;
    unsigned frontierRounds_;
};

/**
 * Enumerate a diverse family of synthetic B vectors: phase-mix corner
 * cases and Latin-hypercube-style samples of B6-B13. @p count vectors
 * are produced deterministically from @p seed.
 */
std::vector<BVariables> sampleSyntheticBVectors(std::size_t count,
                                                uint64_t seed);

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_SYNTHETIC_HH
