/**
 * @file
 * Community detection via weighted label propagation: each vertex
 * adopts the label with the greatest incident edge weight until labels
 * stabilize. FP scoring plus read-write shared label data make this a
 * multicore-biased benchmark in the paper's classification.
 */

#ifndef HETEROMAP_WORKLOADS_COMM_DETECT_HH
#define HETEROMAP_WORKLOADS_COMM_DETECT_HH

#include "workloads/workload.hh"

namespace heteromap {

/** Weighted label-propagation community detection. */
class CommunityDetection : public Workload
{
  public:
    /** @param max_rounds Propagation rounds before cutoff. */
    explicit CommunityDetection(unsigned max_rounds = 10)
        : maxRounds_(max_rounds)
    {
    }

    std::string name() const override { return "COMM"; }
    std::string
    identity() const override
    {
        return parameterizedIdentity(name(), maxRounds_);
    }
    BVariables bVariables() const override;

    /** vertexValues[v] = community label; scalar = distinct labels. */
    WorkloadOutput run(const Graph &graph, Executor &exec) const override;

  private:
    unsigned maxRounds_;
};

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_COMM_DETECT_HH
