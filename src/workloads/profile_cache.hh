/**
 * @file
 * Memoized workload profiles: the online path's answer to "which
 * (workload, graph) pairs have already been executed?". A profile is
 * what Workload::runProfiled() measures — a full BFS/PageRank/SSSP
 * run — and it is a pure function of the workload's identity and the
 * graph's content, so a repeat request can reuse it instead of
 * re-running the algorithm.
 *
 * The cache is the same FingerprintCache template as the GraphStats
 * memo (graph/stats_cache.hh), keyed on the exact graph content
 * fingerprint plus Workload::identity(). Entries hold the
 * WorkloadProfile only, never the WorkloadOutput: the per-vertex
 * output is not needed to score a deployment and would cost
 * 8 bytes per vertex per entry.
 *
 * makeCase() (core/oracle.hh) stays uncached: it is the offline and
 * reference constructor, and always executes the workload.
 */

#ifndef HETEROMAP_WORKLOADS_PROFILE_CACHE_HH
#define HETEROMAP_WORKLOADS_PROFILE_CACHE_HH

#include <string>

#include "exec/profile.hh"
#include "graph/stats_cache.hh"
#include "workloads/workload.hh"

namespace heteromap {

/** ProfileCache key: graph content plus the workload's identity. */
struct ProfileKey {
    GraphFingerprint fingerprint;
    std::string workload; //!< Workload::identity()

    bool operator==(const ProfileKey &) const = default;
};

struct ProfileKeyHash {
    std::size_t operator()(const ProfileKey &key) const;
};

/** Memoized runProfiled(...).second results. */
class ProfileCache
    : public FingerprintCache<ProfileKey, WorkloadProfile, ProfileKeyHash>
{
  public:
    using FingerprintCache::FingerprintCache;

    /**
     * The profile of @p workload on @p graph: cached on a hit,
     * otherwise executed with runProfiled() and cached.
     */
    WorkloadProfile profile(const Workload &workload, const Graph &graph);
};

/**
 * The process-wide profile cache HeteroMap::predict() uses, next to
 * globalStatsCache(); its counters are the "profile_cache.*"
 * registry metrics.
 */
ProfileCache &globalProfileCache();

} // namespace heteromap

#endif // HETEROMAP_WORKLOADS_PROFILE_CACHE_HH
