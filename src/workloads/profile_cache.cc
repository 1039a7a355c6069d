/**
 * @file
 * Workload-profile memo cache implementation.
 */

#include "workloads/profile_cache.hh"

#include <functional>

namespace heteromap {

std::size_t
ProfileKeyHash::operator()(const ProfileKey &key) const
{
    return static_cast<std::size_t>(
        mixKey(mixFingerprint(key.fingerprint),
               std::hash<std::string>{}(key.workload)));
}

WorkloadProfile
ProfileCache::profile(const Workload &workload, const Graph &graph)
{
    return getOrCompute(
        ProfileKey{fingerprintGraph(graph), workload.identity()},
        [&] { return workload.runProfiled(graph).second; });
}

ProfileCache &
globalProfileCache()
{
    static ProfileCache cache(ProfileCache::kDefaultCapacity,
                              "profile_cache");
    return cache;
}

} // namespace heteromap
