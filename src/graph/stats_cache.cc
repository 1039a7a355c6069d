/**
 * @file
 * GraphStats memo cache implementation.
 */

#include "graph/stats_cache.hh"

namespace heteromap {

uint64_t
mixKey(uint64_t hash, uint64_t field)
{
    uint64_t x = hash ^ field;
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

uint64_t
mixFingerprint(const GraphFingerprint &fingerprint)
{
    uint64_t h = mixKey(0, fingerprint.numVertices);
    h = mixKey(h, fingerprint.numEdges);
    h = mixKey(h, fingerprint.footprintBytes);
    h = mixKey(h, fingerprint.contentLo);
    return mixKey(h, fingerprint.contentHi);
}

std::size_t
StatsKeyHash::operator()(const StatsKey &key) const
{
    uint64_t h = mixFingerprint(key.fingerprint);
    h = mixKey(h, key.sweeps);
    return static_cast<std::size_t>(mixKey(h, key.seed));
}

StatsKey
GraphStatsCache::makeKey(const Graph &graph,
                         const MeasureOptions &options)
{
    // statsBlock is deliberately NOT part of the key: every blocking
    // factor produces identical stats.
    return {fingerprintGraph(graph), options.sweeps, options.seed};
}

GraphStats
GraphStatsCache::measure(const Graph &graph,
                         const MeasureOptions &options)
{
    return getOrCompute(makeKey(graph, options),
                        [&] { return measureGraph(graph, options); });
}

std::optional<GraphStats>
GraphStatsCache::peek(const Graph &graph,
                      const MeasureOptions &options) const
{
    return peekKey(makeKey(graph, options));
}

GraphStatsCache &
globalStatsCache()
{
    // The global cache is the one whose counters back the
    // "stats_cache.*" registry metrics; private caches stay
    // unregistered so tests don't pollute the process snapshot.
    static GraphStatsCache cache(GraphStatsCache::kDefaultCapacity,
                                 "stats_cache");
    return cache;
}

} // namespace heteromap
