/**
 * @file
 * Fingerprint-keyed memoization for the online path: one bounded,
 * thread-safe LRU template (FingerprintCache) that serves both the
 * GraphStats memo below and the workload-profile memo
 * (workloads/profile_cache.hh), so repeat deployments of a known
 * graph skip measurement and workload execution entirely.
 *
 * Every key starts with the graph's content fingerprint
 * (GraphFingerprint, graph/graph.hh), which Graph computes once at
 * construction from every byte of its offset, neighbor and weight
 * arrays; fingerprintGraph() is therefore an O(1) read, and nothing
 * on the request path ever re-hashes a graph. The key is
 * content-based, not identity-based: two Graph objects holding the
 * same CSR arrays — a copy, or the same chunk re-cut from a stream —
 * hit the same entry.
 *
 * The fingerprint must be exact, not sampled, because a key selects
 * more than approximate shape statistics: the profile memo returns
 * the executed workload's counters, which drive the modelled
 * ExecutionReport. Two graphs that differ anywhere — one arc, or only
 * their SSSP edge weights — must never share an entry, or a request
 * would be answered with another graph's modelled time. The 128-bit
 * content hash makes an accidental collision negligible; it is not
 * designed to resist deliberately crafted collisions.
 *
 * The rest of a key is whatever else the cached value depends on:
 * measurement parameters (sweeps, seed) for stats, since the same
 * graph measured at different diameter-probe budgets yields
 * different stats; the workload's full identity (name plus
 * constructor parameters) for profiles.
 */

#ifndef HETEROMAP_GRAPH_STATS_CACHE_HH
#define HETEROMAP_GRAPH_STATS_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "graph/props.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {

/** @p graph's content fingerprint: an O(1) read (see the file comment). */
inline const GraphFingerprint &
fingerprintGraph(const Graph &graph)
{
    return graph.fingerprint();
}

/**
 * Mix a fingerprint's fields into one 64-bit hash — the compact
 * graph identity stamped into flight-recorder audit records and used
 * for shard routing.
 */
uint64_t mixFingerprint(const GraphFingerprint &fingerprint);

/** splitmix64 step, for folding key fields onto mixFingerprint(). */
uint64_t mixKey(uint64_t hash, uint64_t field);

/**
 * Bounded, thread-safe LRU memo from @p Key (a graph fingerprint plus
 * the value's other inputs) to @p Value. @p KeyHash hashes a Key.
 */
template <typename Key, typename Value, typename KeyHash>
class FingerprintCache
{
  public:
    /** Default entry bound for the global caches. */
    static constexpr std::size_t kDefaultCapacity = 64;

    /**
     * @param capacity       Entry bound (LRU evicts beyond it).
     * @param metrics_prefix When non-null, the hit/miss/eviction
     *        counters are the shared telemetry-registry counters
     *        "<prefix>.hits" / ".misses" / ".evictions", so a
     *        /metrics-style snapshot and the accessors below read
     *        the *same* atomics and always agree. When null (the
     *        default, used by private test caches) the counters are
     *        cache-owned and unregistered.
     */
    explicit FingerprintCache(std::size_t capacity = kDefaultCapacity,
                              const char *metrics_prefix = nullptr)
        : capacity_(capacity),
          hits_(counterFor(metrics_prefix, ".hits", ownedHits_)),
          misses_(counterFor(metrics_prefix, ".misses", ownedMisses_)),
          evictions_(counterFor(metrics_prefix, ".evictions",
                                ownedEvictions_))
    {
        HM_ASSERT(capacity > 0, "memo cache needs a positive capacity");
    }

    /**
     * Return the value cached under @p key, or run @p compute() and
     * cache its result. Safe to call concurrently; a miss computes
     * outside the lock (two racing misses on one key both compute —
     * the results are identical by the determinism contract, and the
     * first insert wins, so every caller sees the same value).
     */
    template <typename Compute>
    Value
    getOrCompute(const Key &key, Compute &&compute)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto found = index_.find(key);
            if (found != index_.end()) {
                hits_->add(1);
                lru_.splice(lru_.begin(), lru_, found->second);
                return found->second->second;
            }
            misses_->add(1);
        }

        Value value = compute();

        std::lock_guard<std::mutex> lock(mutex_);
        auto found = index_.find(key);
        if (found != index_.end()) {
            // A racing miss inserted first; keep its entry.
            lru_.splice(lru_.begin(), lru_, found->second);
            return found->second->second;
        }
        lru_.emplace_front(key, value);
        index_.emplace(key, lru_.begin());
        while (lru_.size() > capacity_) {
            index_.erase(lru_.back().first);
            lru_.pop_back();
            evictions_->add(1);
        }
        return value;
    }

    /** Probe without computing (does not touch LRU order). */
    std::optional<Value>
    peekKey(const Key &key) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto found = index_.find(key);
        if (found == index_.end())
            return std::nullopt;
        return found->second->second;
    }

    /** Drop every entry (counters survive). */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        index_.clear();
        lru_.clear();
    }

    std::size_t capacity() const { return capacity_; }

    /** @name Counters (monotonic over the cache lifetime). @{ */
    uint64_t hits() const { return hits_->value(); }
    uint64_t misses() const { return misses_->value(); }
    uint64_t evictions() const { return evictions_->value(); }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return lru_.size();
    }
    /** @} */

  private:
    using LruList = std::list<std::pair<Key, Value>>;

    const std::size_t capacity_;
    mutable std::mutex mutex_;
    LruList lru_; //!< front = most recent
    std::unordered_map<Key, typename LruList::iterator, KeyHash> index_;

    /** Backing store when no metrics prefix registers the counters. */
    telemetry::Counter ownedHits_, ownedMisses_, ownedEvictions_;
    telemetry::Counter *hits_;
    telemetry::Counter *misses_;
    telemetry::Counter *evictions_;

    static telemetry::Counter *
    counterFor(const char *prefix, const char *suffix,
               telemetry::Counter &owned)
    {
        return prefix != nullptr
                   ? &telemetry::registry().counter(std::string(prefix) +
                                                    suffix)
                   : &owned;
    }
};

/** GraphStatsCache key: structure plus measurement parameters. */
struct StatsKey {
    GraphFingerprint fingerprint;
    unsigned sweeps = 0;
    uint64_t seed = 0;

    bool operator==(const StatsKey &) const = default;
};

struct StatsKeyHash {
    std::size_t operator()(const StatsKey &key) const;
};

/** Memoized measureGraph results. */
class GraphStatsCache
    : public FingerprintCache<StatsKey, GraphStats, StatsKeyHash>
{
  public:
    using FingerprintCache::FingerprintCache;

    /**
     * Memoized measureGraph: return the cached stats of @p graph
     * under @p options on a hit, otherwise measure and cache them.
     */
    GraphStats measure(const Graph &graph,
                       const MeasureOptions &options = {});

    /** Cache probe without measuring (does not touch LRU order). */
    std::optional<GraphStats> peek(const Graph &graph,
                                   const MeasureOptions &options = {}) const;

  private:
    static StatsKey makeKey(const Graph &graph,
                            const MeasureOptions &options);
};

/**
 * The process-wide cache every online path shares: HeteroMap's
 * predict entry point, the training sweep's corpus measurement, the
 * dataset registry, and the streaming-chunk example.
 */
GraphStatsCache &globalStatsCache();

} // namespace heteromap

#endif // HETEROMAP_GRAPH_STATS_CACHE_HH
