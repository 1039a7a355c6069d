/**
 * @file
 * PredictionService: the in-process, multi-tenant prediction server.
 *
 * Clients submit ServeRequests and get a future<ServeResponse>; a
 * worker group on util/thread_pool drains a bounded RequestQueue with
 * admission control (serve/request_queue.hh). Workers micro-batch:
 * after popping a request they linger up to maxBatchDelayMs
 * collecting queued requests that share its graph fingerprint, so one
 * GraphStats measurement — and, per distinct (workload identity,
 * input) in the batch, one featurize, one profile lookup and one
 * inference — amortize across the whole batch. Responses are stamped
 * with the epoch of the ModelRegistry snapshot that served them, so
 * hot-swaps (background retrain, disk load) are observable per
 * response and can never tear a model out from under an in-flight
 * batch.
 *
 * Supervised lane: requests with supervised = true deploy through a
 * persistent core/supervisor Supervisor, whose mispredict detection
 * flags responses and walks the degradation ladder for them; the
 * lane's Supervisor is rebuilt against the new model when a hot-swap
 * lands.
 *
 * Graph measurements and workload profiles go through per-service
 * memo shards (a GraphStatsCache and a ProfileCache each), every
 * shard constructed with the same metrics prefixes so the shared
 * "serve.stats_cache.*" / "serve.profile_cache.*" registry counters
 * aggregate across shards — private caches without a prefix would
 * silently drop that accounting (see graph/stats_cache.hh). A repeat
 * (workload, graph) pair therefore neither re-measures the graph nor
 * re-runs the workload.
 *
 * Fault tolerance: workers are supervised by a watchdog thread. An
 * exception during measure/featurize/infer fails only that batch's
 * promises — each with a structured ServeError — and the worker
 * keeps draining; a crashed (exited) worker is detected by its
 * stale heartbeat slot and restarted on the pool; a stalled worker
 * (busy with no heartbeat past watchdog.stuckAfterMs) is counted
 * and drives the degradation ladder. Under sustained faults the
 * service degrades stepwise — shrink the batching window, bypass
 * the supervised lane, serve from a built-in DecisionTreeHeuristic
 * fallback that rides the warm GraphStatsCache — and walks back to
 * normal after a quiet period. Chaos faults (arch/fault_model.hh
 * ChaosPolicy) can be injected at four serving points to rehearse
 * all of this deterministically; with no policy armed every hook is
 * a single relaxed atomic load.
 *
 * Telemetry (util/telemetry.hh): counters serve.submitted /
 * .admitted / .completed / .shed (+ .shed.queue_full, .shed.deadline)
 * / .batches / .batched_requests / .supervised /
 * .supervised_degraded / .supervised_bypassed / .errors /
 * .fallback_served / .degradation_steps / .worker.batch_failures /
 * .worker.stalls / .worker.restarts; gauges serve.queue_depth,
 * serve.degradation_level; histograms serve.queue_wait_ms,
 * serve.batch.measure_ms, serve.batch.featurize_ms,
 * serve.batch.profile_ms, serve.batch.infer_ms,
 * serve.request.service_ms.
 */

#ifndef HETEROMAP_SERVE_PREDICTION_SERVICE_HH
#define HETEROMAP_SERVE_PREDICTION_SERVICE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/fault_model.hh"
#include "core/supervisor.hh"
#include "serve/drift_monitor.hh"
#include "serve/model_registry.hh"
#include "serve/request_queue.hh"
#include "serve/slo_tracker.hh"
#include "util/thread_pool.hh"
#include "workloads/profile_cache.hh"

namespace heteromap {
namespace serve {

/**
 * Degradation ladder the watchdog walks under sustained faults.
 * Each fault event (batch failure, stall, restart) escalates one
 * rung; a quiet period of watchdog.recoverAfterMs de-escalates one.
 */
enum class DegradationLevel {
    Normal = 0,           //!< full batching, all lanes
    ShrinkBatch = 1,      //!< batching window collapsed to zero linger
    BypassSupervised = 2, //!< supervised lane bypassed (plus above)
    FallbackHeuristic = 3, //!< built-in heuristic serves (plus above)
};

/** @return e.g. "bypass-supervised". */
const char *degradationLevelName(DegradationLevel level);

/** Worker-watchdog tunables. */
struct WatchdogOptions {
    bool enabled = true;

    /** Scan cadence, in milliseconds. */
    double pollMs = 5.0;

    /**
     * A worker that is busy on a batch with no heartbeat for this
     * long is counted stalled (generous: CI machines are noisy).
     */
    double stuckAfterMs = 250.0;

    /** Fault-free time before the ladder steps down one rung. */
    double recoverAfterMs = 100.0;
};

/** Service tunables. Defaults suit tests and small deployments. */
struct ServiceOptions {
    /** Worker threads draining the queue (>= 1). */
    std::size_t workers = 2;

    /** Bound on queued requests (admission control beyond it). */
    std::size_t queueCapacity = 256;

    AdmissionPolicy admission = AdmissionPolicy::Block;

    /** Max requests coalesced into one batch; 1 disables batching. */
    std::size_t maxBatch = 8;

    /**
     * How long a worker lingers for coalescible arrivals after the
     * first request of a batch, in milliseconds. 0 batches only
     * what is already queued.
     */
    double maxBatchDelayMs = 0.2;

    /**
     * Memo shards (>= 1), keyed by graph fingerprint; each holds a
     * GraphStatsCache and a ProfileCache.
     */
    std::size_t statsShards = 2;

    /** Entry bound per shard, for each of its two caches. */
    std::size_t statsCapacityPerShard = GraphStatsCache::kDefaultCapacity;

    /**
     * Telemetry prefix for this service's stats-cache counters. The
     * default makes every service in the process mirror into the
     * same "serve.stats_cache.*" registry counters — fine for one
     * service, but N co-resident services (the net tier's shards)
     * then all read the identical process aggregate, and summing
     * them would N-times-count it. A multi-shard host gives each
     * service a distinct prefix ("serve.shard3.stats_cache") so
     * per-shard hit rates are real; aggregateStatusz() uses the
     * prefix to know which numbers are safe to sum. Empty = private
     * detached counters (no registry mirror). The profile caches
     * register under profileMetricsPrefix() of this prefix.
     */
    std::string statsMetricsPrefix = "serve.stats_cache";

    /** Supervised-lane tunables and fault scenario. */
    SupervisorOptions supervisor{};
    FaultInjector faults{};

    /**
     * Chaos policy fired at the serving fault points (AdmissionDelay
     * in submit, WorkerStall/WorkerCrashBatch in the worker loop,
     * SupervisorHang in the supervised lane). Shared so tests and
     * the registry can arm the same schedule. Null = no chaos.
     */
    std::shared_ptr<ChaosPolicy> chaos;

    WatchdogOptions watchdog{};

    /**
     * When non-empty, the service writes automatic flight-recorder
     * postmortems ("<prefix>postmortem-<seq>.jsonl",
     * util/flight_recorder.hh) whenever the degradation ladder
     * escalates to BypassSupervised or beyond and whenever a chaos
     * crash kills a batch — provided the process flight recorder is
     * armed. Empty (the default) disables automatic dumps.
     */
    std::string postmortemPrefix;

    /**
     * Drift-monitor tunables (serve/drift_monitor.hh). The monitor
     * arms itself from the active model's feature baseline and stays
     * inert for baseline-less models.
     */
    DriftOptions drift{};

    /** SLO objectives and harvest cadence (serve/slo_tracker.hh). */
    SloOptions slo{};
};

/**
 * Point-in-time service snapshot for statusz rendering — everything
 * an operator (or tools/hm_statusz) wants on one page.
 */
struct ServiceStatus {
    uint64_t modelEpoch = 0;
    std::string predictorName;
    bool hasBaseline = false;

    int degradationLevel = 0;

    std::size_t queueDepth = 0;
    std::size_t queueCapacity = 0;
    std::size_t workers = 0;

    uint64_t submitted = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;

    uint64_t batchFailures = 0;
    uint64_t workerStalls = 0;
    uint64_t workerRestarts = 0;
    uint64_t fallbackServed = 0;

    uint64_t statsHits = 0;
    uint64_t statsMisses = 0;
    uint64_t profileHits = 0;
    uint64_t profileMisses = 0;

    /**
     * The service's statsMetricsPrefix. Shard statuses that share a
     * non-empty prefix are reading the *same* registry counters (for
     * both caches, since the profile prefix derives from it), so a
     * fleet roll-up must count that group once, not per shard (see
     * aggregateStatusz).
     */
    std::string statsPrefix;

    bool flightArmed = false;
    uint64_t flightAppended = 0;
    uint64_t flightDropped = 0;
    uint64_t postmortems = 0;

    DriftScores drift;
    SloStatus slo;
};

/**
 * The profile-cache metrics prefix paired with a stats-cache prefix:
 * a trailing "stats_cache" becomes "profile_cache"
 * ("serve.shard3.stats_cache" -> "serve.shard3.profile_cache"), any
 * other non-empty prefix gains ".profile_cache", and empty (detached
 * counters) stays empty.
 */
std::string profileMetricsPrefix(const std::string &stats_prefix);

/** Human-readable multi-line rendering of @p status. */
std::string statuszText(const ServiceStatus &status);

/**
 * One build-info-stamped JSON object ({"type":"statusz",...}) —
 * the document tools/hm_statusz validates and renders.
 */
std::string statuszJson(const ServiceStatus &status);

/**
 * Roll @p shards up into one fleet-total ServiceStatus without
 * double-counting:
 *
 *  - request/fault counters, queue depth/capacity, and workers sum
 *    across shards (each shard owns those);
 *  - stats-cache counters sum once per distinct statsPrefix — N
 *    shards sharing "serve.stats_cache" all read the same process
 *    aggregate, so that group contributes one term, while shards
 *    with per-shard prefixes (or empty = detached) each contribute;
 *  - flight-recorder numbers are process-wide: taken once;
 *  - model epoch, ladder level, drift, and SLO report the *worst*
 *    shard (max epoch; max ladder; max PSI; per-objective min good
 *    fraction / max burn / min budget, with percentile upper
 *    bounds), because a fleet is as healthy as its sickest shard.
 *
 * Empty input yields a default ServiceStatus.
 */
ServiceStatus aggregateStatusz(const std::vector<ServiceStatus> &shards);

/** Fleet rendering: the aggregate, then one block per shard. */
std::string fleetStatuszText(const std::vector<ServiceStatus> &shards);

/**
 * One JSON document ({"type":"statusz","fleet":{...},"shards":[...]})
 * — hm_statusz validates and renders it like a single-service
 * snapshot, plus the per-shard breakdown.
 */
std::string fleetStatuszJson(const std::vector<ServiceStatus> &shards);

/** Concurrent prediction server over a ModelRegistry. */
class PredictionService
{
  public:
    /**
     * @param models  Registry with at least one published model.
     * @param options Tunables; worker threads start immediately.
     */
    explicit PredictionService(ModelRegistry &models,
                               ServiceOptions options = {});

    /** close()s and joins the workers. */
    ~PredictionService();

    PredictionService(const PredictionService &) = delete;
    PredictionService &operator=(const PredictionService &) = delete;

    /**
     * Submit one request. Always returns a future that becomes
     * ready: Ok with a deployment, Shed (admission or deadline), or
     * Closed. Under Block admission this call waits for queue space
     * — an admitted request is never dropped.
     */
    std::future<ServeResponse> submit(ServeRequest request);

    /**
     * Wait until every request admitted before this call has been
     * responded to (the queue may still accept new work).
     */
    void drain();

    /**
     * Stop admitting, serve everything already queued, and join the
     * workers. Idempotent; rethrows the first worker exception.
     */
    void close();

    /** Worker thread count. */
    std::size_t workers() const { return pool_.threadCount(); }

    /** @name Request accounting (monotonic). @{ */
    uint64_t submitted() const { return submitted_.load(); }
    uint64_t admitted() const { return admitted_.load(); }
    uint64_t completed() const { return completed_.load(); }
    uint64_t shed() const { return shed_.load(); }
    uint64_t errorResponses() const { return errors_.load(); }
    /** @} */

    /** @name Fault-tolerance accounting (monotonic). @{ */
    uint64_t batchFailures() const { return batch_failures_.load(); }
    uint64_t workerStalls() const { return worker_stalls_.load(); }
    uint64_t workerRestarts() const { return worker_restarts_.load(); }
    uint64_t fallbackServed() const { return fallback_served_.load(); }
    /** @} */

    /** Current degradation-ladder rung. */
    DegradationLevel degradationLevel() const;

    /** Aggregate stats-shard counters (mirrors serve.stats_cache.*). */
    uint64_t statsHits() const;
    uint64_t statsMisses() const;

    /** Aggregate profile-shard counters (serve.profile_cache.*). */
    uint64_t profileHits() const;
    uint64_t profileMisses() const;

    /** Drift scores (readable in telemetry-OFF builds too). */
    DriftScores driftScores() const { return drift_.scores(); }

    /** SLO state: last window, rolling budget, latency percentiles. */
    SloStatus sloStatus() const { return slo_.status(); }

    /** Automatic postmortem dumps triggered so far. */
    uint64_t postmortems() const { return postmortems_.load(); }

    /** Live snapshot for statuszText()/statuszJson(). */
    ServiceStatus statusz() const;

  private:
    /**
     * Per-worker health slot the watchdog scans. beatNs is the
     * steady-clock timestamp of the worker's last heartbeat; busy
     * distinguishes "blocked in pop (idle, never stalled)" from
     * "serving a batch"; alive goes false when the worker's loop
     * task exits (lethal chaos crash, or normal close-time drain).
     */
    struct WorkerHealth {
        std::atomic<int64_t> beatNs{0};
        std::atomic<bool> busy{false};
        std::atomic<bool> alive{false};
    };

    ModelRegistry &models_;
    ServiceOptions options_;
    RequestQueue queue_;

    std::atomic<uint64_t> next_id_{1};
    std::atomic<uint64_t> submitted_{0};
    std::atomic<uint64_t> admitted_{0};
    std::atomic<uint64_t> completed_{0};
    std::atomic<uint64_t> shed_{0};
    std::atomic<uint64_t> errors_{0};
    std::atomic<uint64_t> responded_{0}; //!< admitted, now answered
    std::atomic<bool> closed_{false};

    std::atomic<uint64_t> batch_failures_{0};
    std::atomic<uint64_t> worker_stalls_{0};
    std::atomic<uint64_t> worker_restarts_{0};
    std::atomic<uint64_t> fallback_served_{0};

    /** @name Degradation ladder (watchdog-driven). @{ */
    std::atomic<int> degradation_{0};
    std::atomic<int64_t> last_fault_ns_{0};
    std::atomic<int64_t> last_recover_ns_{0};
    /** @} */

    std::mutex drain_mutex_;
    std::condition_variable drain_cv_;

    /**
     * One memo shard: the stats and profile caches of the graphs
     * whose batch key hashes here, so a batch touches one shard.
     */
    struct CacheShard {
        CacheShard(std::size_t capacity, const char *stats_prefix,
                   const char *profile_prefix)
            : stats(capacity, stats_prefix),
              profiles(capacity, profile_prefix)
        {
        }

        GraphStatsCache stats;
        ProfileCache profiles;
    };

    std::vector<std::unique_ptr<CacheShard>> shards_;

    /** @name Forensics: drift, SLOs, postmortem accounting. @{ */
    DriftMonitor drift_;
    SloTracker slo_;
    std::atomic<uint64_t> postmortems_{0};
    /** @} */

    /** Heuristic served at DegradationLevel::FallbackHeuristic. */
    std::unique_ptr<HeteroMap> fallback_;

    /** @name Supervised lane (serialized; see superviseDeploy). @{ */
    std::mutex supervised_mutex_;
    std::shared_ptr<const ModelSnapshot> supervised_model_;
    std::unique_ptr<Supervisor> supervisor_;
    /** @} */

    std::mutex close_mutex_; //!< makes close() idempotent

    /** @name Watchdog thread. @{ */
    std::vector<std::unique_ptr<WorkerHealth>> health_;
    std::mutex watchdog_mutex_;
    std::condition_variable watchdog_cv_;
    bool watchdog_stop_ = false; //!< guarded by watchdog_mutex_
    std::thread watchdog_;
    /** @} */

    ThreadPool pool_; //!< last member: destroyed (joined) first

    CacheShard &shardFor(const BatchKey &key);

    /** @p read summed over the shards, counting shared counters once. */
    uint64_t sumShards(uint64_t (*read)(const CacheShard &)) const;
    void workerLoop(std::size_t slot);
    void gatherBatch(std::vector<PendingRequest> &batch);
    void serveBatch(std::vector<PendingRequest> &batch);
    void superviseDeploy(
        const std::shared_ptr<const ModelSnapshot> &snapshot,
        const BenchmarkCase &bench, ServeResponse &response);
    void respond(PendingRequest &pending, ServeResponse response);
    void respondShed(PendingRequest &pending, ShedReason reason);
    void noteResponded(std::size_t count);

    /** Fail every not-yet-responded promise in @p batch. */
    void failBatch(std::vector<PendingRequest> &batch,
                   const std::string &what);
    void watchdogLoop();
    void stopWatchdog();
    void noteFault();
    void beat(WorkerHealth &health);

    /**
     * Dump the armed flight recorder to the next sequenced
     * postmortem file (no-op without a prefix or an armed recorder).
     */
    void maybePostmortem(const char *reason);
};

} // namespace serve
} // namespace heteromap

#endif // HETEROMAP_SERVE_PREDICTION_SERVICE_HH
