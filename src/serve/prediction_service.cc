/**
 * @file
 * Prediction service implementation.
 */

#include "serve/prediction_service.hh"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <map>
#include <optional>
#include <sstream>
#include <string>

#include "model/decision_tree.hh"
#include "util/build_info.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"
#include "util/trace.hh"

namespace heteromap {
namespace serve {

namespace {

using SteadyClock = std::chrono::steady_clock;

double
millisBetween(SteadyClock::time_point from, SteadyClock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

SteadyClock::duration
millisDuration(double ms)
{
    return std::chrono::duration_cast<SteadyClock::duration>(
        std::chrono::duration<double, std::milli>(ms));
}

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               SteadyClock::now().time_since_epoch())
        .count();
}

void
sleepMillis(double ms)
{
    if (ms > 0.0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
}

/** Clamp the zero-means-default knobs to sane minima. */
ServiceOptions
normalized(ServiceOptions options)
{
    options.workers = std::max<std::size_t>(1, options.workers);
    options.queueCapacity =
        std::max<std::size_t>(1, options.queueCapacity);
    options.maxBatch = std::max<std::size_t>(1, options.maxBatch);
    options.statsShards = std::max<std::size_t>(1, options.statsShards);
    options.statsCapacityPerShard =
        std::max<std::size_t>(1, options.statsCapacityPerShard);
    options.watchdog.pollMs = std::max(0.5, options.watchdog.pollMs);
    return options;
}

} // namespace

std::string
profileMetricsPrefix(const std::string &stats_prefix)
{
    static constexpr std::string_view kStats = "stats_cache";
    if (stats_prefix.empty())
        return {};
    if (stats_prefix.ends_with(kStats))
        return stats_prefix.substr(0, stats_prefix.size() -
                                          kStats.size()) +
               "profile_cache";
    return stats_prefix + ".profile_cache";
}

const char *
degradationLevelName(DegradationLevel level)
{
    switch (level) {
      case DegradationLevel::Normal: return "normal";
      case DegradationLevel::ShrinkBatch: return "shrink-batch";
      case DegradationLevel::BypassSupervised:
        return "bypass-supervised";
      case DegradationLevel::FallbackHeuristic:
        return "fallback-heuristic";
    }
    HM_PANIC("unreachable degradation level ",
             static_cast<int>(level));
}

PredictionService::PredictionService(ModelRegistry &models,
                                     ServiceOptions options)
    : models_(models), options_(normalized(std::move(options))),
      queue_(options_.queueCapacity), drift_(options_.drift),
      slo_(options_.slo), pool_(options_.workers)
{
    HM_ASSERT(models_.current() != nullptr,
              "PredictionService needs a registry with at least one "
              "published model");
    // Every shard registers the service's prefixes, so the
    // "<prefix>.*" counters aggregate across shards (and the
    // per-shard accessors read the same atomics). Co-resident
    // services that keep the default prefix alias each other —
    // multi-service hosts pass distinct prefixes (see
    // ServiceOptions::statsMetricsPrefix).
    const std::string profile_prefix =
        profileMetricsPrefix(options_.statsMetricsPrefix);
    shards_.reserve(options_.statsShards);
    for (std::size_t s = 0; s < options_.statsShards; ++s) {
        shards_.push_back(std::make_unique<CacheShard>(
            options_.statsCapacityPerShard,
            options_.statsMetricsPrefix.empty()
                ? nullptr
                : options_.statsMetricsPrefix.c_str(),
            profile_prefix.empty() ? nullptr : profile_prefix.c_str()));
    }

    // The last-resort model: the paper's hand-built heuristic tree
    // needs no training, so it is always ready — and its measure
    // path rides the same warm stats shards as the real model.
    fallback_ = std::make_unique<HeteroMap>(
        models_.pair(), makePredictor(PredictorKind::DecisionTree),
        models_.oracle());

    HM_GAUGE_SET("serve.degradation_level", 0.0);

    health_.reserve(pool_.threadCount());
    for (std::size_t w = 0; w < pool_.threadCount(); ++w) {
        health_.push_back(std::make_unique<WorkerHealth>());
        health_.back()->alive.store(true, std::memory_order_release);
        health_.back()->beatNs.store(nowNs(),
                                     std::memory_order_release);
    }
    for (std::size_t w = 0; w < pool_.threadCount(); ++w)
        pool_.submit([this, w] { workerLoop(w); });

    if (options_.watchdog.enabled)
        watchdog_ = std::thread([this] { watchdogLoop(); });
}

PredictionService::~PredictionService()
{
    try {
        close();
    } catch (const std::exception &e) {
        warn("prediction service worker failed during shutdown: ",
             e.what());
    }
}

PredictionService::CacheShard &
PredictionService::shardFor(const BatchKey &key)
{
    return *shards_[StatsKeyHash{}(key) % shards_.size()];
}

DegradationLevel
PredictionService::degradationLevel() const
{
    return static_cast<DegradationLevel>(
        degradation_.load(std::memory_order_acquire));
}

void
PredictionService::beat(WorkerHealth &health)
{
    health.beatNs.store(nowNs(), std::memory_order_release);
}

void
PredictionService::noteFault()
{
    last_fault_ns_.store(nowNs(), std::memory_order_release);
    int level = degradation_.load(std::memory_order_acquire);
    while (level < static_cast<int>(
                       DegradationLevel::FallbackHeuristic)) {
        if (degradation_.compare_exchange_weak(
                level, level + 1, std::memory_order_acq_rel)) {
            HM_COUNTER_INC("serve.degradation_steps");
            HM_GAUGE_SET("serve.degradation_level",
                         static_cast<double>(level + 1));
            warn("serve: degradation escalated to ",
                 degradationLevelName(
                     static_cast<DegradationLevel>(level + 1)));
            // Escalating into (or past) the supervised bypass is the
            // "something is really wrong" moment — capture the
            // provenance of everything served up to it.
            if (level + 1 >=
                static_cast<int>(DegradationLevel::BypassSupervised))
                maybePostmortem("ladder-escalation");
            break;
        }
    }
}

std::future<ServeResponse>
PredictionService::submit(ServeRequest request)
{
    submitted_.fetch_add(1, std::memory_order_relaxed);
    HM_COUNTER_INC("serve.submitted");
    HM_ASSERT(request.workload != nullptr && request.graph != nullptr,
              "a serve request needs a workload and a graph");

    // Chaos: admission delay models a slow front door (a saturated
    // RPC layer); it runs on the submitter's thread, before the
    // queue, so it never holds a service lock.
    if (options_.chaos != nullptr) {
        if (auto action =
                options_.chaos->visit(ChaosPoint::AdmissionDelay)) {
            sleepMillis(action->delayMs);
        }
    }

    PendingRequest pending;
    std::future<ServeResponse> future = pending.promise.get_future();
    pending.id = next_id_.fetch_add(1, std::memory_order_relaxed);
    pending.key = makeBatchKey(request);
    pending.enqueued = SteadyClock::now();
    if (request.deadlineMs > 0.0) {
        pending.hasDeadline = true;
        pending.deadline =
            pending.enqueued + millisDuration(request.deadlineMs);
    }
    pending.request = std::move(request);

    auto respondClosed = [&] {
        ServeResponse response;
        response.status = ServeStatus::Closed;
        response.requestId = pending.id;
        respond(pending, std::move(response));
    };

    if (closed_.load(std::memory_order_acquire)) {
        respondClosed();
        return future;
    }

    switch (queue_.push(pending, options_.admission)) {
      case RequestQueue::PushResult::Admitted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        HM_COUNTER_INC("serve.admitted");
        break;
      case RequestQueue::PushResult::Full:
        respondShed(pending, ShedReason::QueueFull);
        break;
      case RequestQueue::PushResult::Closed:
        respondClosed();
        break;
    }
    return future;
}

void
PredictionService::respond(PendingRequest &pending,
                           ServeResponse response)
{
    pending.responded = true;
    pending.promise.set_value(std::move(response));
}

void
PredictionService::respondShed(PendingRequest &pending, ShedReason reason)
{
    shed_.fetch_add(1, std::memory_order_relaxed);
    HM_COUNTER_INC("serve.shed");
    if (reason == ShedReason::QueueFull)
        HM_COUNTER_INC("serve.shed.queue_full");
    else if (reason == ShedReason::DeadlineExpired)
        HM_COUNTER_INC("serve.shed.deadline");

    ServeResponse response;
    response.status = ServeStatus::Shed;
    response.shedReason = reason;
    response.requestId = pending.id;
    respond(pending, std::move(response));
}

void
PredictionService::failBatch(std::vector<PendingRequest> &batch,
                             const std::string &what)
{
    batch_failures_.fetch_add(1, std::memory_order_relaxed);
    HM_COUNTER_INC("serve.worker.batch_failures");
    noteFault();

    const int level = degradation_.load(std::memory_order_acquire);
    for (PendingRequest &pending : batch) {
        if (pending.responded)
            continue;
        errors_.fetch_add(1, std::memory_order_relaxed);
        HM_COUNTER_INC("serve.errors");
        ServeResponse response;
        response.status = ServeStatus::Error;
        response.requestId = pending.id;
        response.degradationLevel = level;
        response.error =
            ServeError{ErrorCode::Unavailable, what};
        respond(pending, std::move(response));
    }
}

void
PredictionService::noteResponded(std::size_t count)
{
    responded_.fetch_add(count, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(drain_mutex_);
    }
    drain_cv_.notify_all();
}

void
PredictionService::workerLoop(std::size_t slot)
{
    WorkerHealth &health = *health_[slot];
    PendingRequest first;
    for (;;) {
        // Idle (blocked in pop) is not a stall: busy is down, so
        // the watchdog skips the heartbeat check.
        health.busy.store(false, std::memory_order_release);
        if (!queue_.pop(first))
            break; // closed and drained — normal exit
        health.busy.store(true, std::memory_order_release);
        beat(health);

        std::vector<PendingRequest> batch;
        batch.push_back(std::move(first));
        gatherBatch(batch);
        beat(health);

        bool lethal = false;
        try {
            if (options_.chaos != nullptr) {
                // Stall: sleep without beating the heartbeat, so
                // the watchdog sees a busy worker going silent.
                if (auto action = options_.chaos->visit(
                        ChaosPoint::WorkerStall)) {
                    sleepMillis(action->delayMs);
                }
                if (auto action = options_.chaos->visit(
                        ChaosPoint::WorkerCrashBatch)) {
                    lethal = action->lethal;
                    throw ChaosCrash("chaos: worker crashed on batch");
                }
            }
            serveBatch(batch);
        } catch (const ChaosCrash &e) {
            // A chaos crash is a rehearsed postmortem moment: dump
            // the flight recorder before containing the batch.
            maybePostmortem("chaos-crash");
            failBatch(batch, e.what());
        } catch (const std::exception &e) {
            // Contain the blast radius to this batch: exactly its
            // unresponded promises fail, with a structured error —
            // never a broken promise, never a dead service.
            failBatch(batch, e.what());
        } catch (...) {
            failBatch(batch, "unknown worker exception");
        }
        noteResponded(batch.size());

        if (lethal) {
            // Simulated hard crash: this loop task exits; the
            // watchdog notices the dead slot and restarts it.
            health.busy.store(false, std::memory_order_release);
            health.alive.store(false, std::memory_order_release);
            return;
        }
    }
    health.busy.store(false, std::memory_order_release);
    health.alive.store(false, std::memory_order_release);
}

void
PredictionService::gatherBatch(std::vector<PendingRequest> &batch)
{
    if (options_.maxBatch <= batch.size())
        return;
    // Ladder rung 1+: collapse the linger window — under faults the
    // service trades batching efficiency for latency head-room.
    const double linger =
        degradation_.load(std::memory_order_acquire) >=
                static_cast<int>(DegradationLevel::ShrinkBatch)
            ? 0.0
            : options_.maxBatchDelayMs;
    const BatchKey key = batch.front().key;
    const auto deadline = SteadyClock::now() + millisDuration(linger);
    queue_.popMatchingUntil(key, options_.maxBatch - batch.size(),
                            deadline, batch);
}

void
PredictionService::serveBatch(std::vector<PendingRequest> &batch)
{
    HM_SPAN("serve.batch");
    HM_COUNTER_INC("serve.batches");
    HM_COUNTER_ADD("serve.batched_requests", batch.size());

    const auto start = SteadyClock::now();

    // Shed whatever outlived its queueing budget before spending the
    // measurement on it. Requests stay in `batch` (indices, not
    // moves) so an exception below can still fail their promises.
    std::vector<std::size_t> live;
    live.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (batch[i].hasDeadline && start > batch[i].deadline)
            respondShed(batch[i], ShedReason::DeadlineExpired);
        else
            live.push_back(i);
    }
    if (live.empty())
        return;

    const int level = degradation_.load(std::memory_order_acquire);
    const bool use_fallback =
        level >= static_cast<int>(DegradationLevel::FallbackHeuristic);
    const bool bypass_supervised =
        level >= static_cast<int>(DegradationLevel::BypassSupervised);

    // Pin the model for the whole batch: every response below is
    // served by this one snapshot, however many hot-swaps land
    // concurrently — no torn reads, and one epoch per batch. The
    // fallback path still stamps the snapshot's epoch, keeping the
    // per-client monotone-epoch contract alive through the window.
    std::shared_ptr<const ModelSnapshot> snapshot = models_.current();
    HM_ASSERT(snapshot != nullptr,
              "serving requires a published model");

    // Keep the drift window bound to the pinned model's baseline
    // (pointer-equal rebinds are a no-op; a hot-swap resets the
    // in-progress window — see DriftMonitor::setBaseline).
    if (telemetry::enabled())
        drift_.setBaseline(snapshot->baseline);

    Timer timer;
    timer.start();

    // One GraphStats measurement amortizes across the batch (every
    // member shares the fingerprint by construction), and the batch's
    // cache shard holds both its stats and its profiles.
    const PendingRequest &head = batch[live.front()];
    CacheShard &shard = shardFor(head.key);
    const GraphStats stats = [&] {
        HM_SPAN("serve.measure");
        return shard.stats.measure(*head.request.graph,
                                   head.request.measure);
    }();
    const double measure_ms = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("serve.batch.measure_ms", measure_ms);

    // Pass 1 — group members by (workload identity, input): one
    // featurize and one profile lookup per group, and note which
    // groups have at least one member that needs an (unsupervised)
    // inference. Grouping by identity rather than name keeps two
    // parameterizations of one benchmark (PageRank() and
    // PageRank(0.5, 2)) from sharing a case.
    struct Group {
        BenchmarkCase bench;
        double featurizeMs = 0.0;         //!< this group's featurize
        double profileMs = 0.0;           //!< this group's profile
        std::vector<std::size_t> members; //!< indices into `live`
        std::ptrdiff_t inferSlot = -1;    //!< slot in the batched pass
    };
    std::vector<Group> groups;
    std::vector<bool> grouped(live.size(), false);
    std::vector<BenchmarkCase> infer_benches;
    for (std::size_t i = 0; i < live.size(); ++i) {
        if (grouped[i])
            continue;
        const ServeRequest &lead = batch[live[i]].request;
        const std::string identity = lead.workload->identity();

        timer.lapMillis(); // realign: charge only the stages below
        const FeatureVector features = [&] {
            HM_SPAN("serve.featurize");
            return featurize(*lead.workload, stats);
        }();
        Group group;
        group.featurizeMs = timer.lapMillis();
        HM_HISTOGRAM_RECORD_MS("serve.batch.featurize_ms",
                               group.featurizeMs);
        WorkloadProfile profile = [&] {
            HM_SPAN("serve.profile");
            return shard.profiles.profile(*lead.workload, *lead.graph);
        }();
        group.profileMs = timer.lapMillis();
        HM_HISTOGRAM_RECORD_MS("serve.batch.profile_ms", group.profileMs);
        group.bench = assembleCase(*lead.workload, lead.inputName, stats,
                                   features, std::move(profile));

        bool needs_infer = false;
        for (std::size_t j = i; j < live.size(); ++j) {
            if (grouped[j])
                continue;
            const ServeRequest &member = batch[live[j]].request;
            if (member.inputName != lead.inputName ||
                (member.workload != lead.workload &&
                 member.workload->identity() != identity)) {
                continue;
            }
            grouped[j] = true;
            group.members.push_back(j);
            if (!member.supervised || bypass_supervised)
                needs_infer = true;
        }
        if (needs_infer) {
            group.inferSlot =
                static_cast<std::ptrdiff_t>(infer_benches.size());
            infer_benches.push_back(group.bench);
        }
        groups.push_back(std::move(group));
    }

    // One batched forward pass serves every group: the predictor runs
    // once over all distinct (workload, input) cases instead of once
    // per group. Each Deployment is byte-identical to the per-group
    // deploy() it replaces (Predictor::predictBatch contract) and
    // carries the batch-amortized inference share as overheadMs.
    std::vector<Deployment> deployments;
    if (!infer_benches.empty()) {
        HM_SPAN("serve.infer");
        const HeteroMap &framework =
            use_fallback ? *fallback_ : *snapshot->framework;
        timer.lapMillis();
        deployments = framework.deployBatch(infer_benches);
        HM_HISTOGRAM_RECORD_MS("serve.batch.infer_ms",
                               timer.lapMillis());
    }

    // Pass 2 — distribute responses.
    for (const Group &group : groups) {
        for (std::size_t j : group.members) {
            PendingRequest &member_pending = batch[live[j]];
            const ServeRequest &member = member_pending.request;

            ServeResponse response;
            response.status = ServeStatus::Ok;
            response.requestId = member_pending.id;
            response.modelEpoch = snapshot->epoch;
            response.batchSize = live.size();
            response.degradationLevel = level;
            response.queueMs =
                millisBetween(member_pending.enqueued, start);

            if (member.supervised && !bypass_supervised) {
                superviseDeploy(snapshot, group.bench, response);
            } else {
                if (member.supervised) {
                    HM_COUNTER_INC("serve.supervised_bypassed");
                }
                HM_ASSERT(group.inferSlot >= 0,
                          "unsupervised member without an inference");
                response.deployment = deployments[
                    static_cast<std::size_t>(group.inferSlot)];
                if (use_fallback) {
                    response.servedByFallback = true;
                    fallback_served_.fetch_add(
                        1, std::memory_order_relaxed);
                    HM_COUNTER_INC("serve.fallback_served");
                }
            }

            response.serviceMs =
                millisBetween(start, SteadyClock::now());
            HM_HISTOGRAM_RECORD_MS("serve.request.service_ms",
                                   response.serviceMs);

            if (telemetry::enabled()) {
                slo_.record(response.serviceMs);
                drift_.observe(group.bench.features);
            }

            if (forensics::flightRecorderArmed()) {
                static_assert(forensics::kAuditFeatureDims ==
                                  kNumFeatures,
                              "audit feature dims track kNumFeatures");
                static_assert(forensics::kAuditScoreDims ==
                                  kNumOutputs,
                              "audit score dims track kNumOutputs");
                const bool lane_supervised =
                    member.supervised && !bypass_supervised;
                const HeteroMap &served =
                    !lane_supervised && use_fallback
                        ? *fallback_
                        : *snapshot->framework;

                forensics::AuditRecord audit;
                audit.requestId = member_pending.id;
                audit.timestampNs = telemetry::traceNowNs();
                audit.modelEpoch = snapshot->epoch;
                audit.graphFingerprint =
                    mixFingerprint(member_pending.key.fingerprint);
                audit.setModelKind(served.predictor().name());
                audit.setWorkload(member.workload->name());
                if (const auto *tree =
                        dynamic_cast<const DecisionTreeHeuristic *>(
                            &served.predictor())) {
                    const DecisionTreeHeuristic::DecisionPath path =
                        tree->decisionPath(group.bench.features);
                    audit.treeLeaf = path.leaf;
                    audit.treePredicateMask = path.predicateMask;
                }
                audit.features = group.bench.features.asArray();
                audit.scores = response.deployment.predicted.m;
                audit.setAccelerator(acceleratorKindName(
                    response.deployment.config.accelerator));
                audit.queueMs = response.queueMs;
                audit.measureMs = measure_ms;
                audit.featurizeMs = group.featurizeMs;
                audit.profileMs = group.profileMs;
                audit.inferMs = response.deployment.overheadMs;
                audit.serviceMs = response.serviceMs;
                audit.status =
                    static_cast<int32_t>(response.status);
                audit.degradationLevel = level;
                audit.supervised = member.supervised;
                audit.servedByFallback = response.servedByFallback;
                audit.hasOutcome = response.outcome.has_value();
                audit.withinTolerance =
                    response.outcome.has_value() &&
                    response.outcome->withinTolerance;
                forensics::appendAuditRecord(audit);
            }

            completed_.fetch_add(1, std::memory_order_relaxed);
            HM_COUNTER_INC("serve.completed");
            respond(member_pending, std::move(response));
        }
    }
}

void
PredictionService::superviseDeploy(
    const std::shared_ptr<const ModelSnapshot> &snapshot,
    const BenchmarkCase &bench, ServeResponse &response)
{
    // The lane serializes: the Supervisor owns the fault clock and
    // is stateful, so supervised deployments order behind the mutex.
    std::lock_guard<std::mutex> lock(supervised_mutex_);

    // Chaos: hang while holding the lane mutex — exactly the
    // failure mode the BypassSupervised ladder rung exists for.
    if (options_.chaos != nullptr) {
        if (auto action =
                options_.chaos->visit(ChaosPoint::SupervisorHang)) {
            sleepMillis(action->delayMs);
        }
    }

    if (supervised_model_ != snapshot) {
        // A hot-swap landed since the last supervised deployment;
        // rebind the ladder to the new model (the fault clock
        // restarts with it — documented in DESIGN.md §10).
        supervised_model_ = snapshot;
        supervisor_ = std::make_unique<Supervisor>(
            *snapshot->framework, options_.faults,
            options_.supervisor);
    }
    HM_SPAN("serve.supervised");
    DeploymentOutcome outcome = supervisor_->deploy(bench);
    HM_COUNTER_INC("serve.supervised");
    if (!outcome.withinTolerance)
        HM_COUNTER_INC("serve.supervised_degraded");
    // Ground truth for the drift monitor: the supervised lane is the
    // only place the service learns whether a prediction held up.
    if (telemetry::enabled())
        drift_.observeOutcome(outcome.withinTolerance);
    response.deployment = outcome.deployment;
    response.outcome = std::move(outcome);
}

void
PredictionService::watchdogLoop()
{
    const auto poll = millisDuration(options_.watchdog.pollMs);
    const int64_t stuck_ns = static_cast<int64_t>(
        options_.watchdog.stuckAfterMs * 1e6);
    const int64_t recover_ns = static_cast<int64_t>(
        options_.watchdog.recoverAfterMs * 1e6);

    std::unique_lock<std::mutex> lock(watchdog_mutex_);
    while (!watchdog_stop_) {
        watchdog_cv_.wait_for(lock, poll,
                              [&] { return watchdog_stop_; });
        if (watchdog_stop_)
            return;
        lock.unlock();

        const int64_t now = nowNs();
        for (std::size_t slot = 0; slot < health_.size(); ++slot) {
            WorkerHealth &health = *health_[slot];
            if (!health.alive.load(std::memory_order_acquire)) {
                if (!closed_.load(std::memory_order_acquire)) {
                    // Crashed worker: restart its loop task on the
                    // pool (the crash freed a pool thread).
                    worker_restarts_.fetch_add(
                        1, std::memory_order_relaxed);
                    HM_COUNTER_INC("serve.worker.restarts");
                    noteFault();
                    warn("serve: restarting dead worker ", slot);
                    health.alive.store(true,
                                       std::memory_order_release);
                    beat(health);
                    pool_.submit(
                        [this, slot] { workerLoop(slot); });
                }
                continue;
            }
            if (health.busy.load(std::memory_order_acquire) &&
                now - health.beatNs.load(
                          std::memory_order_acquire) > stuck_ns) {
                worker_stalls_.fetch_add(1,
                                         std::memory_order_relaxed);
                HM_COUNTER_INC("serve.worker.stalls");
                noteFault();
                warn("serve: worker ", slot,
                     " stalled mid-batch (no heartbeat)");
                // Rearm so a still-stuck worker is recounted per
                // stuck window, not per poll tick.
                beat(health);
            }
        }

        // SLO windows close on the watchdog's clock (the tracker
        // rate-limits itself to slo.windowMs).
        if (telemetry::enabled())
            slo_.maybeHarvest();

        // De-escalate one rung per fault-free recovery window.
        const int level = degradation_.load(std::memory_order_acquire);
        if (level > 0) {
            const int64_t quiet_since = std::max(
                last_fault_ns_.load(std::memory_order_acquire),
                last_recover_ns_.load(std::memory_order_acquire));
            if (now - quiet_since > recover_ns) {
                degradation_.store(level - 1,
                                   std::memory_order_release);
                last_recover_ns_.store(now,
                                       std::memory_order_release);
                HM_GAUGE_SET("serve.degradation_level",
                             static_cast<double>(level - 1));
            }
        }

        lock.lock();
    }
}

void
PredictionService::stopWatchdog()
{
    if (!watchdog_.joinable())
        return;
    {
        std::lock_guard<std::mutex> lock(watchdog_mutex_);
        watchdog_stop_ = true;
    }
    watchdog_cv_.notify_all();
    watchdog_.join();
}

void
PredictionService::drain()
{
    const uint64_t target = admitted_.load(std::memory_order_acquire);
    std::unique_lock<std::mutex> lock(drain_mutex_);
    drain_cv_.wait(lock, [&] {
        return responded_.load(std::memory_order_acquire) >= target;
    });
}

void
PredictionService::close()
{
    std::lock_guard<std::mutex> lock(close_mutex_);
    closed_.store(true, std::memory_order_release);
    // Stop the watchdog first so no restart task races pool_.wait().
    stopWatchdog();
    queue_.close();
    // Workers drain every already-admitted request (pop() only
    // returns false once the queue is closed *and* empty), then
    // their loop tasks finish; wait() rethrows the first worker
    // exception, if any (worker loops swallow their own, so this
    // only fires for infrastructure failures).
    pool_.wait();
    // If every worker died (lethal chaos) with requests still
    // queued, answer them Closed — an admitted request never ends
    // in a broken promise.
    PendingRequest leftover;
    while (queue_.pop(leftover)) {
        ServeResponse response;
        response.status = ServeStatus::Closed;
        response.requestId = leftover.id;
        respond(leftover, std::move(response));
        noteResponded(1);
    }
    // Close a final SLO window so short-lived services (tests, CLI
    // runs) report the tail of their traffic too.
    if (telemetry::enabled())
        slo_.maybeHarvest(true);
}

uint64_t
PredictionService::sumShards(
    uint64_t (*read)(const CacheShard &)) const
{
    // With a metrics prefix, the shards share the prefixed registry
    // counters, so any one shard reads the aggregate; detached
    // (empty-prefix) caches each own their counters and must sum.
    if (!options_.statsMetricsPrefix.empty())
        return read(*shards_.front());
    uint64_t total = 0;
    for (const auto &shard : shards_)
        total += read(*shard);
    return total;
}

uint64_t
PredictionService::statsHits() const
{
    return sumShards([](const CacheShard &s) { return s.stats.hits(); });
}

uint64_t
PredictionService::statsMisses() const
{
    return sumShards(
        [](const CacheShard &s) { return s.stats.misses(); });
}

uint64_t
PredictionService::profileHits() const
{
    return sumShards(
        [](const CacheShard &s) { return s.profiles.hits(); });
}

uint64_t
PredictionService::profileMisses() const
{
    return sumShards(
        [](const CacheShard &s) { return s.profiles.misses(); });
}

void
PredictionService::maybePostmortem(const char *reason)
{
    if (options_.postmortemPrefix.empty() ||
        !forensics::flightRecorderArmed())
        return;
    const uint64_t seq =
        postmortems_.fetch_add(1, std::memory_order_relaxed);
    const std::string path = options_.postmortemPrefix + "postmortem-" +
                             std::to_string(seq) + ".jsonl";
    if (forensics::dumpFlightRecorderToFile(path, reason))
        HM_COUNTER_INC("serve.postmortems");
}

ServiceStatus
PredictionService::statusz() const
{
    ServiceStatus status;
    if (auto snapshot = models_.current()) {
        status.modelEpoch = snapshot->epoch;
        status.predictorName = snapshot->predictorName;
        status.hasBaseline = snapshot->baseline != nullptr;
    }
    status.degradationLevel =
        static_cast<int>(degradationLevel());
    status.queueDepth = queue_.size();
    status.queueCapacity = queue_.capacity();
    status.workers = pool_.threadCount();
    status.submitted = submitted();
    status.admitted = admitted();
    status.completed = completed();
    status.shed = shed();
    status.errors = errorResponses();
    status.batchFailures = batchFailures();
    status.workerStalls = workerStalls();
    status.workerRestarts = workerRestarts();
    status.fallbackServed = fallbackServed();
    status.statsHits = statsHits();
    status.statsMisses = statsMisses();
    status.profileHits = profileHits();
    status.profileMisses = profileMisses();
    status.statsPrefix = options_.statsMetricsPrefix;
    status.flightArmed = forensics::flightRecorderArmed();
    status.flightAppended = forensics::auditRecordsAppended();
    status.flightDropped = forensics::auditRecordsDropped();
    status.postmortems = postmortems();
    status.drift = drift_.scores();
    status.slo = slo_.status();
    return status;
}

namespace {

std::string
fmtDouble(double value)
{
    std::ostringstream os;
    os << std::setprecision(12) << value;
    return os.str();
}

} // namespace

std::string
statuszText(const ServiceStatus &status)
{
    std::ostringstream os;
    os << telemetry::buildInfoLine() << "\n";
    os << "model: epoch=" << status.modelEpoch << " predictor="
       << status.predictorName
       << " baseline=" << (status.hasBaseline ? "yes" : "no") << "\n";
    os << "ladder: level=" << status.degradationLevel << " ("
       << degradationLevelName(static_cast<DegradationLevel>(
              status.degradationLevel))
       << ")\n";
    os << "queue: depth=" << status.queueDepth << "/"
       << status.queueCapacity << " workers=" << status.workers
       << "\n";
    os << "requests: submitted=" << status.submitted
       << " admitted=" << status.admitted
       << " completed=" << status.completed << " shed=" << status.shed
       << " errors=" << status.errors << "\n";
    os << "faults: batch_failures=" << status.batchFailures
       << " stalls=" << status.workerStalls
       << " restarts=" << status.workerRestarts
       << " fallback_served=" << status.fallbackServed << "\n";
    os << "stats_cache: hits=" << status.statsHits
       << " misses=" << status.statsMisses << "\n";
    os << "profile_cache: hits=" << status.profileHits
       << " misses=" << status.profileMisses << "\n";
    os << "flight: armed=" << (status.flightArmed ? "yes" : "no")
       << " appended=" << status.flightAppended
       << " dropped=" << status.flightDropped
       << " postmortems=" << status.postmortems << "\n";
    os << "drift: baseline=" << (status.drift.hasBaseline ? "yes" : "no")
       << " psi=" << fmtDouble(status.drift.psi)
       << " ks=" << fmtDouble(status.drift.ks)
       << " worst_dim=" << status.drift.worstDim
       << " mispredict_rate="
       << fmtDouble(status.drift.mispredictRate)
       << " windows=" << status.drift.windows
       << " alerts=" << status.drift.alerts << "\n";
    os << "slo: windows=" << status.slo.windows
       << " requests=" << status.slo.requests
       << " p50_ms=" << fmtDouble(status.slo.p50Ms)
       << " p95_ms=" << fmtDouble(status.slo.p95Ms)
       << " p99_ms=" << fmtDouble(status.slo.p99Ms) << "\n";
    for (const SloStatus::Objective &objective :
         status.slo.objectives) {
        os << "slo." << objective.name << ": threshold_ms="
           << fmtDouble(objective.thresholdMs)
           << " target=" << fmtDouble(objective.target)
           << " good=" << fmtDouble(objective.goodFraction)
           << " burn=" << fmtDouble(objective.burnRate)
           << " budget=" << fmtDouble(objective.budgetRemaining)
           << " breaches=" << objective.breaches << "\n";
    }
    return os.str();
}

std::string
statuszJson(const ServiceStatus &status)
{
    std::ostringstream os;
    os << "{\"type\":\"statusz\",\"build\":"
       << telemetry::buildInfoJson();
    os << ",\"model\":{\"epoch\":" << status.modelEpoch
       << ",\"predictor\":\""
       << telemetry::jsonEscape(status.predictorName)
       << "\",\"has_baseline\":"
       << (status.hasBaseline ? "true" : "false") << "}";
    os << ",\"ladder\":{\"level\":" << status.degradationLevel
       << ",\"name\":\""
       << degradationLevelName(static_cast<DegradationLevel>(
              status.degradationLevel))
       << "\"}";
    os << ",\"queue\":{\"depth\":" << status.queueDepth
       << ",\"capacity\":" << status.queueCapacity
       << ",\"workers\":" << status.workers << "}";
    os << ",\"requests\":{\"submitted\":" << status.submitted
       << ",\"admitted\":" << status.admitted
       << ",\"completed\":" << status.completed
       << ",\"shed\":" << status.shed
       << ",\"errors\":" << status.errors << "}";
    os << ",\"faults\":{\"batch_failures\":" << status.batchFailures
       << ",\"stalls\":" << status.workerStalls
       << ",\"restarts\":" << status.workerRestarts
       << ",\"fallback_served\":" << status.fallbackServed << "}";
    os << ",\"stats_cache\":{\"hits\":" << status.statsHits
       << ",\"misses\":" << status.statsMisses << "}";
    os << ",\"profile_cache\":{\"hits\":" << status.profileHits
       << ",\"misses\":" << status.profileMisses << "}";
    os << ",\"flight\":{\"armed\":"
       << (status.flightArmed ? "true" : "false")
       << ",\"appended\":" << status.flightAppended
       << ",\"dropped\":" << status.flightDropped
       << ",\"postmortems\":" << status.postmortems << "}";
    os << ",\"drift\":{\"has_baseline\":"
       << (status.drift.hasBaseline ? "true" : "false")
       << ",\"psi\":" << fmtDouble(status.drift.psi)
       << ",\"ks\":" << fmtDouble(status.drift.ks)
       << ",\"worst_dim\":" << status.drift.worstDim
       << ",\"mispredict_rate\":"
       << fmtDouble(status.drift.mispredictRate)
       << ",\"windows\":" << status.drift.windows
       << ",\"alerts\":" << status.drift.alerts << "}";
    os << ",\"slo\":{\"windows\":" << status.slo.windows
       << ",\"requests\":" << status.slo.requests
       << ",\"p50_ms\":" << fmtDouble(status.slo.p50Ms)
       << ",\"p95_ms\":" << fmtDouble(status.slo.p95Ms)
       << ",\"p99_ms\":" << fmtDouble(status.slo.p99Ms)
       << ",\"objectives\":[";
    for (std::size_t i = 0; i < status.slo.objectives.size(); ++i) {
        const SloStatus::Objective &objective =
            status.slo.objectives[i];
        if (i > 0)
            os << ",";
        os << "{\"name\":\"" << telemetry::jsonEscape(objective.name)
           << "\",\"threshold_ms\":" << fmtDouble(objective.thresholdMs)
           << ",\"target\":" << fmtDouble(objective.target)
           << ",\"good_fraction\":"
           << fmtDouble(objective.goodFraction)
           << ",\"burn_rate\":" << fmtDouble(objective.burnRate)
           << ",\"budget_remaining\":"
           << fmtDouble(objective.budgetRemaining)
           << ",\"breaches\":" << objective.breaches << "}";
    }
    os << "]}}";
    return os.str();
}

ServiceStatus
aggregateStatusz(const std::vector<ServiceStatus> &shards)
{
    ServiceStatus fleet;
    if (shards.empty())
        return fleet;
    fleet = shards.front();
    fleet.queueDepth = fleet.queueCapacity = fleet.workers = 0;
    fleet.submitted = fleet.admitted = fleet.completed = 0;
    fleet.shed = fleet.errors = 0;
    fleet.batchFailures = fleet.workerStalls = 0;
    fleet.workerRestarts = fleet.fallbackServed = 0;
    fleet.postmortems = 0;
    fleet.statsHits = fleet.statsMisses = 0;
    fleet.profileHits = fleet.profileMisses = 0;
    fleet.statsPrefix = "fleet";

    // Cache counters: one term per distinct shared prefix (those
    // shards read the same registry atomics — their reported values
    // are copies of one number), plus every detached shard. The
    // profile-cache prefix derives from the stats prefix, so one
    // grouping serves both.
    struct CacheCounts {
        uint64_t statsHits = 0, statsMisses = 0;
        uint64_t profileHits = 0, profileMisses = 0;
    };
    std::map<std::string, CacheCounts> by_prefix;
    for (const ServiceStatus &shard : shards) {
        fleet.queueDepth += shard.queueDepth;
        fleet.queueCapacity += shard.queueCapacity;
        fleet.workers += shard.workers;
        fleet.submitted += shard.submitted;
        fleet.admitted += shard.admitted;
        fleet.completed += shard.completed;
        fleet.shed += shard.shed;
        fleet.errors += shard.errors;
        fleet.batchFailures += shard.batchFailures;
        fleet.workerStalls += shard.workerStalls;
        fleet.workerRestarts += shard.workerRestarts;
        fleet.fallbackServed += shard.fallbackServed;
        fleet.postmortems += shard.postmortems;

        if (shard.statsPrefix.empty()) {
            fleet.statsHits += shard.statsHits;
            fleet.statsMisses += shard.statsMisses;
            fleet.profileHits += shard.profileHits;
            fleet.profileMisses += shard.profileMisses;
        } else {
            // Snapshot skew across shards of one prefix group is
            // possible (statuses are taken one by one); take the
            // max — the freshest read of the shared counter.
            CacheCounts &entry = by_prefix[shard.statsPrefix];
            entry.statsHits = std::max(entry.statsHits, shard.statsHits);
            entry.statsMisses =
                std::max(entry.statsMisses, shard.statsMisses);
            entry.profileHits =
                std::max(entry.profileHits, shard.profileHits);
            entry.profileMisses =
                std::max(entry.profileMisses, shard.profileMisses);
        }

        fleet.modelEpoch = std::max(fleet.modelEpoch, shard.modelEpoch);
        fleet.degradationLevel =
            std::max(fleet.degradationLevel, shard.degradationLevel);
        fleet.hasBaseline = fleet.hasBaseline && shard.hasBaseline;
        if (shard.drift.psi > fleet.drift.psi)
            fleet.drift = shard.drift;
    }
    for (const auto &[prefix, counts] : by_prefix) {
        fleet.statsHits += counts.statsHits;
        fleet.statsMisses += counts.statsMisses;
        fleet.profileHits += counts.profileHits;
        fleet.profileMisses += counts.profileMisses;
    }

    // SLO roll-up: worst shard per objective (matched by name), and
    // percentile upper bounds — a fleet-total percentile cannot be
    // recovered from per-shard percentiles, so report the bound and
    // leave exact numbers to the per-shard blocks.
    fleet.slo = SloStatus{};
    fleet.slo.objectives =
        shards.front().slo.objectives; // shape from shard 0
    for (const ServiceStatus &shard : shards) {
        fleet.slo.windows =
            std::max(fleet.slo.windows, shard.slo.windows);
        fleet.slo.requests += shard.slo.requests;
        fleet.slo.p50Ms = std::max(fleet.slo.p50Ms, shard.slo.p50Ms);
        fleet.slo.p95Ms = std::max(fleet.slo.p95Ms, shard.slo.p95Ms);
        fleet.slo.p99Ms = std::max(fleet.slo.p99Ms, shard.slo.p99Ms);
        for (SloStatus::Objective &fleet_obj : fleet.slo.objectives) {
            for (const SloStatus::Objective &shard_obj :
                 shard.slo.objectives) {
                if (shard_obj.name != fleet_obj.name)
                    continue;
                if (&shard == &shards.front()) {
                    // Shard 0 seeded the shape; only fold the others.
                    break;
                }
                fleet_obj.goodFraction = std::min(
                    fleet_obj.goodFraction, shard_obj.goodFraction);
                fleet_obj.burnRate =
                    std::max(fleet_obj.burnRate, shard_obj.burnRate);
                fleet_obj.budgetRemaining =
                    std::min(fleet_obj.budgetRemaining,
                             shard_obj.budgetRemaining);
                fleet_obj.breaches += shard_obj.breaches;
                break;
            }
        }
    }
    return fleet;
}

std::string
fleetStatuszText(const std::vector<ServiceStatus> &shards)
{
    std::ostringstream os;
    os << "fleet: shards=" << shards.size() << "\n";
    os << statuszText(aggregateStatusz(shards));
    for (std::size_t s = 0; s < shards.size(); ++s) {
        os << "\n--- shard " << s << " ---\n";
        os << statuszText(shards[s]);
    }
    return os.str();
}

std::string
fleetStatuszJson(const std::vector<ServiceStatus> &shards)
{
    // Reuse the single-service emitter for each block: the fleet
    // document is {"type":"statusz","shard_count":N,
    // "fleet":<status>,"shards":[<status>...]} where each <status>
    // is a full statuszJson object (type marker included, so both
    // shapes validate the same way).
    std::ostringstream os;
    os << "{\"type\":\"statusz\",\"shard_count\":" << shards.size()
       << ",\"fleet\":" << statuszJson(aggregateStatusz(shards))
       << ",\"shards\":[";
    for (std::size_t s = 0; s < shards.size(); ++s) {
        if (s > 0)
            os << ",";
        os << statuszJson(shards[s]);
    }
    os << "]}";
    return os.str();
}

} // namespace serve
} // namespace heteromap
