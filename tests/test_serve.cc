/**
 * @file
 * Tests for the serving subsystem: the bounded admission-controlled
 * RequestQueue, the hot-swappable ModelRegistry, and the batching
 * PredictionService (queue semantics, batching equivalence, shed
 * accounting, zero drops under backpressure, concurrent hot-swap).
 * Every suite name contains "Serve" so `tools/check_tsan.sh -R Serve`
 * runs exactly this file under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "serve/request_queue.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "workloads/pagerank.hh"
#include "workloads/registry.hh"

namespace heteromap {
namespace serve {
namespace {

std::shared_ptr<const Workload>
sharedWorkload(const char *name)
{
    return std::shared_ptr<const Workload>(makeWorkload(name));
}

std::shared_ptr<const Graph>
sharedGraph(Graph graph)
{
    return std::make_shared<const Graph>(std::move(graph));
}

ServeRequest
makeRequest(std::shared_ptr<const Workload> workload,
            std::shared_ptr<const Graph> graph, const char *input)
{
    ServeRequest request;
    request.workload = std::move(workload);
    request.graph = std::move(graph);
    request.inputName = input;
    return request;
}

PendingRequest
makePending(const std::shared_ptr<const Workload> &workload,
            const std::shared_ptr<const Graph> &graph, uint64_t id)
{
    PendingRequest pending;
    pending.request = makeRequest(workload, graph, "queued");
    pending.id = id;
    pending.key = makeBatchKey(pending.request);
    pending.enqueued = std::chrono::steady_clock::now();
    return pending;
}

/* ------------------------------------------------------------------ */
/* RequestQueue                                                       */
/* ------------------------------------------------------------------ */

class ServeQueueTest : public ::testing::Test
{
  protected:
    std::shared_ptr<const Workload> workload_ = sharedWorkload("PR");
    std::shared_ptr<const Graph> mesh_ =
        sharedGraph(generateMesh(128, 4, 1));
    std::shared_ptr<const Graph> star_ =
        sharedGraph(generateStar(64));
};

TEST_F(ServeQueueTest, PopsInFifoOrder)
{
    RequestQueue queue(8);
    for (uint64_t id = 1; id <= 3; ++id) {
        PendingRequest pending = makePending(workload_, mesh_, id);
        EXPECT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }
    EXPECT_EQ(queue.size(), 3u);

    PendingRequest out;
    for (uint64_t id = 1; id <= 3; ++id) {
        ASSERT_TRUE(queue.pop(out));
        EXPECT_EQ(out.id, id);
    }
    EXPECT_EQ(queue.size(), 0u);
}

TEST_F(ServeQueueTest, RejectPolicyShedsWhenFull)
{
    RequestQueue queue(2);
    PendingRequest a = makePending(workload_, mesh_, 1);
    PendingRequest b = makePending(workload_, mesh_, 2);
    PendingRequest c = makePending(workload_, mesh_, 3);
    EXPECT_EQ(queue.push(a, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Admitted);
    EXPECT_EQ(queue.push(b, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Admitted);
    EXPECT_EQ(queue.push(c, AdmissionPolicy::Reject),
              RequestQueue::PushResult::Full);
    // Rejected requests are NOT consumed: the caller still owns the
    // promise and can respond Shed.
    EXPECT_EQ(c.id, 3u);
    c.promise.set_value(ServeResponse{});
}

TEST_F(ServeQueueTest, BlockPolicyWaitsForSpace)
{
    RequestQueue queue(1);
    PendingRequest first = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(first, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    std::atomic<bool> admitted{false};
    std::thread pusher([&] {
        PendingRequest second = makePending(workload_, mesh_, 2);
        EXPECT_EQ(queue.push(second, AdmissionPolicy::Block),
                  RequestQueue::PushResult::Admitted);
        admitted.store(true);
    });

    // The pusher stays blocked until a pop makes room.
    PendingRequest out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 1u);
    pusher.join();
    EXPECT_TRUE(admitted.load());
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 2u);
}

TEST_F(ServeQueueTest, CloseWakesBlockedPushers)
{
    RequestQueue queue(1);
    PendingRequest first = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(first, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    std::thread pusher([&] {
        PendingRequest second = makePending(workload_, mesh_, 2);
        EXPECT_EQ(queue.push(second, AdmissionPolicy::Block),
                  RequestQueue::PushResult::Closed);
    });
    // Give the pusher a moment to block, then close under it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    pusher.join();

    // Already-admitted work still drains after close.
    PendingRequest out;
    EXPECT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(queue.pop(out));
}

TEST_F(ServeQueueTest, PopMatchingExtractsOnlyTheKey)
{
    RequestQueue queue(8);
    // Interleave two fingerprints: mesh at ids 1/3/5, star at 2/4.
    for (uint64_t id = 1; id <= 5; ++id) {
        PendingRequest pending = makePending(
            workload_, (id % 2 == 1) ? mesh_ : star_, id);
        ASSERT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }

    const BatchKey mesh_key =
        makeBatchKey(makeRequest(workload_, mesh_, "queued"));
    std::vector<PendingRequest> batch;
    const std::size_t n = queue.popMatchingUntil(
        mesh_key, 8, std::chrono::steady_clock::now(), batch);
    EXPECT_EQ(n, 3u);
    ASSERT_EQ(batch.size(), 3u);
    EXPECT_EQ(batch[0].id, 1u);
    EXPECT_EQ(batch[1].id, 3u);
    EXPECT_EQ(batch[2].id, 5u);

    // The non-matching requests kept their order.
    PendingRequest out;
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 2u);
    ASSERT_TRUE(queue.pop(out));
    EXPECT_EQ(out.id, 4u);
}

TEST_F(ServeQueueTest, PopMatchingHonoursMaxCount)
{
    RequestQueue queue(8);
    for (uint64_t id = 1; id <= 4; ++id) {
        PendingRequest pending = makePending(workload_, mesh_, id);
        ASSERT_EQ(queue.push(pending, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);
    }
    const BatchKey key =
        makeBatchKey(makeRequest(workload_, mesh_, "queued"));
    std::vector<PendingRequest> batch;
    EXPECT_EQ(queue.popMatchingUntil(
                  key, 2, std::chrono::steady_clock::now(), batch),
              2u);
    EXPECT_EQ(queue.size(), 2u);
}

TEST_F(ServeQueueTest, CloseRacingPopMatchingReleasesTheWaiter)
{
    // A batch gatherer lingering for more matches must observe
    // close() promptly and return what it has — close racing the
    // in-flight popMatchingUntil must not strand it until the full
    // linger deadline, and whatever it extracted is still valid.
    for (int round = 0; round < 20; ++round) {
        RequestQueue queue(8);
        PendingRequest first = makePending(workload_, mesh_, 1);
        ASSERT_EQ(queue.push(first, AdmissionPolicy::Reject),
                  RequestQueue::PushResult::Admitted);

        std::vector<PendingRequest> batch;
        std::thread gatherer([&] {
            const BatchKey key =
                makeBatchKey(makeRequest(workload_, mesh_, "queued"));
            // Far deadline: only close() can release this early.
            queue.popMatchingUntil(
                key, 8,
                std::chrono::steady_clock::now() +
                    std::chrono::seconds(30),
                batch);
        });
        std::thread closer([&] { queue.close(); });
        gatherer.join();
        closer.join();

        // The single queued request was extracted exactly once —
        // by the gatherer or still poppable — never both, never
        // neither.
        PendingRequest out;
        const bool popped = queue.pop(out);
        EXPECT_EQ(batch.size() + (popped ? 1 : 0), 1u);
        EXPECT_FALSE(queue.pop(out));
    }
}

TEST_F(ServeQueueTest, CloseReleasesEveryBlockedPusher)
{
    // Several pushers blocked on a full queue all observe Closed;
    // none is silently consumed and every promise stays with its
    // caller, usable exactly once.
    RequestQueue queue(1);
    PendingRequest head = makePending(workload_, mesh_, 1);
    ASSERT_EQ(queue.push(head, AdmissionPolicy::Block),
              RequestQueue::PushResult::Admitted);

    constexpr int kPushers = 4;
    std::atomic<int> closed_seen{0};
    std::vector<std::thread> pushers;
    pushers.reserve(kPushers);
    for (int p = 0; p < kPushers; ++p) {
        pushers.emplace_back([&, p] {
            PendingRequest pending =
                makePending(workload_, mesh_, 10 + p);
            const auto outcome =
                queue.push(pending, AdmissionPolicy::Block);
            EXPECT_EQ(outcome, RequestQueue::PushResult::Closed);
            closed_seen.fetch_add(1);
            // The caller keeps the promise: fulfilling it here must
            // not throw (it was never consumed by the queue).
            ServeResponse response;
            response.status = ServeStatus::Closed;
            pending.promise.set_value(std::move(response));
        });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    queue.close();
    for (auto &pusher : pushers)
        pusher.join();

    EXPECT_EQ(closed_seen.load(), kPushers);
    PendingRequest out;
    EXPECT_TRUE(queue.pop(out)); // the admitted head still drains
    EXPECT_EQ(out.id, 1u);
    EXPECT_FALSE(queue.pop(out));
}

/* ------------------------------------------------------------------ */
/* ModelRegistry                                                      */
/* ------------------------------------------------------------------ */

class ServeRegistryTest : public ::testing::Test
{
  protected:
    Oracle oracle_;
    AcceleratorPair pair_ = pinnedPair(primaryPair());
};

TEST_F(ServeRegistryTest, EmptyBeforeFirstPublish)
{
    ModelRegistry registry(pair_, oracle_);
    EXPECT_EQ(registry.current(), nullptr);
    EXPECT_EQ(registry.epoch(), 0u);
}

TEST_F(ServeRegistryTest, PublishBumpsEpochMonotonically)
{
    ModelRegistry registry(pair_, oracle_);
    EXPECT_EQ(registry.publish(
                  PredictorKind::DecisionTree,
                  makePredictor(PredictorKind::DecisionTree)),
              1u);
    EXPECT_EQ(registry.publish(
                  PredictorKind::DecisionTree,
                  makePredictor(PredictorKind::DecisionTree)),
              2u);
    auto snapshot = registry.current();
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->epoch, 2u);
    EXPECT_EQ(snapshot->kind, PredictorKind::DecisionTree);
    EXPECT_NE(snapshot->framework, nullptr);
}

TEST_F(ServeRegistryTest, LoadHotSwapsFromAStream)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    std::ostringstream out;
    auto tree = makePredictor(PredictorKind::DecisionTree);
    savePredictor(*tree, PredictorKind::DecisionTree, out);
    std::istringstream in(out.str());
    Result<uint64_t> epoch =
        registry.load(PredictorKind::DecisionTree, in);
    ASSERT_TRUE(epoch.ok()) << epoch.error().toString();
    EXPECT_EQ(epoch.value(), 2u);
    EXPECT_EQ(registry.current()->predictorName, tree->name());
}

TEST_F(ServeRegistryTest, CorruptStreamRollsBackToLastGood)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    const auto before = registry.current();

    std::ostringstream out;
    auto tree = makePredictor(PredictorKind::DecisionTree);
    savePredictor(*tree, PredictorKind::DecisionTree, out);
    std::string text = out.str();
    text[text.size() - 1] ^= 0x04; // flip one payload bit

    std::istringstream in(text);
    Result<uint64_t> epoch =
        registry.load(PredictorKind::DecisionTree, in);
    ASSERT_FALSE(epoch.ok());
    EXPECT_EQ(registry.loadFailures(), 1u);
    // Implicit rollback: the active snapshot and epoch never moved.
    EXPECT_EQ(registry.current(), before);
    EXPECT_EQ(registry.epoch(), 1u);
}

TEST_F(ServeRegistryTest, SaveActiveLoadFromRoundTripsAtomically)
{
    const std::string path =
        testing::TempDir() + "hm_registry_model.bin";
    std::remove(path.c_str());

    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    Result<uint64_t> saved = registry.saveActive(path);
    ASSERT_TRUE(saved.ok()) << saved.error().toString();
    EXPECT_EQ(saved.value(), 1u);

    // A fresh registry restores the model (and its kind) from disk.
    ModelRegistry other(pair_, oracle_);
    other.publish(PredictorKind::LinearRegression,
                  makePredictor(PredictorKind::LinearRegression));
    Result<uint64_t> loaded = other.loadFrom(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().toString();
    EXPECT_EQ(loaded.value(), 2u);
    EXPECT_EQ(other.current()->kind, PredictorKind::DecisionTree);

    // No temp-file debris survives the rename.
    std::ifstream tmp_probe(path + ".tmp");
    EXPECT_FALSE(tmp_probe.is_open());
    std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, SaveActiveWithoutAModelIsRecoverable)
{
    ModelRegistry registry(pair_, oracle_);
    Result<uint64_t> saved =
        registry.saveActive(testing::TempDir() + "hm_never.bin");
    ASSERT_FALSE(saved.ok());
    EXPECT_EQ(saved.error().code, ErrorCode::Unavailable);
}

TEST_F(ServeRegistryTest, ChaosCorruptedFileLoadRollsBack)
{
    const std::string path =
        testing::TempDir() + "hm_registry_chaos.bin";
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    ASSERT_TRUE(registry.saveActive(path).ok());

    auto chaos = std::make_shared<ChaosPolicy>(11);
    ChaosSpec spec;
    spec.point = ChaosPoint::ModelLoadCorrupt;
    spec.probability = 1.0;
    spec.endVisit = 1; // corrupt exactly the first load
    chaos->arm(spec);
    registry.setChaosPolicy(chaos);

    Result<uint64_t> first = registry.loadFrom(path);
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(registry.loadFailures(), 1u);
    EXPECT_EQ(registry.epoch(), 1u); // rollback kept the epoch

    // The window has passed; the same file now loads cleanly and
    // the epoch resumes its monotone climb.
    Result<uint64_t> second = registry.loadFrom(path);
    ASSERT_TRUE(second.ok()) << second.error().toString();
    EXPECT_EQ(second.value(), 2u);
    EXPECT_EQ(chaos->fires(ChaosPoint::ModelLoadCorrupt), 1u);
    std::remove(path.c_str());
}

TEST_F(ServeRegistryTest, SnapshotPinsTheModelAcrossAPublish)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    auto pinned = registry.current();
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));
    // The reader's snapshot is untouched by the swap.
    EXPECT_EQ(pinned->epoch, 1u);
    EXPECT_NE(pinned->framework, nullptr);
    EXPECT_EQ(registry.current()->epoch, 2u);
}

TEST_F(ServeRegistryTest, ConcurrentPublishAndReadIsSafe)
{
    ModelRegistry registry(pair_, oracle_);
    registry.publish(PredictorKind::DecisionTree,
                     makePredictor(PredictorKind::DecisionTree));

    std::atomic<bool> stop{false};
    std::thread reader([&] {
        uint64_t last = 0;
        while (!stop.load()) {
            auto snapshot = registry.current();
            ASSERT_NE(snapshot, nullptr);
            // Never torn: the bundle is consistent and the epoch
            // only moves forward.
            ASSERT_NE(snapshot->framework, nullptr);
            ASSERT_GE(snapshot->epoch, last);
            last = snapshot->epoch;
        }
    });
    for (int i = 0; i < 50; ++i) {
        registry.publish(PredictorKind::DecisionTree,
                         makePredictor(PredictorKind::DecisionTree));
    }
    stop.store(true);
    reader.join();
    EXPECT_EQ(registry.epoch(), 51u);
}

/* ------------------------------------------------------------------ */
/* PredictionService                                                  */
/* ------------------------------------------------------------------ */

class ServeServiceTest : public ::testing::Test
{
  protected:
    ServeServiceTest()
    {
        setLogVerbose(false);
        registry_.publish(PredictorKind::DecisionTree,
                          makePredictor(PredictorKind::DecisionTree));
    }

    Oracle oracle_;
    AcceleratorPair pair_ = pinnedPair(primaryPair());
    ModelRegistry registry_{pair_, oracle_};

    std::shared_ptr<const Workload> pagerank_ = sharedWorkload("PR");
    std::shared_ptr<const Workload> bfs_ = sharedWorkload("BFS");
    std::shared_ptr<const Graph> mesh_ =
        sharedGraph(generateMesh(256, 4, 1));
    std::shared_ptr<const Graph> star_ =
        sharedGraph(generateStar(128));
};

TEST_F(ServeServiceTest, ServesConcurrentRequestsToCompletion)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);
    EXPECT_EQ(service.workers(), 2u);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 8; ++i) {
        futures.push_back(service.submit(makeRequest(
            pagerank_, (i % 2 == 0) ? mesh_ : star_, "mesh")));
    }
    for (auto &future : futures) {
        ServeResponse response = future.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_EQ(response.modelEpoch, 1u);
        EXPECT_GE(response.batchSize, 1u);
    }
    service.close();
    EXPECT_EQ(service.submitted(), 8u);
    EXPECT_EQ(service.completed(), 8u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, BatchedResponsesMatchUnbatched)
{
    // Unbatched reference: every request measured + featurized +
    // inferred on its own.
    std::vector<ServeResponse> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 1;
        PredictionService service(registry_, options);
        for (const auto &workload : {pagerank_, bfs_}) {
            for (const auto &graph : {mesh_, star_}) {
                reference.push_back(
                    service
                        .submit(makeRequest(workload, graph, "g"))
                        .get());
            }
        }
    }

    // Batched run over the same requests.
    std::vector<ServeResponse> batched;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 8;
        options.maxBatchDelayMs = 50.0;
        PredictionService service(registry_, options);
        std::vector<std::future<ServeResponse>> futures;
        for (const auto &workload : {pagerank_, bfs_})
            for (const auto &graph : {mesh_, star_})
                futures.push_back(
                    service.submit(makeRequest(workload, graph, "g")));
        for (auto &future : futures)
            batched.push_back(future.get());
    }

    ASSERT_EQ(reference.size(), batched.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        const ServeResponse &a = reference[i];
        const ServeResponse &b = batched[i];
        EXPECT_EQ(a.status, ServeStatus::Ok);
        EXPECT_EQ(b.status, ServeStatus::Ok);
        // Byte-identical prediction and modelled execution: batching
        // is an amortization, never an approximation.
        EXPECT_EQ(a.deployment.config, b.deployment.config);
        EXPECT_EQ(0, std::memcmp(a.deployment.predicted.m.data(),
                                 b.deployment.predicted.m.data(),
                                 sizeof(double) *
                                     a.deployment.predicted.m.size()));
        EXPECT_EQ(a.deployment.report.seconds,
                  b.deployment.report.seconds);
        EXPECT_EQ(a.deployment.report.joules,
                  b.deployment.report.joules);
    }
}

/** Bit-level equality of the served prediction and modelled run. */
void
expectSameDeployment(const Deployment &a, const Deployment &b)
{
    EXPECT_EQ(a.config, b.config);
    EXPECT_EQ(0, std::memcmp(a.predicted.m.data(), b.predicted.m.data(),
                             sizeof(double) * a.predicted.m.size()));
    EXPECT_EQ(0, std::memcmp(&a.report.seconds, &b.report.seconds,
                             sizeof(double)));
    EXPECT_EQ(0, std::memcmp(&a.report.joules, &b.report.joules,
                             sizeof(double)));
}

TEST_F(ServeServiceTest, ParameterizedWorkloadsDoNotShareABatchGroup)
{
    // PageRank() and PageRank(0.5, 2) share the name "PR". Grouping a
    // batch by name would serve the second the first one's case.
    const auto standard = std::make_shared<const PageRank>();
    const auto short_run = std::make_shared<const PageRank>(0.5, 2);

    std::vector<ServeResponse> reference;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 1;
        PredictionService service(registry_, options);
        for (const auto &workload : {standard, short_run})
            reference.push_back(
                service.submit(makeRequest(workload, mesh_, "g")).get());
    }

    std::vector<ServeResponse> batched;
    {
        ServiceOptions options;
        options.workers = 1;
        options.maxBatch = 8;
        options.maxBatchDelayMs = 50.0;
        PredictionService service(registry_, options);
        std::vector<std::future<ServeResponse>> futures;
        for (const auto &workload : {standard, short_run})
            futures.push_back(
                service.submit(makeRequest(workload, mesh_, "g")));
        for (auto &future : futures)
            batched.push_back(future.get());
    }

    ASSERT_EQ(batched.size(), 2u);
    EXPECT_EQ(batched[0].batchSize, 2u);
    EXPECT_NE(reference[0].deployment.report.seconds,
              reference[1].deployment.report.seconds);
    for (std::size_t i = 0; i < 2; ++i) {
        ASSERT_EQ(batched[i].status, ServeStatus::Ok);
        expectSameDeployment(reference[i].deployment,
                             batched[i].deployment);
    }
}

TEST_F(ServeServiceTest, WarmProfileServesTheColdAnswer)
{
    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    options.statsMetricsPrefix.clear(); // detached, exact counters
    PredictionService service(registry_, options);

    const ServeResponse cold =
        service.submit(makeRequest(bfs_, star_, "g")).get();
    const ServeResponse warm =
        service.submit(makeRequest(bfs_, star_, "g")).get();
    ASSERT_EQ(cold.status, ServeStatus::Ok);
    ASSERT_EQ(warm.status, ServeStatus::Ok);
    expectSameDeployment(cold.deployment, warm.deployment);
    EXPECT_EQ(service.profileMisses(), 1u);
    EXPECT_EQ(service.profileHits(), 1u);

    // And both equal the uncached reference constructor's answer.
    const HeteroMap &framework = *registry_.current()->framework;
    const Deployment reference = framework.deploy(
        makeCase(*bfs_, *star_, "g", measureGraph(*star_)));
    expectSameDeployment(reference, warm.deployment);
}

TEST_F(ServeServiceTest, ProfileShardsCountExactlyIntoStatusz)
{
    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    options.statsShards = 2;
    options.statsMetricsPrefix = "serve.shard7.stats_cache";
    const uint64_t hits_before =
        telemetry::registry()
            .counter("serve.shard7.profile_cache.hits")
            .value();
    const uint64_t misses_before =
        telemetry::registry()
            .counter("serve.shard7.profile_cache.misses")
            .value();
    PredictionService service(registry_, options);

    // Three distinct (workload, graph) pairs, each served three times.
    for (int round = 0; round < 3; ++round) {
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
        service.submit(makeRequest(bfs_, mesh_, "g")).get();
        service.submit(makeRequest(bfs_, star_, "g")).get();
    }
    service.close();

    EXPECT_EQ(service.profileMisses() - misses_before, 3u);
    EXPECT_EQ(service.profileHits() - hits_before, 6u);
    const ServiceStatus status = service.statusz();
    EXPECT_EQ(status.profileHits, service.profileHits());
    EXPECT_EQ(status.profileMisses, service.profileMisses());
    EXPECT_EQ(status.profileHits,
              telemetry::registry()
                  .counter("serve.shard7.profile_cache.hits")
                  .value());
    EXPECT_NE(statuszJson(status).find("\"profile_cache\":{\"hits\":"),
              std::string::npos);
    EXPECT_NE(statuszText(status).find("profile_cache: hits="),
              std::string::npos);
}

TEST_F(ServeServiceTest, ProfilePrefixFollowsTheStatsPrefix)
{
    EXPECT_EQ(profileMetricsPrefix("serve.stats_cache"),
              "serve.profile_cache");
    EXPECT_EQ(profileMetricsPrefix("serve.shard3.stats_cache"),
              "serve.shard3.profile_cache");
    EXPECT_EQ(profileMetricsPrefix("tenant.a"), "tenant.a.profile_cache");
    EXPECT_EQ(profileMetricsPrefix(""), "");
}

TEST_F(ServeServiceTest, RacingProfileMissesServeOneAnswer)
{
    ServiceOptions options;
    options.workers = 4;
    options.maxBatch = 1; // every request is its own batch: real races
    PredictionService service(registry_, options);
    const auto graph = sharedGraph(generateRmat(10, 8.0, 5));

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 16; ++i)
        futures.push_back(service.submit(makeRequest(bfs_, graph, "g")));
    std::vector<ServeResponse> responses;
    for (auto &future : futures)
        responses.push_back(future.get());
    for (const ServeResponse &response : responses) {
        ASSERT_EQ(response.status, ServeStatus::Ok);
        expectSameDeployment(responses.front().deployment,
                             response.deployment);
    }
}

TEST_F(ServeServiceTest, BlockModeNeverDropsARequest)
{
    ServiceOptions options;
    options.workers = 2;
    options.queueCapacity = 2; // force backpressure
    options.admission = AdmissionPolicy::Block;
    PredictionService service(registry_, options);

    constexpr int kThreads = 3;
    constexpr int kPerThread = 6;
    std::atomic<int> ok{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < kThreads; ++t) {
        clients.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                ServeResponse response =
                    service
                        .submit(makeRequest(
                            pagerank_, (t + i) % 2 ? mesh_ : star_,
                            "g"))
                        .get();
                if (response.status == ServeStatus::Ok)
                    ok.fetch_add(1);
            }
        });
    }
    for (auto &client : clients)
        client.join();
    service.close();

    EXPECT_EQ(ok.load(), kThreads * kPerThread);
    EXPECT_EQ(service.submitted(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(service.completed(),
              static_cast<uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, RejectModeAccountsShedsExactly)
{
    const uint64_t counter_before =
        telemetry::registry().counter("serve.shed").value();

    ServiceOptions options;
    options.workers = 1;
    options.queueCapacity = 1;
    options.maxBatch = 1;
    options.admission = AdmissionPolicy::Reject;
    PredictionService service(registry_, options);

    constexpr int kBurst = 32;
    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < kBurst; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    uint64_t ok = 0, shed = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status == ServeStatus::Ok) {
            ++ok;
        } else {
            ASSERT_EQ(response.status, ServeStatus::Shed);
            EXPECT_EQ(response.shedReason, ShedReason::QueueFull);
            ++shed;
        }
    }
    service.close();

    // The burst outruns a single worker whose service time is a
    // real measurement + featurize: some requests must shed.
    EXPECT_GT(shed, 0u);
    EXPECT_EQ(ok + shed, static_cast<uint64_t>(kBurst));
    EXPECT_EQ(service.shed(), shed);
    EXPECT_EQ(service.completed(), ok);
    EXPECT_EQ(service.submitted(), static_cast<uint64_t>(kBurst));
    // serve.shed accounts every shed request exactly.
    EXPECT_EQ(telemetry::registry().counter("serve.shed").value() -
                  counter_before,
              shed);
}

TEST_F(ServeServiceTest, ExpiredDeadlineIsShedAtDequeue)
{
    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    PredictionService service(registry_, options);

    // Four un-deadlined requests keep the single worker busy for
    // several real measurements...
    std::vector<std::future<ServeResponse>> head;
    for (int i = 0; i < 4; ++i)
        head.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    // ...so this one, parked behind them with a microscopic budget,
    // has long expired when a worker finally reaches it.
    ServeRequest hurried = makeRequest(bfs_, star_, "g");
    hurried.deadlineMs = 0.001;
    ServeResponse response = service.submit(hurried).get();
    EXPECT_EQ(response.status, ServeStatus::Shed);
    EXPECT_EQ(response.shedReason, ShedReason::DeadlineExpired);

    for (auto &future : head)
        EXPECT_EQ(future.get().status, ServeStatus::Ok);
    service.close();
    EXPECT_EQ(service.shed(), 1u);
    EXPECT_EQ(service.completed(), 4u);
}

TEST_F(ServeServiceTest, HotSwapLandsMidTrafficWithoutDrops)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    // Swap while traffic is in flight, then prove the new epoch is
    // what later requests observe.
    registry_.publish(PredictorKind::DecisionTree,
                      makePredictor(PredictorKind::DecisionTree));
    service.drain();
    ServeResponse after =
        service.submit(makeRequest(pagerank_, star_, "g")).get();
    EXPECT_EQ(after.status, ServeStatus::Ok);
    EXPECT_EQ(after.modelEpoch, 2u);

    for (auto &future : futures) {
        ServeResponse response = future.get();
        EXPECT_EQ(response.status, ServeStatus::Ok);
        EXPECT_GE(response.modelEpoch, 1u);
        EXPECT_LE(response.modelEpoch, 2u);
    }
    service.close();
    EXPECT_EQ(service.shed(), 0u);
    EXPECT_EQ(service.completed(), 7u);
}

TEST_F(ServeServiceTest, ConcurrentHotSwapIsTornFree)
{
    ServiceOptions options;
    options.workers = 2;
    PredictionService service(registry_, options);

    std::thread publisher([&] {
        for (int i = 0; i < 10; ++i) {
            registry_.publish(
                PredictorKind::DecisionTree,
                makePredictor(PredictorKind::DecisionTree));
            std::this_thread::sleep_for(
                std::chrono::milliseconds(1));
        }
    });

    for (int i = 0; i < 12; ++i) {
        ServeResponse response =
            service
                .submit(makeRequest(pagerank_,
                                    i % 2 ? mesh_ : star_, "g"))
                .get();
        ASSERT_EQ(response.status, ServeStatus::Ok);
        ASSERT_GE(response.modelEpoch, 1u);
        ASSERT_LE(response.modelEpoch, 11u);
    }
    publisher.join();
    service.close();
    EXPECT_EQ(registry_.epoch(), 11u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, SupervisedLaneAttachesTheOutcome)
{
    PredictionService service(registry_);
    ServeRequest request = makeRequest(pagerank_, mesh_, "g");
    request.supervised = true;
    ServeResponse response = service.submit(request).get();
    EXPECT_EQ(response.status, ServeStatus::Ok);
    ASSERT_TRUE(response.outcome.has_value());
    EXPECT_TRUE(response.outcome->completed);
    // No faults injected: the initial attempt passes the check.
    EXPECT_TRUE(response.outcome->withinTolerance);
}

TEST_F(ServeServiceTest, StatsShardsAggregateIntoOneCounter)
{
    const uint64_t hits_before =
        telemetry::registry()
            .counter("serve.stats_cache.hits")
            .value();
    const uint64_t misses_before =
        telemetry::registry()
            .counter("serve.stats_cache.misses")
            .value();

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1; // one measurement per request
    options.statsShards = 2;
    PredictionService service(registry_, options);

    // Two distinct graphs -> two cold misses; every repeat is a hit,
    // whichever shard the fingerprint lands on.
    for (int i = 0; i < 6; ++i)
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    for (int i = 0; i < 2; ++i)
        service.submit(makeRequest(pagerank_, star_, "g")).get();
    service.close();

    EXPECT_EQ(service.statsMisses() - misses_before, 2u);
    EXPECT_EQ(service.statsHits() - hits_before, 6u);
    // The accessors read the same shared registry counters the
    // prefix wired up — the accounting a private, prefix-less cache
    // would have dropped.
    EXPECT_EQ(service.statsHits(),
              telemetry::registry()
                  .counter("serve.stats_cache.hits")
                  .value());
}

TEST_F(ServeServiceTest, CloseIsIdempotentAndRefusesLateWork)
{
    PredictionService service(registry_);
    ServeResponse warm =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(warm.status, ServeStatus::Ok);

    service.close();
    service.close(); // idempotent

    ServeResponse late =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(late.status, ServeStatus::Closed);
    EXPECT_EQ(service.completed(), 1u);
    EXPECT_EQ(service.shed(), 0u);
}

TEST_F(ServeServiceTest, WorkerExceptionFailsOnlyItsBatch)
{
    // Regression: an exception during measure/featurize/infer used
    // to escape the worker loop, killing the worker silently and
    // leaving its batch's futures broken. It must fail exactly that
    // batch — structured error, worker alive, gauge intact.
    auto chaos = std::make_shared<ChaosPolicy>(3);
    ChaosSpec spec;
    spec.point = ChaosPoint::WorkerStall;
    spec.probability = 1.0;
    spec.endVisit = 1; // the first batch only
    chaos->arm(spec);
    chaos->setHook(ChaosPoint::WorkerStall, [](const ChaosAction &) {
        throw std::runtime_error("featurize blew up");
    });

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 1;
    options.chaos = chaos;
    options.watchdog.enabled = false; // isolate the exception path
    PredictionService service(registry_, options);

    ServeResponse failed =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(failed.status, ServeStatus::Error);
    ASSERT_TRUE(failed.error.has_value());
    EXPECT_NE(failed.error->message.find("featurize blew up"),
              std::string::npos);
    EXPECT_NE(failed.error->toString().find("unavailable"),
              std::string::npos);

    // The worker survived and serves the next request normally.
    ServeResponse ok =
        service.submit(makeRequest(pagerank_, mesh_, "g")).get();
    EXPECT_EQ(ok.status, ServeStatus::Ok);
    service.close();

    EXPECT_EQ(service.errorResponses(), 1u);
    EXPECT_EQ(service.batchFailures(), 1u);
    EXPECT_EQ(service.completed(), 1u);
    // The failed batch was popped like any other: the depth gauge
    // drains back to zero instead of leaking the crashed request.
    EXPECT_EQ(
        telemetry::registry().gauge("serve.queue_depth").value(),
        0.0);
}

TEST_F(ServeServiceTest, WorkerExceptionFailsWholeBatchPromises)
{
    // A batch of several coalesced requests crashes mid-serve: every
    // member gets a ready Error future — no promise is broken and
    // none is consumed twice.
    auto chaos = std::make_shared<ChaosPolicy>(5);
    ChaosSpec spec;
    spec.point = ChaosPoint::WorkerCrashBatch;
    spec.probability = 1.0;
    spec.endVisit = 1;
    chaos->arm(spec);

    ServiceOptions options;
    options.workers = 1;
    options.maxBatch = 8;
    options.maxBatchDelayMs = 50.0;
    options.chaos = chaos;
    options.watchdog.enabled = false;
    PredictionService service(registry_, options);

    std::vector<std::future<ServeResponse>> futures;
    for (int i = 0; i < 4; ++i)
        futures.push_back(
            service.submit(makeRequest(pagerank_, mesh_, "g")));

    std::size_t errors = 0, oks = 0;
    for (auto &future : futures) {
        ServeResponse response = future.get();
        if (response.status == ServeStatus::Error) {
            ASSERT_TRUE(response.error.has_value());
            ++errors;
        } else {
            EXPECT_EQ(response.status, ServeStatus::Ok);
            ++oks;
        }
    }
    service.close();
    // At least the first-popped batch crashed; everything submitted
    // got a terminal answer.
    EXPECT_GE(errors, 1u);
    EXPECT_EQ(errors + oks, 4u);
    EXPECT_EQ(service.errorResponses(), errors);
}

} // namespace
} // namespace serve
} // namespace heteromap
