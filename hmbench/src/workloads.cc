#include "workloads.hh"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "arch/presets.hh"
#include "core/experiment.hh"
#include "core/heteromap.hh"
#include "features/ivars.hh"
#include "graph/datasets.hh"
#include "graph/stats_cache.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "net/wire.hh"
#include "serve/model_registry.hh"
#include "serve/prediction_service.hh"
#include "util/thread_pool.hh"
#include "workloads/registry.hh"

#include "plan.hh"
#include "spans.hh"
#include "stats.hh"

namespace hmbench {

using namespace heteromap;

namespace {

/**
 * Open-loop rate for net-zipf-hot's latency phase, requests/s: about a
 * sixth of the ~1.5k req/s knee, so the phase stays below capacity
 * when the host is slow and queueing does not multiply the noise.
 */
constexpr double kNetRate = 250.0;
/** Where the net.max_rps_slo ladder starts. */
constexpr double kSloLadderStart = 500.0;
constexpr std::size_t kNetSenders = 4;
/** net.max_rps_slo: p99 limit from the due time, and backlog bound. */
constexpr double kSloP99Ms = 50.0;
constexpr double kSloAchievedShare = 0.98;

constexpr std::size_t kColdCallers = 2;
constexpr std::size_t kColdBatch = kColdBlock;
/** Threads for untimed work: generation, references, nothing timed. */
constexpr std::size_t kHelperThreads = 4;

const char *const kNotOnPath = "not on this workload's path";

double
msBetween(int64_t from_ns, int64_t to_ns)
{
    return static_cast<double>(to_ns - from_ns) / 1e6;
}

double
secondsSince(int64_t from_ns)
{
    return msBetween(from_ns, nowNs()) / 1e3;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Untimed parallel work on a pool that lives as long as the run. */
void
parallelFor(std::size_t n, const std::function<void(std::size_t)> &body)
{
    static ThreadPool helpers(kHelperThreads);
    helpers.parallelFor(n, body);
}

std::unique_ptr<HeteroMap>
makeFramework(const Oracle &oracle)
{
    return std::make_unique<HeteroMap>(
        pinnedPair(primaryPair()),
        makePredictor(PredictorKind::DecisionTree), oracle);
}

/** One request as the client saw it. */
struct Served {
    bool ok = false;
    bool shed = false;
    int64_t dueNs = 0;  //!< open loop: scheduled send; closed: send
    int64_t sentNs = 0;
    int64_t doneNs = 0;
    double queueMs = 0.0;
    double serviceMs = 0.0;
    double overheadMs = 0.0; //!< Deployment::overheadMs
    std::size_t batchSize = 0;
    Answer answer;
    std::size_t item = 0; //!< pair / cold index / combo index

    /** Due-time latency; a failed or shed request never meets a limit. */
    double latencyMs() const
    {
        return ok ? msBetween(dueNs, doneNs) : kFailed;
    }
};

void
recordResponse(Served &out, const serve::ServeResponse &response)
{
    out.ok = response.status == serve::ServeStatus::Ok;
    out.shed = response.status == serve::ServeStatus::Shed;
    out.queueMs = response.queueMs;
    out.serviceMs = response.serviceMs;
    out.overheadMs = response.deployment.overheadMs;
    out.batchSize = response.batchSize;
    if (out.ok)
        out.answer = answerOf(response.deployment);
}

std::vector<double>
latencies(const std::vector<Served> &served)
{
    std::vector<double> out;
    out.reserve(served.size());
    for (const Served &s : served)
        out.push_back(s.latencyMs());
    return out;
}

/** Count @p served into @p tally against the per-item references. */
void
tallyServed(const std::vector<Served> &served,
            const std::function<Answer(std::size_t)> &expected,
            Tally &tally, bool count_sheds = true)
{
    for (const Served &s : served) {
        if (s.ok) {
            ++tally.attempted;
            tally.checkOk(expected(s.item), s.answer);
        } else if (s.shed) {
            if (count_sheds) {
                ++tally.attempted;
                ++tally.shed;
            }
        } else {
            ++tally.attempted;
            ++tally.errors;
        }
    }
}

void
addEndToEnd(Report &report, double setup_s, double throughput_rps,
            const std::vector<Served> &served,
            const std::vector<double> &modelled_seconds)
{
    const std::vector<double> lat = latencies(served);
    std::size_t ok = 0;
    for (const Served &s : served)
        ok += s.ok;
    report.add("setup_s", setup_s, "s", 1);
    report.add("throughput_rps", throughput_rps, "1/s", ok);
    report.addPercentile("lat_p50_ms", percentile(lat, 0.50), "ms");
    report.addPercentile("lat_p99_ms", percentile(lat, 0.99), "ms");
    report.add("modelled_s_gmean", geometricMean(modelled_seconds), "s",
               modelled_seconds.size());
    report.add("peak_rss_mb", peakRssMb(), "MB", 1);
}

/**
 * Close the set-up: setup_s runs from process start to here, the first
 * timed request. A --setup-only run reports it and stops.
 */
double
endSetUp(const RunOptions &options, Report &report)
{
    const double setup_s = secondsSince(options.processStartNs);
    report.property("seed", std::to_string(options.seed));
    if (options.setupOnly)
        report.add("setup_s", setup_s, "s", 1);
    return setup_s;
}

void
addHitRatio(Report &report, uint64_t hits, uint64_t misses)
{
    report.add("graph.stats_hit_ratio",
               hits + misses ? static_cast<double>(hits) /
                                   static_cast<double>(hits + misses)
                             : 0.0,
               "ratio", hits + misses);
}

void
absent(Report &report, const std::string &name, const std::string &unit)
{
    report.add(name, 0.0, unit, 0, kNotOnPath);
}

std::string
fixed(double value, int digits = 4)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(digits);
    out << value;
    return out.str();
}

/**
 * Serving-layer metrics read off the responses: the net tier's share
 * of the round trip (net only), queue wait, service time, batch size,
 * predictor overhead, and how late an open-loop generator ran.
 */
void
addServedLayers(Report &report, const std::vector<Served> &served,
                bool net, bool service, bool open_loop)
{
    std::vector<double> overhead, queue, service_ms, batch, predict,
        wall, late;
    for (const Served &s : served) {
        if (open_loop)
            late.push_back(msBetween(s.dueNs, s.sentNs));
        if (!s.ok)
            continue;
        overhead.push_back(msBetween(s.sentNs, s.doneNs) - s.queueMs -
                           s.serviceMs);
        queue.push_back(s.queueMs);
        service_ms.push_back(s.serviceMs);
        batch.push_back(static_cast<double>(s.batchSize));
        predict.push_back(s.overheadMs);
        wall.push_back(msBetween(s.sentNs, s.doneNs));
    }
    if (net) {
        report.addPercentile("net.overhead_ms.p50",
                             percentile(overhead, 0.50), "ms");
        report.addPercentile("net.overhead_ms.p99",
                             percentile(overhead, 0.99), "ms");
    } else {
        absent(report, "net.overhead_ms.p50", "ms");
        absent(report, "net.overhead_ms.p99", "ms");
    }
    if (service) {
        report.addPercentile("serve.queue_wait_ms.p50",
                             percentile(queue, 0.50), "ms");
        report.addPercentile("serve.queue_wait_ms.p99",
                             percentile(queue, 0.99), "ms");
        report.addPercentile("serve.service_ms.p50",
                             percentile(service_ms, 0.50), "ms");
        report.addPercentile("serve.service_ms.p99",
                             percentile(service_ms, 0.99), "ms");
        report.add("serve.batch_size.mean", mean(batch), "count",
                   batch.size());
    } else {
        absent(report, "serve.queue_wait_ms.p50", "ms");
        absent(report, "serve.queue_wait_ms.p99", "ms");
        absent(report, "serve.service_ms.p50", "ms");
        absent(report, "serve.service_ms.p99", "ms");
        absent(report, "serve.batch_size.mean", "count");
    }
    const Percentile overhead_p50 = percentile(predict, 0.50);
    report.add("core.predict_overhead_ms", overhead_p50.value, "ms",
               overhead_p50.samples,
               "median; median wall time per call " +
                   fixed(percentile(wall, 0.50).value) + " ms");
    if (open_loop)
        report.addPercentile("bench.gen_late_ms.p99",
                             percentile(late, 0.99), "ms");
    else
        absent(report, "bench.gen_late_ms.p99", "ms");
}

// --- Layer replay -----------------------------------------------------

/** One served request to replay through the layer functions. */
struct ReplayItem {
    const Workload *workload = nullptr;
    const Graph *graph = nullptr;
    std::string input;
    std::size_t batch = 1;
    double servedMs = 0.0; //!< this request's share of the served time
    Answer served;
    uint64_t id = 0;
};

struct ReplayStats {
    std::vector<double> codecUs, fingerprintUs, measureMs, profileMs,
        featurizeUs, inferUs, oracleUs;
    double servedMs = 0.0;
    std::size_t replayed = 0;
    std::size_t mismatches = 0; //!< replayed answer != served answer
};

/** Layers whose replayed calls run inside the served time. */
const char *const kServiceLayers[] = {"graph", "workloads", "features",
                                      "model", "arch"};
const char *const kReplayLayers[] = {"net",      "graph", "workloads",
                                     "features", "model", "arch"};

volatile uint64_t g_sink = 0; //!< keeps replayed results observable

/**
 * Replay one request's (workload, graph) through each layer's public
 * function, one span per call under a "bench.replay" root.
 */
void
replayOne(const ReplayItem &item, bool net, const HeteroMap &framework,
          const MeasureOptions &measure, GraphStatsCache &cache,
          SpanRecorder &spans, ReplayStats &stats)
{
    const std::size_t root =
        spans.begin("bench.replay", kNoParent, item.id);
    auto timed = [&](const char *name, auto &&call) {
        const int64_t start = nowNs();
        call();
        const int64_t end = nowNs();
        spans.add({name, start, end, root, item.id, 0});
        return static_cast<double>(end - start) / 1e3; // microseconds
    };

    const std::string workload_name = item.workload->name();
    if (net) {
        stats.codecUs.push_back(timed("net.codec", [&] {
            net::WireRequest request;
            request.sweeps = measure.sweeps;
            request.seed = measure.seed;
            request.workload = workload_name;
            request.graph = item.input;
            std::string frame;
            net::encodeRequest(item.id, request, frame);
            auto decoded = net::decodeRequest(
                std::string_view(frame).substr(net::kHeaderBytes));
            net::WireResponse response;
            response.accelerator =
                static_cast<uint8_t>(item.served.accelerator);
            response.threads = item.served.threads;
            response.predictedSeconds = item.served.seconds;
            std::string reply;
            net::encodeResponse(item.id, response, reply);
            auto back = net::decodeResponse(
                std::string_view(reply).substr(net::kHeaderBytes));
            g_sink = g_sink + decoded.ok() + back.ok();
        }));
    }
    stats.fingerprintUs.push_back(timed("graph.fingerprint", [&] {
        g_sink = g_sink + mixFingerprint(fingerprintGraph(*item.graph));
    }));
    GraphStats graph_stats;
    stats.measureMs.push_back(
        timed("graph.measure",
              [&] { graph_stats = cache.measure(*item.graph, measure); }) /
        1e3);
    std::pair<WorkloadOutput, WorkloadProfile> run;
    stats.profileMs.push_back(
        timed("workloads.profile",
              [&] { run = item.workload->runProfiled(*item.graph); }) /
        1e3);
    FeatureVector features;
    stats.featurizeUs.push_back(timed("features.featurize", [&] {
        features.b = item.workload->bVariables();
        features.i = extractIVariables(graph_stats);
    }));
    MConfig config;
    std::vector<FeatureVector> batch(std::max<std::size_t>(1, item.batch),
                                     features);
    std::vector<NormalizedMVector> predicted(batch.size());
    stats.inferUs.push_back(timed("model.infer", [&] {
        framework.predictor().predictBatch(batch, predicted);
        config = deployNormalized(predicted.front(), framework.pair());
    }) / static_cast<double>(batch.size()));
    BenchmarkCase bench;
    bench.workloadName = workload_name;
    bench.inputName = item.input;
    bench.features = features;
    bench.profile = std::move(run.second);
    bench.output = std::move(run.first);
    bench.shapeStats = graph_stats;
    bench.scaleStats = graph_stats;
    ExecutionReport modelled;
    stats.oracleUs.push_back(timed("arch.oracle", [&] {
        modelled = framework.oracle().run(bench, framework.pair(), config);
    }));
    spans.end(root);

    Answer replayed;
    replayed.accelerator = config.accelerator;
    replayed.threads = static_cast<uint32_t>(config.activeThreads());
    replayed.seconds = modelled.seconds;
    if (!sameAnswer(replayed, item.served))
        ++stats.mismatches;
    stats.servedMs += item.servedMs;
    ++stats.replayed;
}

/**
 * Per-layer metrics of the traced run: replayed call times, self
 * time per layer, the share of served time the replay leaves
 * unattributed, and the tracing overhead on lat_p50_ms.
 */
void
addReplayLayers(Report &report, const ReplayStats &stats,
                const std::vector<Span> &spans, bool net,
                double untraced_p50_ms, double traced_p50_ms)
{
    auto med = [&](const std::string &name,
                   const std::vector<double> &samples,
                   const std::string &unit) {
        report.addPercentile(name, percentile(samples, 0.50), unit);
    };
    if (net)
        med("net.codec_us", stats.codecUs, "us");
    else
        absent(report, "net.codec_us", "us");
    med("graph.fingerprint_us", stats.fingerprintUs, "us");
    med("graph.measure_ms", stats.measureMs, "ms");
    med("workloads.profile_ms", stats.profileMs, "ms");
    med("features.featurize_us", stats.featurizeUs, "us");
    med("model.infer_us", stats.inferUs, "us");
    med("arch.oracle_us", stats.oracleUs, "us");

    const auto self = selfTimeByLayerMs(spans);
    const double per = std::max<double>(1.0, stats.replayed);
    for (const char *layer : kReplayLayers) {
        const auto it = self.find(layer);
        report.add(std::string("trace.self_ms.") + layer,
                   it == self.end() ? 0.0 : it->second / per, "ms",
                   stats.replayed, "mean per replayed request");
    }
    double attributed = 0.0;
    for (const char *layer : kServiceLayers) {
        const auto it = self.find(layer);
        if (it != self.end())
            attributed += it->second;
    }
    report.add("bench.unattributed_frac",
               stats.servedMs > 0 ? 1.0 - attributed / stats.servedMs : 0.0,
               "ratio", stats.replayed,
               "1 - replayed self time / served time");
    report.add("bench.trace_overhead_frac",
               untraced_p50_ms > 0 ? traced_p50_ms / untraced_p50_ms - 1.0
                                   : 0.0,
               "ratio", 2, "traced / untraced lat_p50_ms - 1");
    if (stats.mismatches)
        report.property("replay_mismatches",
                        std::to_string(stats.mismatches));
}

void
writeTrace(const RunOptions &options, const SpanRecorder &served,
           const SpanRecorder &replay, Report &report)
{
    if (options.traceOut.empty())
        return;
    const bool ok = writeChromeTrace(
        options.traceOut, {{"served requests", served.snapshot()},
                           {"layer replay", replay.snapshot()}});
    report.property("trace_file",
                    ok ? options.traceOut : "write failed: " +
                                                options.traceOut);
}

void
addWorkingSet(Report &report, uint64_t distinct_bytes,
              uint64_t largest_bytes, std::size_t distinct_graphs)
{
    report.property("distinct_graphs", std::to_string(distinct_graphs));
    report.property("distinct_graph_bytes",
                    std::to_string(distinct_bytes) + " (" +
                        fixed(static_cast<double>(distinct_bytes) /
                                  static_cast<double>(kL2Bytes),
                              2) +
                        " x the 8 MiB L2)");
    report.property("largest_graph_bytes",
                    std::to_string(largest_bytes) +
                        (largest_bytes > kL2Bytes ? " (> L2)"
                                                  : " (fits L2)"));
}

// --- net-zipf-hot -----------------------------------------------------

struct NetFixture {
    NetPlan plan;
    MeasureOptions measure;
    std::vector<std::shared_ptr<const Graph>> graphs;
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    std::vector<Answer> expected; //!< per pair
    Oracle oracle;
    std::unique_ptr<HeteroMap> reference;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<net::NetServer> server;
    net::Endpoint endpoint;
};

/**
 * Sleep until shortly before @p due_ns, then spin to it: a sleeping
 * sender wakes late by the scheduler's wake-up latency, which would
 * otherwise be charged to every request's due-time latency.
 */
void
waitUntil(int64_t due_ns)
{
    constexpr int64_t kSpinNs = 200'000;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due_ns - kSpinNs)));
    while (nowNs() < due_ns) {
    }
}

/**
 * Open loop: request i of the window is due at t0 + i / rate and is
 * sent by sender i % kNetSenders on its own blocking connection, so a
 * slow answer delays that sender's later requests and the delay shows
 * in their due-time latency.
 */
std::vector<Served>
runOpenLoop(const NetFixture &fx, double rate, std::size_t first,
            std::size_t count, SpanRecorder *spans)
{
    std::vector<Served> served(count);
    const int64_t t0 = nowNs() + 20'000'000;
    const double interval_ns = 1e9 / rate;
    std::vector<std::thread> senders;
    for (std::size_t k = 0; k < kNetSenders; ++k) {
        senders.emplace_back([&, k] {
            net::NetClient client(fx.endpoint);
            for (std::size_t i = k; i < count; i += kNetSenders) {
                const NetRequest &planned =
                    fx.plan.requests[(first + i) % fx.plan.requests.size()];
                const Pair &pair = fx.plan.pairs[planned.pair];
                Served &out = served[i];
                out.item = planned.pair;
                out.dueNs =
                    t0 + static_cast<int64_t>(static_cast<double>(i) *
                                              interval_ns);
                waitUntil(out.dueNs);
                client.setClientId(planned.tenant);
                serve::ServeRequest request;
                request.workload = fx.workloads.at(pair.workload);
                request.inputName = fx.plan.catalogue[pair.graph].name;
                request.measure = fx.measure;
                out.sentNs = nowNs();
                const serve::ServeResponse response =
                    client.call(std::move(request));
                out.doneNs = nowNs();
                recordResponse(out, response);
                if (spans) {
                    const uint64_t id = first + i + 1;
                    const std::size_t root = spans->add(
                        {"bench.request", out.dueNs, out.doneNs,
                         kNoParent, id, static_cast<uint32_t>(k)});
                    const std::size_t call = spans->add(
                        {"net.call", out.sentNs, out.doneNs, root, id,
                         static_cast<uint32_t>(k)});
                    // The server reports durations, not instants: place
                    // queue then service mid-call, leaving the net
                    // tier's share split around them.
                    const int64_t queue_ns =
                        static_cast<int64_t>(out.queueMs * 1e6);
                    const int64_t service_ns =
                        static_cast<int64_t>(out.serviceMs * 1e6);
                    const int64_t start =
                        out.sentNs + std::max<int64_t>(
                                         0, (out.doneNs - out.sentNs -
                                             queue_ns - service_ns) /
                                                2);
                    spans->add({"serve.queue", start, start + queue_ns,
                                call, id, static_cast<uint32_t>(k)});
                    spans->add({"serve.service", start + queue_ns,
                                start + queue_ns + service_ns, call, id,
                                static_cast<uint32_t>(k)});
                }
            }
        });
    }
    for (auto &sender : senders)
        sender.join();
    return served;
}

/** OK answers per second of the send schedule the senders achieved. */
double
achievedRate(const std::vector<Served> &served, double rate)
{
    if (served.empty())
        return 0.0;
    int64_t first = served.front().dueNs, last_sent = 0;
    std::size_t ok = 0;
    for (const Served &s : served) {
        last_sent = std::max(last_sent, s.sentNs);
        ok += s.ok;
    }
    return static_cast<double>(ok) /
           (msBetween(first, last_sent) / 1e3 + 1.0 / rate);
}

bool
meetsSlo(const std::vector<Served> &served, double rate)
{
    const Percentile p99 = percentile(latencies(served), 0.99);
    return p99.supported() && p99.value <= kSloP99Ms &&
           achievedRate(served, rate) >= kSloAchievedShare * rate;
}

void
setUpNet(NetFixture &fx, uint64_t seed, std::size_t requests)
{
    fx.plan = makeNetPlan(seed, requests);
    fx.measure = measureOptionsFor(seed);
    for (const GraphSpec &spec : fx.plan.catalogue)
        fx.graphs.push_back(std::make_shared<const Graph>(makeGraph(spec)));
    for (const std::string &name : servingWorkloads())
        fx.workloads[name] = std::shared_ptr<const Workload>(
            makeWorkload(name));

    fx.reference = makeFramework(fx.oracle);
    fx.registry = std::make_unique<serve::ModelRegistry>(
        fx.reference->pair(), fx.oracle);
    fx.registry->publish(PredictorKind::DecisionTree,
                         makePredictor(PredictorKind::DecisionTree));

    net::ServerOptions options;
    options.endpoint = net::parseEndpoint("tcp:127.0.0.1:0").value();
    options.shards = 2;
    options.shard.workers = 2;
    options.admission.clientRatePerSec = 1e9; // no tenant is limited
    options.admission.clientBurst = 1e9;
    fx.server = std::make_unique<net::NetServer>(*fx.registry, options);
    for (std::size_t g = 0; g < fx.graphs.size(); ++g)
        fx.server->registerGraph(fx.plan.catalogue[g].name, fx.graphs[g]);
    auto bound = fx.server->start();
    if (!bound.ok())
        throw std::runtime_error("server start failed: " +
                                 bound.error().toString());
    fx.endpoint = bound.value();

    fx.expected.resize(fx.plan.pairs.size());
    parallelFor(fx.plan.pairs.size(), [&](std::size_t p) {
        const Pair &pair = fx.plan.pairs[p];
        fx.expected[p] = referenceAnswer(
            *fx.reference, *fx.workloads.at(pair.workload),
            *fx.graphs[pair.graph], fx.plan.catalogue[pair.graph].name,
            fx.measure);
    });
}

struct ShardCounts {
    std::vector<uint64_t> completed;
    uint64_t hits = 0, misses = 0;
};

ShardCounts
shardCounts(const net::NetServer &server)
{
    ShardCounts counts;
    for (const auto &status : server.shardStatuses()) {
        counts.completed.push_back(status.completed);
        counts.hits += status.statsHits;
        counts.misses += status.statsMisses;
    }
    return counts;
}

void
runNetZipfHot(const RunOptions &options, Report &report)
{
    const std::size_t count =
        static_cast<std::size_t>(std::ceil(kNetRate * options.seconds));
    NetFixture fx;
    setUpNet(fx, options.seed, count);
    auto answerFor = [&](std::size_t pair) { return fx.expected[pair]; };

    // Warm-up: every pair once, so the stats caches hold the catalogue.
    {
        net::NetClient client(fx.endpoint);
        std::vector<Served> warm(fx.plan.pairs.size());
        for (std::size_t p = 0; p < warm.size(); ++p) {
            serve::ServeRequest request;
            request.workload = fx.workloads.at(fx.plan.pairs[p].workload);
            request.inputName =
                fx.plan.catalogue[fx.plan.pairs[p].graph].name;
            request.measure = fx.measure;
            warm[p].item = p;
            recordResponse(warm[p], client.call(std::move(request)));
        }
        tallyServed(warm, answerFor, report.tally);
    }
    const double setup_s = endSetUp(options, report);
    if (options.setupOnly)
        return;

    const ShardCounts before = shardCounts(*fx.server);
    const std::vector<Served> served =
        runOpenLoop(fx, kNetRate, 0, count, nullptr);
    const ShardCounts after = shardCounts(*fx.server);
    tallyServed(served, answerFor, report.tally);

    std::vector<double> modelled;
    std::vector<std::string> keys;
    for (const Served &s : served) {
        keys.push_back(std::to_string(fx.plan.pairs[s.item].graph) + "/" +
                       fx.plan.pairs[s.item].workload);
        if (s.ok)
            modelled.push_back(s.answer.seconds);
    }
    uint64_t distinct_bytes = 0, largest = 0;
    for (const auto &graph : fx.graphs) {
        distinct_bytes += graph->footprintBytes();
        largest = std::max<uint64_t>(largest, graph->footprintBytes());
    }
    const double repeat = repeatShare(keys);
    report.property("workloads.repeat_share", fixed(repeat));
    addWorkingSet(report, distinct_bytes, largest, fx.graphs.size());
    report.property("offered_rate_rps", fixed(kNetRate, 1));

    addEndToEnd(report, setup_s, achievedRate(served, kNetRate), served,
                modelled);
    if (!options.trace)
        return;

    // --- per-layer metrics (traced run) ---
    addServedLayers(report, served, true, true, true);
    uint64_t total = 0, largest_shard = 0;
    for (std::size_t s = 0; s < after.completed.size(); ++s) {
        const uint64_t done = after.completed[s] - before.completed[s];
        total += done;
        largest_shard = std::max(largest_shard, done);
    }
    report.add("net.shard_max_share",
               total ? static_cast<double>(largest_shard) /
                           static_cast<double>(total)
                     : 0.0,
               "ratio", total);
    const uint64_t hits = after.hits - before.hits;
    const uint64_t misses = after.misses - before.misses;
    addHitRatio(report, hits, misses);
    report.add("workloads.repeat_share", repeat, "ratio", keys.size());

    // Capacity search: raise the offered rate until the SLO breaks,
    // then bisect. Probe sheds are the search's signal, not failures.
    std::size_t offset = count;
    Tally probes;
    auto probe = [&](double rate) {
        const std::size_t n = std::max<std::size_t>(
            1100, static_cast<std::size_t>(rate));
        const std::vector<Served> result =
            runOpenLoop(fx, rate, offset, n, nullptr);
        offset += n;
        tallyServed(result, answerFor, probes, false);
        const bool pass = meetsSlo(result, rate);
        report.property("slo_probe_rps_" + fixed(rate, 0),
                        pass ? "pass" : "fail");
        return pass;
    };
    double lo = meetsSlo(served, kNetRate) ? kNetRate : 0.0;
    double hi = 0.0;
    for (double rate = kSloLadderStart; hi == 0.0; rate *= 1.4) {
        if (probe(rate))
            lo = rate;
        else
            hi = rate;
        if (rate > 50'000)
            break;
    }
    for (int step = 0; step < 3 && hi > 0.0; ++step) {
        const double mid = (lo + hi) / 2;
        (probe(mid) ? lo : hi) = mid;
    }
    report.add("net.max_rps_slo", lo, "1/s", 1,
               "p99 <= 50 ms from due time, >= 98% of offered");
    report.tally.errors += probes.errors;
    report.tally.mismatches += probes.mismatches;

    // Traced pass at the fixed rate, then the layer replay.
    SpanRecorder served_spans, replay_spans;
    const std::size_t traced_count = count / 2;
    const std::vector<Served> traced =
        runOpenLoop(fx, kNetRate, offset, traced_count, &served_spans);
    tallyServed(traced, answerFor, report.tally);

    GraphStatsCache cache(2 * GraphStatsCache::kDefaultCapacity);
    ReplayStats stats;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const Served &s = traced[i];
        if (!s.ok)
            continue;
        const Pair &pair = fx.plan.pairs[s.item];
        ReplayItem item;
        item.workload = fx.workloads.at(pair.workload).get();
        item.graph = fx.graphs[pair.graph].get();
        item.input = fx.plan.catalogue[pair.graph].name;
        item.batch = s.batchSize;
        item.servedMs = s.serviceMs / std::max<double>(1, s.batchSize);
        item.served = s.answer;
        item.id = offset + i + 1;
        replayOne(item, true, *fx.reference, fx.measure, cache,
                  replay_spans, stats);
    }
    addReplayLayers(report, stats, replay_spans.snapshot(), true,
                    percentile(latencies(served), 0.5).value,
                    percentile(latencies(traced), 0.5).value);
    writeTrace(options, served_spans, replay_spans, report);
}

// --- inproc-cold ------------------------------------------------------

struct ColdItem {
    ColdRequest request;
    std::shared_ptr<const Graph> graph;
};

struct ColdFixture {
    uint64_t seed = 0;
    MeasureOptions measure;
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    Oracle oracle;
    std::unique_ptr<HeteroMap> reference;
    std::unique_ptr<serve::ModelRegistry> registry;
    std::unique_ptr<serve::PredictionService> service;
    std::size_t generated = 0; //!< cold stream position
    uint64_t distinctBytes = 0;
    uint64_t largestBytes = 0;
};

/** Generate the next batch of never-seen graphs (untimed). */
std::vector<ColdItem>
nextColdBatch(ColdFixture &fx)
{
    std::vector<ColdItem> batch;
    for (ColdRequest &request :
         makeColdPlan(fx.seed, fx.generated, kColdBatch))
        batch.push_back({std::move(request), nullptr});
    fx.generated += kColdBatch;
    parallelFor(batch.size(), [&](std::size_t i) {
        batch[i].graph = std::make_shared<const Graph>(
            makeGraph(batch[i].request.graph));
    });
    for (const ColdItem &item : batch) {
        fx.distinctBytes += item.graph->footprintBytes();
        fx.largestBytes =
            std::max<uint64_t>(fx.largestBytes, item.graph->footprintBytes());
    }
    return batch;
}

/**
 * Closed loop over one batch: each caller submits its next request
 * when its previous answer arrives. @return the timed wall seconds.
 */
double
serveColdBatch(ColdFixture &fx, const std::vector<ColdItem> &batch,
               std::size_t first_index, std::vector<Served> &out,
               SpanRecorder *spans)
{
    std::vector<Served> served(batch.size());
    std::atomic<std::size_t> next{0};
    const int64_t start = nowNs();
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kColdCallers; ++c) {
        callers.emplace_back([&, c] {
            for (std::size_t i = next++; i < batch.size(); i = next++) {
                const ColdItem &item = batch[i];
                serve::ServeRequest request;
                request.workload = fx.workloads.at(item.request.workload);
                request.graph = item.graph;
                request.inputName = item.request.graph.name;
                request.measure = fx.measure;
                Served &s = served[i];
                s.item = i;
                s.dueNs = s.sentNs = nowNs();
                auto future = fx.service->submit(std::move(request));
                const serve::ServeResponse response = future.get();
                s.doneNs = nowNs();
                recordResponse(s, response);
                if (spans) {
                    const uint64_t id = first_index + i + 1;
                    const auto thread = static_cast<uint32_t>(c);
                    const std::size_t root =
                        spans->add({"bench.request", s.sentNs, s.doneNs,
                                    kNoParent, id, thread});
                    const int64_t queue_ns =
                        static_cast<int64_t>(s.queueMs * 1e6);
                    const int64_t service_ns =
                        static_cast<int64_t>(s.serviceMs * 1e6);
                    spans->add({"serve.queue", s.sentNs,
                                s.sentNs + queue_ns, root, id, thread});
                    spans->add({"serve.service", s.sentNs + queue_ns,
                                s.sentNs + queue_ns + service_ns, root,
                                id, thread});
                }
            }
        });
    }
    for (auto &caller : callers)
        caller.join();
    const double elapsed = secondsSince(start);
    out.insert(out.end(), served.begin(), served.end());
    return elapsed;
}

/** The reference answer of every request in @p batch (untimed). */
std::vector<Answer>
coldReferences(const ColdFixture &fx, const std::vector<ColdItem> &batch)
{
    std::vector<Answer> expected(batch.size());
    parallelFor(batch.size(), [&](std::size_t i) {
        expected[i] = referenceAnswer(
            *fx.reference, *fx.workloads.at(batch[i].request.workload),
            *batch[i].graph, batch[i].request.graph.name, fx.measure);
    });
    return expected;
}

void
runInprocCold(const RunOptions &options, Report &report)
{
    ColdFixture fx;
    fx.seed = options.seed;
    fx.measure = measureOptionsFor(options.seed);
    for (const std::string &name : servingWorkloads())
        fx.workloads[name] = std::shared_ptr<const Workload>(
            makeWorkload(name));
    fx.reference = makeFramework(fx.oracle);
    fx.registry = std::make_unique<serve::ModelRegistry>(
        fx.reference->pair(), fx.oracle);
    fx.registry->publish(PredictorKind::DecisionTree,
                         makePredictor(PredictorKind::DecisionTree));
    fx.service = std::make_unique<serve::PredictionService>(*fx.registry);
    std::vector<ColdItem> batch = nextColdBatch(fx);
    const double setup_s = endSetUp(options, report);
    if (options.setupOnly)
        return;

    // Timed phase: serve batch after batch until the timed time (which
    // leaves out generation and reference checks) reaches the budget.
    std::vector<Served> served;
    double timed_s = 0.0;
    const uint64_t hits0 = fx.service->statsHits();
    const uint64_t misses0 = fx.service->statsMisses();
    auto check = [&](const std::vector<ColdItem> &items,
                     const std::vector<Served> &results) {
        const std::vector<Answer> expected = coldReferences(fx, items);
        tallyServed(results, [&](std::size_t i) { return expected[i]; },
                    report.tally);
    };
    while (timed_s < options.seconds) {
        std::vector<Served> results;
        timed_s += serveColdBatch(fx, batch, 0, results, nullptr);
        check(batch, results);
        served.insert(served.end(), results.begin(), results.end());
        batch = nextColdBatch(fx);
    }
    const uint64_t hits = fx.service->statsHits() - hits0;
    const uint64_t misses = fx.service->statsMisses() - misses0;

    std::vector<double> modelled;
    std::size_t ok = 0;
    for (const Served &s : served)
        if (s.ok) {
            modelled.push_back(s.answer.seconds);
            ++ok;
        }
    report.property("workloads.repeat_share", fixed(0.0));
    addWorkingSet(report, fx.distinctBytes, fx.largestBytes, fx.generated);
    addEndToEnd(report, setup_s, static_cast<double>(ok) / timed_s, served,
                modelled);
    if (!options.trace)
        return;

    addServedLayers(report, served, false, true, false);
    absent(report, "net.shard_max_share", "ratio");
    addHitRatio(report, hits, misses);
    // Every request carries a graph no earlier request carried.
    report.add("workloads.repeat_share", 0.0, "ratio", served.size());
    absent(report, "net.max_rps_slo", "1/s");

    // Traced pass over fresh graphs, replaying each batch right after
    // it is served (while its graphs are alive) until the replay has
    // used half the budget.
    SpanRecorder served_spans, replay_spans;
    GraphStatsCache cache(2 * GraphStatsCache::kDefaultCapacity);
    ReplayStats stats;
    std::vector<Served> traced;
    double traced_s = 0.0, replay_s = 0.0;
    while (traced_s < options.seconds / 2) {
        std::vector<Served> results;
        traced_s += serveColdBatch(fx, batch, fx.generated, results,
                                   &served_spans);
        check(batch, results);
        const int64_t replay_start = nowNs();
        for (std::size_t i = 0;
             i < results.size() && replay_s + secondsSince(replay_start) <
                                       options.seconds / 2;
             ++i) {
            if (!results[i].ok)
                continue;
            ReplayItem item;
            item.workload =
                fx.workloads.at(batch[i].request.workload).get();
            item.graph = batch[i].graph.get();
            item.input = batch[i].request.graph.name;
            item.batch = results[i].batchSize;
            item.servedMs = results[i].serviceMs /
                            std::max<double>(1, results[i].batchSize);
            item.served = results[i].answer;
            item.id = fx.generated + i + 1;
            replayOne(item, false, *fx.reference, fx.measure, cache,
                      replay_spans, stats);
        }
        replay_s += secondsSince(replay_start);
        traced.insert(traced.end(), results.begin(), results.end());
        batch = nextColdBatch(fx);
    }
    addReplayLayers(report, stats, replay_spans.snapshot(), false,
                    percentile(latencies(served), 0.5).value,
                    percentile(latencies(traced), 0.5).value);
    writeTrace(options, served_spans, replay_spans, report);
}

// --- paper-matrix -----------------------------------------------------

/** Rounds of the 81 combinations per run: one per ~7.5 s of budget. */
std::size_t
matrixRounds(double seconds)
{
    return std::max<std::size_t>(
        1, static_cast<std::size_t>(std::lround(seconds / 7.5)));
}

struct MatrixFixture {
    MeasureOptions measure;
    std::map<std::string, std::shared_ptr<const Workload>> workloads;
    Oracle oracle;
    std::unique_ptr<HeteroMap> framework;
    std::vector<std::vector<const Graph *>> graphs; //!< [round][dataset]
    std::vector<std::unique_ptr<const Graph>> copies;

    /**
     * Make round @p round's inputs: the proxies themselves for round
     * 0, rotated copies after that, each measured into the stats cache
     * so predict() times warm inputs.
     */
    void addRound(std::size_t round)
    {
        std::vector<const Graph *> inputs;
        for (const Dataset &dataset : evaluationDatasets()) {
            const Graph &proxy = dataset.proxy();
            const Graph *input = &proxy;
            if (round > 0) {
                copies.push_back(std::make_unique<const Graph>(
                    rotateVertexIds(proxy, matrixShift(round,
                                                       proxy.numVertices()))));
                input = copies.back().get();
            }
            globalStatsCache().measure(*input, measure);
            inputs.push_back(input);
        }
        graphs.push_back(std::move(inputs));
    }

    const Graph &graphOf(const MatrixCombo &combo) const
    {
        return *graphs[combo.pass][combo.dataset];
    }
};

/** One predict() at a time over @p combos. */
std::vector<Served>
runMatrix(const MatrixFixture &fx, const std::vector<MatrixCombo> &combos,
          double &elapsed_s, SpanRecorder *spans)
{
    const auto &datasets = evaluationDatasets();
    std::vector<Served> served(combos.size());
    const int64_t start = nowNs();
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const MatrixCombo &combo = combos[i];
        Served &s = served[i];
        s.item = i;
        s.dueNs = s.sentNs = nowNs();
        const Deployment deployment = fx.framework->predict(
            *fx.workloads.at(combo.workload), fx.graphOf(combo),
            datasets[combo.dataset].shortName(), fx.measure);
        s.doneNs = nowNs();
        s.ok = true;
        s.overheadMs = deployment.overheadMs;
        s.batchSize = 1;
        s.answer = answerOf(deployment);
        if (spans)
            spans->add({"core.predict", s.sentNs, s.doneNs, kNoParent,
                        i + 1, 0});
    }
    elapsed_s = secondsSince(start);
    return served;
}

/** Check @p served against the library reference, combo by combo. */
void
checkMatrix(const MatrixFixture &fx, const std::vector<MatrixCombo> &combos,
            const std::vector<Served> &served, Tally &tally)
{
    const auto &datasets = evaluationDatasets();
    std::vector<Answer> expected(combos.size());
    parallelFor(combos.size(), [&](std::size_t i) {
        expected[i] = referenceAnswer(
            *fx.framework, *fx.workloads.at(combos[i].workload),
            fx.graphOf(combos[i]), datasets[combos[i].dataset].shortName(),
            fx.measure);
    });
    tallyServed(served, [&](std::size_t i) { return expected[i]; }, tally);
}

void
runPaperMatrix(const RunOptions &options, Report &report)
{
    const std::size_t rounds = matrixRounds(options.seconds);
    MatrixFixture fx;
    fx.measure = measureOptionsFor(options.seed);
    for (const std::string &name : workloadNames())
        fx.workloads[name] =
            std::shared_ptr<const Workload>(makeWorkload(name));
    fx.framework = makeFramework(fx.oracle);
    for (std::size_t round = 0; round < rounds; ++round)
        fx.addRound(round);
    const double setup_s = endSetUp(options, report);
    if (options.setupOnly)
        return;

    // The traced round (if any) gets its own fresh copies, so nothing
    // in a run ever repeats a (workload, graph) pair.
    const std::vector<MatrixCombo> all =
        makeMatrixPlan(options.seed, rounds + 1);
    const std::size_t per_round = all.size() / (rounds + 1);
    const std::vector<MatrixCombo> plan(all.begin(),
                                        all.end() - per_round);
    const std::vector<MatrixCombo> traced_plan(all.end() - per_round,
                                               all.end());

    const uint64_t hits0 = globalStatsCache().hits();
    const uint64_t misses0 = globalStatsCache().misses();
    double elapsed_s = 0.0;
    const std::vector<Served> served = runMatrix(fx, plan, elapsed_s, nullptr);
    const uint64_t hits = globalStatsCache().hits() - hits0;
    const uint64_t misses = globalStatsCache().misses() - misses0;
    checkMatrix(fx, plan, served, report.tally);

    std::vector<double> modelled;
    std::vector<std::string> keys;
    for (std::size_t i = 0; i < served.size(); ++i) {
        modelled.push_back(served[i].answer.seconds);
        keys.push_back(std::to_string(plan[i].pass) + "/" +
                       std::to_string(plan[i].dataset) + "/" +
                       plan[i].workload);
    }
    uint64_t distinct_bytes = 0, largest = 0;
    for (const auto &round : fx.graphs)
        for (const Graph *graph : round) {
            distinct_bytes += graph->footprintBytes();
            largest = std::max<uint64_t>(largest, graph->footprintBytes());
        }
    const double repeat = repeatShare(keys);
    report.property("workloads.repeat_share", fixed(repeat));
    report.property("rounds", std::to_string(rounds));
    addWorkingSet(report, distinct_bytes, largest,
                  rounds * evaluationDatasets().size());
    addEndToEnd(report, setup_s,
                static_cast<double>(served.size()) / elapsed_s, served,
                modelled);
    if (!options.trace)
        return;

    addServedLayers(report, served, false, false, false);
    absent(report, "net.shard_max_share", "ratio");
    addHitRatio(report, hits, misses);
    report.add("workloads.repeat_share", repeat, "ratio", keys.size());
    absent(report, "net.max_rps_slo", "1/s");

    SpanRecorder served_spans, replay_spans;
    fx.addRound(rounds);
    double traced_s = 0.0;
    const std::vector<Served> traced =
        runMatrix(fx, traced_plan, traced_s, &served_spans);
    checkMatrix(fx, traced_plan, traced, report.tally);
    GraphStatsCache cache(GraphStatsCache::kDefaultCapacity);
    ReplayStats stats;
    for (std::size_t i = 0; i < traced.size(); ++i) {
        const MatrixCombo &combo = traced_plan[i];
        ReplayItem item;
        item.workload = fx.workloads.at(combo.workload).get();
        item.graph = &fx.graphOf(combo);
        item.input = evaluationDatasets()[combo.dataset].shortName();
        item.servedMs = msBetween(traced[i].sentNs, traced[i].doneNs);
        item.served = traced[i].answer;
        item.id = i + 1;
        replayOne(item, false, *fx.framework, fx.measure, cache,
                  replay_spans, stats);
    }
    addReplayLayers(report, stats, replay_spans.snapshot(), false,
                    percentile(latencies(served), 0.5).value,
                    percentile(latencies(traced), 0.5).value);
    writeTrace(options, served_spans, replay_spans, report);
}

} // namespace

const std::vector<std::string> &
benchWorkloads()
{
    static const std::vector<std::string> names = {
        "net-zipf-hot", "inproc-cold", "paper-matrix"};
    return names;
}

bool
runWorkload(const RunOptions &options, Report &report)
{
    if (options.workload == "net-zipf-hot")
        runNetZipfHot(options, report);
    else if (options.workload == "inproc-cold")
        runInprocCold(options, report);
    else if (options.workload == "paper-matrix")
        runPaperMatrix(options, report);
    else
        return false;
    return true;
}

} // namespace hmbench
