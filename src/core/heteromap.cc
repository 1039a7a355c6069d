/**
 * @file
 * HeteroMap runtime implementation.
 */

#include "core/heteromap.hh"

#include <sstream>

#include "graph/stats_cache.hh"
#include "util/checksum.hh"
#include "model/adaptive_library.hh"
#include "model/decision_tree.hh"
#include "model/feature_baseline.hh"
#include "model/linear_regression.hh"
#include "model/mlp.hh"
#include "model/poly_regression.hh"
#include "model/table_lookup.hh"
#include "util/flight_recorder.hh"
#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"
#include "util/trace.hh"
#include "workloads/profile_cache.hh"

namespace heteromap {

std::unique_ptr<Predictor>
makePredictor(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::DecisionTree:
        return std::make_unique<DecisionTreeHeuristic>();
      case PredictorKind::LinearRegression:
        return std::make_unique<LinearRegression>();
      case PredictorKind::MultiRegression:
        return std::make_unique<PolyRegression>(7);
      case PredictorKind::AdaptiveLibrary:
        return std::make_unique<AdaptiveLibrary>();
      case PredictorKind::Deep16:
        return std::make_unique<Mlp>(16);
      case PredictorKind::Deep32:
        return std::make_unique<Mlp>(32);
      case PredictorKind::Deep64:
        return std::make_unique<Mlp>(64);
      case PredictorKind::Deep128:
        return std::make_unique<Mlp>(128);
      case PredictorKind::TableLookup:
        return std::make_unique<TableLookupPredictor>();
    }
    HM_PANIC("unhandled predictor kind");
}

const char *
predictorKindName(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::DecisionTree:     return "decision-tree";
      case PredictorKind::LinearRegression: return "linear-regression";
      case PredictorKind::MultiRegression:  return "multi-regression";
      case PredictorKind::AdaptiveLibrary:  return "adaptive-library";
      case PredictorKind::Deep16:           return "deep-16";
      case PredictorKind::Deep32:           return "deep-32";
      case PredictorKind::Deep64:           return "deep-64";
      case PredictorKind::Deep128:          return "deep-128";
      case PredictorKind::TableLookup:      return "table-lookup";
    }
    return "?";
}

std::optional<PredictorKind>
predictorKindFromName(std::string_view name)
{
    static const PredictorKind kinds[] = {
        PredictorKind::DecisionTree,    PredictorKind::LinearRegression,
        PredictorKind::MultiRegression, PredictorKind::AdaptiveLibrary,
        PredictorKind::Deep16,          PredictorKind::Deep32,
        PredictorKind::Deep64,          PredictorKind::Deep128,
        PredictorKind::TableLookup,
    };
    for (PredictorKind kind : kinds) {
        if (name == predictorKindName(kind))
            return kind;
    }
    return std::nullopt;
}

namespace {

/** Hidden width of a Deep.* kind; 0 for non-MLP kinds. */
unsigned
deepWidth(PredictorKind kind)
{
    switch (kind) {
      case PredictorKind::Deep16:  return 16;
      case PredictorKind::Deep32:  return 32;
      case PredictorKind::Deep64:  return 64;
      case PredictorKind::Deep128: return 128;
      default:                     return 0;
    }
}

/** dynamic_cast that fatals with the kind name on a type mismatch. */
template <typename Concrete>
const Concrete &
asConcrete(const Predictor &predictor, PredictorKind kind)
{
    const auto *concrete = dynamic_cast<const Concrete *>(&predictor);
    if (concrete == nullptr)
        HM_FATAL(std::string("savePredictor: predictor is not a ") +
                 predictorKindName(kind));
    return *concrete;
}

/**
 * Envelope leader. v2 is the baseline-less format every pre-drift
 * model file uses; v3 appends a checksummed FeatureBaseline trailer.
 * Loads accept both, saves emit v2 unless a baseline is supplied, so
 * the version bump never invalidates an existing stream.
 */
constexpr const char *kModelMagic = "heteromap-model";
constexpr const char *kModelVersion = "v2";
constexpr const char *kModelVersionV3 = "v3";

/** The pre-envelope per-kind serialization (the v2 payload). */
void
savePayload(const Predictor &predictor, PredictorKind kind,
            std::ostream &os)
{
    switch (kind) {
      case PredictorKind::DecisionTree:
        asConcrete<DecisionTreeHeuristic>(predictor, kind).save(os);
        return;
      case PredictorKind::LinearRegression:
        asConcrete<LinearRegression>(predictor, kind).save(os);
        return;
      case PredictorKind::MultiRegression:
        asConcrete<PolyRegression>(predictor, kind).save(os);
        return;
      case PredictorKind::AdaptiveLibrary:
        asConcrete<AdaptiveLibrary>(predictor, kind).save(os);
        return;
      case PredictorKind::Deep16:
      case PredictorKind::Deep32:
      case PredictorKind::Deep64:
      case PredictorKind::Deep128: {
        const Mlp &mlp = asConcrete<Mlp>(predictor, kind);
        if (mlp.hiddenWidth() != deepWidth(kind))
            HM_FATAL("savePredictor: MLP width does not match kind");
        mlp.save(os);
        return;
      }
      case PredictorKind::TableLookup:
        asConcrete<TableLookupPredictor>(predictor, kind).save(os);
        return;
    }
    HM_PANIC("unhandled predictor kind");
}

/**
 * Parse a v2 payload as @p kind. The concrete load() routines signal
 * malformed input through HM_FATAL; the caller (loadPredictor /
 * loadAnyPredictor) converts that into a Result error.
 */
std::unique_ptr<Predictor>
loadPayload(PredictorKind kind, std::istream &is)
{
    switch (kind) {
      case PredictorKind::DecisionTree:
        return std::make_unique<DecisionTreeHeuristic>(
            DecisionTreeHeuristic::load(is));
      case PredictorKind::LinearRegression:
        return std::make_unique<LinearRegression>(
            LinearRegression::load(is));
      case PredictorKind::MultiRegression:
        return std::make_unique<PolyRegression>(
            PolyRegression::load(is));
      case PredictorKind::AdaptiveLibrary:
        return std::make_unique<AdaptiveLibrary>(
            AdaptiveLibrary::load(is));
      case PredictorKind::Deep16:
      case PredictorKind::Deep32:
      case PredictorKind::Deep64:
      case PredictorKind::Deep128: {
        auto mlp = std::make_unique<Mlp>(Mlp::load(is));
        if (mlp->hiddenWidth() != deepWidth(kind))
            HM_FATAL("loadPredictor: stream holds an MLP of a "
                     "different width than the requested kind");
        return mlp;
      }
      case PredictorKind::TableLookup:
        return std::make_unique<TableLookupPredictor>(
            TableLookupPredictor::load(is));
    }
    HM_PANIC("unhandled predictor kind");
}

/**
 * Read and verify the envelope header + payload (+ the v3 baseline
 * trailer when present). On success @p kind and @p payload are
 * filled and @p baseline holds the parsed FeatureBaseline (null for
 * v2 or an empty trailer); every failure is a recoverable Error.
 */
Result<bool>
readEnvelope(std::istream &is, PredictorKind &kind,
             std::string &payload,
             std::shared_ptr<const FeatureBaseline> &baseline)
{
    std::string magic, version, kind_name, crc_hex;
    std::size_t payload_bytes = 0;
    is >> magic >> version >> kind_name >> payload_bytes >> crc_hex;
    if (is.fail() || magic != kModelMagic)
        return HM_RECOVERABLE(ErrorCode::Parse,
                              "model stream has no '", kModelMagic,
                              "' envelope header");
    const bool v3 = version == kModelVersionV3;
    if (version != kModelVersion && !v3)
        return HM_RECOVERABLE(ErrorCode::Parse,
                              "unsupported model envelope version '",
                              version, "' (expected ", kModelVersion,
                              " or ", kModelVersionV3, ")");
    const std::optional<PredictorKind> declared =
        predictorKindFromName(kind_name);
    if (!declared)
        return HM_RECOVERABLE(ErrorCode::Parse,
                              "model envelope declares unknown "
                              "predictor kind '",
                              kind_name, "'");
    uint64_t declared_crc = 0;
    if (!checksumFromHex(crc_hex, declared_crc))
        return HM_RECOVERABLE(ErrorCode::Parse,
                              "model envelope checksum '", crc_hex,
                              "' is not 16 hex digits");

    // A corrupted size field must not drive a giant allocation; no
    // legitimate model payload approaches this bound.
    constexpr std::size_t kMaxPayloadBytes = 1ull << 30;
    if (payload_bytes > kMaxPayloadBytes)
        return HM_RECOVERABLE(ErrorCode::Parse,
                              "model envelope declares an absurd "
                              "payload size (",
                              payload_bytes, " bytes) — corrupt header");

    std::size_t baseline_bytes = 0;
    uint64_t baseline_crc = 0;
    if (v3) {
        std::string baseline_crc_hex;
        is >> baseline_bytes >> baseline_crc_hex;
        if (is.fail())
            return HM_RECOVERABLE(ErrorCode::Parse,
                                  "v3 model envelope lacks the "
                                  "baseline trailer fields");
        if (!checksumFromHex(baseline_crc_hex, baseline_crc))
            return HM_RECOVERABLE(ErrorCode::Parse,
                                  "model baseline checksum '",
                                  baseline_crc_hex,
                                  "' is not 16 hex digits");
        if (baseline_bytes > kMaxPayloadBytes)
            return HM_RECOVERABLE(ErrorCode::Parse,
                                  "model envelope declares an absurd "
                                  "baseline size (",
                                  baseline_bytes,
                                  " bytes) — corrupt header");
    }

    // The single separator after the header line; then exactly
    // payload_bytes of payload.
    is.get();
    payload.resize(payload_bytes);
    is.read(payload.data(),
            static_cast<std::streamsize>(payload_bytes));
    if (static_cast<std::size_t>(is.gcount()) != payload_bytes)
        return HM_RECOVERABLE(
            ErrorCode::Io, "model payload truncated: expected ",
            payload_bytes, " bytes, stream held ", is.gcount());

    const uint64_t actual_crc = crc64(payload);
    if (actual_crc != declared_crc)
        return HM_RECOVERABLE(
            ErrorCode::Parse, "model payload checksum mismatch: "
            "envelope says ",
            checksumToHex(declared_crc), ", payload hashes to ",
            checksumToHex(actual_crc),
            " (corrupt or torn model stream)");

    if (v3 && baseline_bytes > 0) {
        std::string baseline_text(baseline_bytes, '\0');
        is.read(baseline_text.data(),
                static_cast<std::streamsize>(baseline_bytes));
        if (static_cast<std::size_t>(is.gcount()) != baseline_bytes)
            return HM_RECOVERABLE(
                ErrorCode::Io, "model baseline truncated: expected ",
                baseline_bytes, " bytes, stream held ", is.gcount());
        const uint64_t actual_baseline_crc = crc64(baseline_text);
        if (actual_baseline_crc != baseline_crc)
            return HM_RECOVERABLE(
                ErrorCode::Parse,
                "model baseline checksum mismatch: envelope says ",
                checksumToHex(baseline_crc), ", trailer hashes to ",
                checksumToHex(actual_baseline_crc),
                " (corrupt or torn model stream)");
        std::istringstream body(baseline_text);
        FeatureBaseline parsed;
        if (!FeatureBaseline::load(body, &parsed))
            return HM_RECOVERABLE(ErrorCode::Parse,
                                  "model baseline trailer failed to "
                                  "parse as a feature-baseline");
        baseline =
            std::make_shared<const FeatureBaseline>(std::move(parsed));
    }
    kind = *declared;
    return true;
}

/** Parse @p payload as @p kind, converting fatals into Errors. */
Result<std::unique_ptr<Predictor>>
parsePayload(PredictorKind kind, const std::string &payload)
{
    try {
        std::istringstream body(payload);
        return loadPayload(kind, body);
    } catch (const FatalError &e) {
        return makeError(ErrorCode::Parse, 0,
                         "model payload failed to parse as ",
                         predictorKindName(kind), ": ", e.what());
    }
}

} // namespace

void
savePredictor(const Predictor &predictor, PredictorKind kind,
              std::ostream &os)
{
    savePredictor(predictor, kind, os, nullptr);
}

void
savePredictor(const Predictor &predictor, PredictorKind kind,
              std::ostream &os, const FeatureBaseline *baseline)
{
    std::ostringstream payload;
    savePayload(predictor, kind, payload);
    const std::string body = payload.str();
    if (baseline == nullptr) {
        // Byte-identical to the pre-baseline format.
        os << kModelMagic << " " << kModelVersion << " "
           << predictorKindName(kind) << " " << body.size() << " "
           << checksumToHex(crc64(body)) << "\n"
           << body;
        return;
    }
    const std::string trailer = baseline->toString();
    os << kModelMagic << " " << kModelVersionV3 << " "
       << predictorKindName(kind) << " " << body.size() << " "
       << checksumToHex(crc64(body)) << " " << trailer.size() << " "
       << checksumToHex(crc64(trailer)) << "\n"
       << body << trailer;
}

Result<std::unique_ptr<Predictor>>
loadPredictor(PredictorKind kind, std::istream &is)
{
    PredictorKind declared = kind;
    std::string payload;
    std::shared_ptr<const FeatureBaseline> baseline;
    Result<bool> header = readEnvelope(is, declared, payload, baseline);
    if (!header)
        return header.error();
    if (declared != kind)
        return HM_RECOVERABLE(
            ErrorCode::Parse, "model kind mismatch: stream holds a ",
            predictorKindName(declared), ", caller requested a ",
            predictorKindName(kind));
    return parsePayload(kind, payload);
}

Result<LoadedPredictor>
loadAnyPredictor(std::istream &is)
{
    PredictorKind declared = PredictorKind::DecisionTree;
    std::string payload;
    std::shared_ptr<const FeatureBaseline> baseline;
    Result<bool> header = readEnvelope(is, declared, payload, baseline);
    if (!header)
        return header.error();
    Result<std::unique_ptr<Predictor>> parsed =
        parsePayload(declared, payload);
    if (!parsed)
        return parsed.error();
    return LoadedPredictor{declared, std::move(parsed).value(),
                           std::move(baseline)};
}

const std::vector<PredictorKind> &
allPredictorKinds()
{
    static const std::vector<PredictorKind> kinds = {
        PredictorKind::DecisionTree,    PredictorKind::LinearRegression,
        PredictorKind::MultiRegression, PredictorKind::AdaptiveLibrary,
        PredictorKind::Deep16,          PredictorKind::Deep32,
        PredictorKind::Deep64,          PredictorKind::Deep128,
    };
    return kinds;
}

HeteroMap::HeteroMap(AcceleratorPair pair,
                     std::unique_ptr<Predictor> predictor,
                     const Oracle &oracle)
    : pair_(std::move(pair)), predictor_(std::move(predictor)),
      oracle_(oracle)
{
    HM_ASSERT(predictor_ != nullptr, "HeteroMap requires a predictor");
}

void
HeteroMap::trainOffline(const TrainingSet &corpus)
{
    predictor_->train(corpus);
    // Capture the training-time feature distribution alongside the
    // fit: the drift monitor compares live serving windows against
    // exactly the corpus this model saw, and savePredictor()'s v3
    // envelope ships the two together.
    baseline_ = std::make_shared<const FeatureBaseline>(
        buildFeatureBaseline(corpus));
}

Deployment
HeteroMap::deploy(const BenchmarkCase &bench) const
{
    return deploy(bench, DeployConstraints{});
}

Deployment
HeteroMap::predict(const Workload &workload, const Graph &graph,
                   const std::string &input_name,
                   const MeasureOptions &measure) const
{
    // The predictor overhead is the paper's Table IV definition:
    // measure + featurize + infer. Each stage is timed with
    // lapMillis() — one clock read per stage boundary — so those three
    // "predict.stage.*" histograms partition overheadMs exactly: their
    // sums add up to the reported total, no instant counted twice or
    // dropped. Profiling the workload feeds only the oracle's
    // modelled report, not the prediction, so it is timed as its own
    // stage outside that sum.
    HM_SPAN("predict");
    HM_COUNTER_INC("predict.calls");
    Timer timer;
    timer.start();

    const GraphStats stats = [&] {
        HM_SPAN("predict.measure");
        return globalStatsCache().measure(graph, measure);
    }();
    const double measure_ms = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("predict.stage.measure_ms", measure_ms);

    const FeatureVector features = [&] {
        HM_SPAN("predict.featurize");
        return featurize(workload, stats);
    }();
    const double featurize_ms = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("predict.stage.featurize_ms", featurize_ms);

    WorkloadProfile profile = [&] {
        HM_SPAN("predict.profile");
        return globalProfileCache().profile(workload, graph);
    }();
    const double profile_ms = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("predict.stage.profile_ms", profile_ms);

    const BenchmarkCase bench = assembleCase(workload, input_name, stats,
                                             features, std::move(profile));

    // deploy() times the inference stage itself and records it as
    // "predict.stage.infer_ms"; its overheadMs is that stage's value.
    Deployment out = deploy(bench);
    const double infer_ms = out.overheadMs;
    out.overheadMs += measure_ms + featurize_ms;

    if (forensics::flightRecorderArmed()) {
        // Library-path provenance: requestId/epoch 0 mark a direct
        // predict() call (the serving path stamps real ids).
        static_assert(forensics::kAuditFeatureDims == kNumFeatures);
        static_assert(forensics::kAuditScoreDims == kNumOutputs);
        forensics::AuditRecord record;
        record.timestampNs = telemetry::traceNowNs();
        record.graphFingerprint = mixFingerprint(fingerprintGraph(graph));
        record.setModelKind(predictor_->name());
        record.setWorkload(workload.name());
        record.features = features.asArray();
        record.scores = out.predicted.m;
        record.setAccelerator(
            acceleratorKindName(out.config.accelerator));
        if (const auto *tree =
                dynamic_cast<const DecisionTreeHeuristic *>(
                    predictor_.get())) {
            const auto path = tree->decisionPath(features);
            record.treePredicateMask = path.predicateMask;
            record.treeLeaf = path.leaf;
        }
        record.measureMs = measure_ms;
        record.featurizeMs = featurize_ms;
        record.profileMs = profile_ms;
        record.inferMs = infer_ms;
        record.serviceMs = out.overheadMs + profile_ms;
        forensics::appendAuditRecord(record);
    }
    return out;
}

Deployment
HeteroMap::deploy(const BenchmarkCase &bench,
                  const DeployConstraints &constraints) const
{
    Deployment out;
    HM_COUNTER_INC("deploy.calls");

    // The inference latency is real wall-clock time — the paper adds
    // the framework's runtime overhead to the completion time.
    Timer timer;
    timer.start();
    {
        HM_SPAN("predict.infer");
        out.predicted = predictor_->predict(bench.features);
        if (constraints.forceAccelerator) {
            // Mask the other accelerator out of the M1 choice; the
            // intra-accelerator knobs remain the predictor's.
            out.predicted.m[0] = *constraints.forceAccelerator ==
                                         AcceleratorKind::Multicore
                                     ? 1.0
                                     : 0.0;
        }
        out.config = deployNormalized(out.predicted, pair_);
    }
    out.overheadMs = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("predict.stage.infer_ms", out.overheadMs);

    {
        HM_SPAN("deploy.oracle");
        out.report = oracle_.run(bench, pair_, out.config);
    }
    return out;
}

std::vector<Deployment>
HeteroMap::deployBatch(std::span<const BenchmarkCase> benches) const
{
    std::vector<Deployment> out(benches.size());
    if (benches.empty())
        return out;
    const std::size_t n = benches.size();
    HM_COUNTER_ADD("deploy.calls", n);
    HM_COUNTER_INC("deploy.batches");

    // One timed forward pass for the whole batch; each deployment is
    // charged its amortized share so Table IV-style overhead sums
    // stay honest under batching.
    Timer timer;
    timer.start();
    {
        HM_SPAN("predict.infer_batch");
        std::vector<FeatureVector> features(n);
        for (std::size_t i = 0; i < n; ++i)
            features[i] = benches[i].features;
        std::vector<NormalizedMVector> predicted(n);
        predictor_->predictBatch(features, predicted);
        for (std::size_t i = 0; i < n; ++i) {
            out[i].predicted = predicted[i];
            out[i].config = deployNormalized(predicted[i], pair_);
        }
    }
    const double infer_ms = timer.lapMillis();
    HM_HISTOGRAM_RECORD_MS("predict.stage.infer_batch_ms", infer_ms);
    const double amortized_ms = infer_ms / static_cast<double>(n);

    HM_SPAN("deploy.oracle");
    for (std::size_t i = 0; i < n; ++i) {
        out[i].overheadMs = amortized_ms;
        out[i].report = oracle_.run(benches[i], pair_, out[i].config);
    }
    return out;
}

} // namespace heteromap
