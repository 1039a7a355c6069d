/**
 * @file
 * Tests of the benchmark's own logic: exact percentiles with failures
 * as +infinity, seeded plan determinism, repeat-share arithmetic,
 * reference checking, and span self time.
 *
 * Run: python3 hmbench/run.py --self-test
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "arch/presets.hh"
#include "check.hh"
#include "core/experiment.hh"
#include "graph/generators.hh"
#include "plan.hh"
#include "report.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads/registry.hh"

namespace hmbench {
namespace {

std::vector<double>
oneTo(int n)
{
    std::vector<double> out;
    for (int i = 1; i <= n; ++i)
        out.push_back(i);
    return out;
}

TEST(Percentile, NearestRankOnRawSamples)
{
    const auto samples = oneTo(100);
    EXPECT_EQ(percentile(samples, 0.50).value, 50.0);
    EXPECT_EQ(percentile(samples, 0.99).value, 99.0);
    EXPECT_EQ(percentile(samples, 1.00).value, 100.0);
    EXPECT_EQ(percentile({7.5}, 0.99).value, 7.5);
    EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Percentile, OrderOfSamplesDoesNotMatter)
{
    auto samples = oneTo(1000);
    std::reverse(samples.begin(), samples.end());
    EXPECT_EQ(percentile(samples, 0.99).value, 990.0);
}

TEST(Percentile, SupportNeedsTenSamplesBeyond)
{
    const Percentile small = percentile(oneTo(100), 0.99);
    EXPECT_EQ(small.samples, 100u);
    EXPECT_EQ(small.beyond, 1u);
    EXPECT_FALSE(small.supported());
    const Percentile big = percentile(oneTo(1000), 0.99);
    EXPECT_EQ(big.beyond, 10u);
    EXPECT_TRUE(big.supported());
}

TEST(Percentile, FailuresCountAsInfinity)
{
    auto samples = oneTo(98);
    samples.push_back(kFailed);
    samples.push_back(kFailed);
    EXPECT_TRUE(std::isinf(percentile(samples, 0.99).value));
    EXPECT_EQ(percentile(samples, 0.50).value, 50.0);
    // One failure in a hundred sits above p99 and leaves it finite.
    auto one = oneTo(99);
    one.push_back(kFailed);
    EXPECT_EQ(percentile(one, 0.99).value, 99.0);
    EXPECT_TRUE(std::isinf(percentile(one, 1.0).value));
}

TEST(Percentile, InfinityIsWrittenAsAFiniteJsonNumber)
{
    Report report;
    report.addPercentile("lat_p99_ms", percentile({kFailed}, 0.99), "ms");
    const std::string json = report.json();
    EXPECT_EQ(json.find("inf"), std::string::npos) << json;
    EXPECT_NE(json.find("1.7976931348623157e+308"), std::string::npos);
}

TEST(Stats, MeanAndGeometricMean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3, 6}), 3.0);
    EXPECT_NEAR(geometricMean({1, 100}), 10.0, 1e-12);
}

TEST(Plan, NetPlanIsAFunctionOfTheSeed)
{
    const NetPlan a = makeNetPlan(7, 2000);
    const NetPlan b = makeNetPlan(7, 2000);
    const NetPlan c = makeNetPlan(8, 2000);
    EXPECT_EQ(a.catalogue, b.catalogue);
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_NE(a.requests, c.requests);
    EXPECT_NE(a.catalogue, c.catalogue);
    EXPECT_EQ(a.pairs.size(), 33u);
    EXPECT_EQ(a.catalogue.size(), 9u);
    EXPECT_EQ(a.pairs.back().workload, "BFS");
    EXPECT_EQ(a.pairs.back().graph, a.catalogue.size() - 1);
    std::size_t large = 0;
    for (const NetRequest &r : a.requests)
        large += r.pair == a.pairs.size() - 1;
    EXPECT_NEAR(static_cast<double>(large) / a.requests.size(),
                kLargeShare, 0.015);
}

TEST(Plan, CatalogueSizesAndTheLargeGraph)
{
    const NetPlan plan = makeNetPlan(3, 1);
    for (std::size_t g = 0; g + 1 < plan.catalogue.size(); ++g) {
        EXPECT_GE(plan.catalogue[g].vertices, 1024u);
        EXPECT_LE(plan.catalogue[g].vertices, 4096u);
    }
    const heteromap::Graph big = makeGraph(plan.catalogue.back());
    EXPECT_GT(big.footprintBytes(), kL2Bytes);
}

TEST(Plan, TenantsFollowZipf)
{
    const NetPlan plan = makeNetPlan(11, 20000);
    std::vector<std::size_t> counts(kTenants, 0);
    for (const NetRequest &r : plan.requests)
        ++counts[r.tenant];
    EXPECT_GT(counts[0], counts[1]);
    EXPECT_GT(counts[1], counts[9]);
    // Rank 1 of Zipf(1.1) over 1000 ranks draws ~ 1/ sum(k^-1.1).
    double norm = 0.0;
    for (std::size_t k = 1; k <= kTenants; ++k)
        norm += 1.0 / std::pow(static_cast<double>(k), kZipfExponent);
    EXPECT_NEAR(counts[0] / 20000.0, 1.0 / norm, 0.02);
}

TEST(Plan, ColdStreamIsSeededAndSliceable)
{
    const auto whole = makeColdPlan(5, 0, 40);
    EXPECT_EQ(whole, makeColdPlan(5, 0, 40));
    EXPECT_NE(whole, makeColdPlan(6, 0, 40));
    const auto slice = makeColdPlan(5, 10, 5);
    for (std::size_t i = 0; i < slice.size(); ++i)
        EXPECT_EQ(slice[i], whole[10 + i]);
    std::set<uint64_t> seeds;
    for (const ColdRequest &r : whole) {
        EXPECT_GE(r.graph.vertices, 1024u);
        EXPECT_LE(r.graph.vertices, 16384u);
        seeds.insert(r.graph.seed);
    }
    EXPECT_EQ(seeds.size(), whole.size()); // every graph is new
}

TEST(Plan, ColdBlocksAreStratified)
{
    const auto block = makeColdPlan(9, kColdBlock, kColdBlock);
    std::map<int, std::size_t> per_family;
    std::map<std::string, std::size_t> per_workload;
    std::set<std::pair<int, int>> family_stratum;
    for (const ColdRequest &r : block) {
        const int family = static_cast<int>(r.graph.family);
        ++per_family[family];
        ++per_workload[r.workload];
        const double stratum =
            std::log(r.graph.vertices / 1024.0) / std::log(16.0) * 16;
        family_stratum.insert(
            {family, std::min(15, static_cast<int>(stratum))});
    }
    for (const auto &[family, n] : per_family)
        EXPECT_EQ(n, kColdBlock / 4) << family;
    for (const auto &[workload, n] : per_workload)
        EXPECT_EQ(n, kColdBlock / 4) << workload;
    EXPECT_GE(family_stratum.size(), kColdBlock - 4); // rounding at edges
}

TEST(Plan, MatrixCoversEveryComboOnceInSeededOrder)
{
    const auto a = makeMatrixPlan(1);
    EXPECT_EQ(a.size(), 81u);
    EXPECT_EQ(a, makeMatrixPlan(1));
    EXPECT_NE(a, makeMatrixPlan(2));
    std::set<std::pair<std::size_t, std::string>> combos;
    for (const MatrixCombo &c : a)
        combos.insert({c.dataset, c.workload});
    EXPECT_EQ(combos.size(), 81u);
}

TEST(Plan, MatrixRoundsNeverRepeatAPair)
{
    const auto plan = makeMatrixPlan(4, 3);
    EXPECT_EQ(plan.size(), 3 * 81u);
    std::vector<std::string> keys;
    for (const MatrixCombo &c : plan)
        keys.push_back(std::to_string(c.pass) + "/" +
                       std::to_string(c.dataset) + "/" + c.workload);
    EXPECT_EQ(repeatShare(keys), 0.0);
    EXPECT_EQ(matrixShift(0, 1000), 0u);
    EXPECT_EQ(matrixShift(1, 1000), 500u);
    EXPECT_EQ(matrixShift(2, 999), 666u);
}

TEST(Plan, RotatedCopyIsIsomorphicAndSorted)
{
    const heteromap::Graph graph = heteromap::generateRoadGrid(9, 7, 5);
    const uint32_t n = graph.numVertices();
    EXPECT_EQ(rotateVertexIds(graph, 0).rawNeighbors(),
              graph.rawNeighbors());
    const uint32_t shift = 17;
    const heteromap::Graph rotated = rotateVertexIds(graph, shift);
    ASSERT_EQ(rotated.numVertices(), n);
    ASSERT_EQ(rotated.numEdges(), graph.numEdges());
    for (uint32_t v = 0; v < n; ++v) {
        const auto before = graph.neighbors(v);
        const auto after = rotated.neighbors((v + shift) % n);
        ASSERT_EQ(before.size(), after.size());
        EXPECT_TRUE(std::is_sorted(after.begin(), after.end()));
        std::multiset<std::pair<uint32_t, float>> want, got;
        for (std::size_t k = 0; k < before.size(); ++k)
            want.insert({(before[k] + shift) % n,
                         graph.edgeWeights(v)[k]});
        for (std::size_t k = 0; k < after.size(); ++k)
            got.insert({after[k],
                        rotated.edgeWeights((v + shift) % n)[k]});
        EXPECT_EQ(want, got);
    }
}

TEST(RepeatShare, CountsRequestsSeenBefore)
{
    EXPECT_EQ(repeatShare({}), 0.0);
    EXPECT_EQ(repeatShare({"a", "b", "c"}), 0.0);
    EXPECT_DOUBLE_EQ(repeatShare({"a", "b", "a", "a", "c"}), 2.0 / 5.0);
    EXPECT_DOUBLE_EQ(repeatShare({"x", "x", "x", "x"}), 0.75);
}

TEST(RepeatShare, HotCatalogueRepeatsAlmostEverything)
{
    const NetPlan plan = makeNetPlan(2, 5000);
    std::vector<std::string> keys;
    for (const NetRequest &r : plan.requests)
        keys.push_back(std::to_string(r.pair));
    EXPECT_DOUBLE_EQ(repeatShare(keys),
                     1.0 - static_cast<double>(plan.pairs.size()) / 5000);
}

class CheckTest : public ::testing::Test
{
  protected:
    heteromap::Oracle oracle;
    heteromap::HeteroMap framework{
        heteromap::pinnedPair(heteromap::primaryPair()),
        heteromap::makePredictor(heteromap::PredictorKind::DecisionTree),
        oracle};
    heteromap::Graph graph = heteromap::generateMesh(512, 8, 3);
    std::unique_ptr<heteromap::Workload> bfs =
        heteromap::makeWorkload("BFS");
    heteromap::MeasureOptions measure = measureOptionsFor(1);
};

TEST_F(CheckTest, ReferenceEqualsTheLibraryPredictPath)
{
    const Answer expected =
        referenceAnswer(framework, *bfs, graph, "mesh", measure);
    const Answer served =
        answerOf(framework.predict(*bfs, graph, "mesh", measure));
    EXPECT_TRUE(sameAnswer(expected, served));
}

TEST_F(CheckTest, PlantedWrongConfigIsAFailure)
{
    const Answer expected =
        referenceAnswer(framework, *bfs, graph, "mesh", measure);
    Tally tally;
    tally.attempted = 4;
    tally.checkOk(expected, expected);
    EXPECT_EQ(tally.failed(), 0u);

    Answer wrong_accelerator = expected;
    wrong_accelerator.accelerator =
        expected.accelerator == heteromap::AcceleratorKind::Gpu
            ? heteromap::AcceleratorKind::Multicore
            : heteromap::AcceleratorKind::Gpu;
    tally.checkOk(expected, wrong_accelerator);
    Answer wrong_threads = expected;
    wrong_threads.threads += 1;
    tally.checkOk(expected, wrong_threads);
    Answer one_ulp_off = expected;
    one_ulp_off.seconds = std::nextafter(
        expected.seconds, std::numeric_limits<double>::infinity());
    tally.checkOk(expected, one_ulp_off);

    EXPECT_EQ(tally.ok, 4u);
    EXPECT_EQ(tally.mismatches, 3u);
    EXPECT_EQ(tally.failed(), 3u);
    EXPECT_DOUBLE_EQ(tally.failedFrac(), 0.75);

    Report report;
    report.tally = tally;
    EXPECT_NE(report.json().find("\"correct\": false"), std::string::npos);
    EXPECT_NE(report.json().find("\"failed\": 3"), std::string::npos);
}

TEST(Spans, SelfTimeSubtractsMergedChildren)
{
    std::vector<Span> spans = {
        {"bench.replay", 0, 10'000'000, kNoParent, 1, 0},
        {"graph.measure", 2'000'000, 4'000'000, 0, 1, 0},
        {"graph.fingerprint", 3'000'000, 6'000'000, 0, 1, 0},
        {"workloads.profile", 8'000'000, 12'000'000, 0, 1, 0},
    };
    const std::vector<double> self = selfTimesMs(spans);
    // Children cover [2, 6] and [8, 10] of the parent: 6 ms of 10.
    EXPECT_DOUBLE_EQ(self[0], 4.0);
    EXPECT_DOUBLE_EQ(self[1], 2.0);
    const auto by_layer = selfTimeByLayerMs(spans);
    EXPECT_DOUBLE_EQ(by_layer.at("graph"), 5.0);
    EXPECT_DOUBLE_EQ(by_layer.at("bench"), 4.0);
    EXPECT_DOUBLE_EQ(by_layer.at("workloads"), 4.0);
}

TEST(Spans, RecorderNestsSpans)
{
    SpanRecorder recorder;
    const std::size_t outer = recorder.begin("bench.replay", kNoParent, 9);
    const std::size_t inner = recorder.begin("arch.oracle", outer, 9);
    recorder.end(inner);
    recorder.end(outer);
    const auto spans = recorder.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[1].requestId, 9u);
    EXPECT_LE(spans[0].startNs, spans[1].startNs);
    EXPECT_GE(spans[0].endNs, spans[1].endNs);
    EXPECT_EQ(layerOf("arch.oracle"), "arch");
}

} // namespace
} // namespace hmbench
