/**
 * @file
 * Unit tests for the graph-measurement substrate: golden GraphStats,
 * the merge-walk symmetry check, flat frontiers, direction-optimized
 * BFS, the exact content fingerprint, and the fingerprint-keyed
 * GraphStats and workload-profile memo caches.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "graph/builder.hh"
#include "graph/datasets.hh"
#include "graph/frontier.hh"
#include "graph/generators.hh"
#include "graph/props.hh"
#include "graph/stats_cache.hh"
#include "util/rng.hh"
#include "util/thread_pool.hh"
#include "workloads/betweenness.hh"
#include "workloads/bfs.hh"
#include "workloads/comm_detect.hh"
#include "workloads/conn_comp.hh"
#include "workloads/dfs.hh"
#include "workloads/pagerank.hh"
#include "workloads/pagerank_dp.hh"
#include "workloads/profile_cache.hh"
#include "workloads/sssp_bf.hh"
#include "workloads/sssp_delta.hh"
#include "workloads/synthetic.hh"

namespace heteromap {
namespace {

/** Byte-level GraphStats equality (the determinism contract). */
::testing::AssertionResult
statsBitEqual(const GraphStats &a, const GraphStats &b)
{
    static_assert(sizeof(GraphStats) == 7 * sizeof(uint64_t),
                  "GraphStats gained padding or fields; revisit memcmp");
    if (std::memcmp(&a, &b, sizeof(GraphStats)) == 0)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << "stats differ: " << a.toString() << " vs " << b.toString()
        << " (stddev " << a.degreeStddev << " vs " << b.degreeStddev
        << ")";
}

/** A graph with two path components plus isolated vertices. */
Graph
disconnectedGraph()
{
    GraphBuilder builder(64);
    for (VertexId v = 0; v < 9; ++v)
        builder.addEdge(v, v + 1);
    for (VertexId v = 20; v < 29; ++v)
        builder.addEdge(v, v + 1);
    return builder.symmetrize().build();
}

/** A directed (asymmetric) chain: 0 -> 1 -> ... -> n-1. */
Graph
directedChain(VertexId n)
{
    GraphBuilder builder(n);
    for (VertexId v = 0; v + 1 < n; ++v)
        builder.addEdge(v, v + 1);
    return builder.build();
}

// ---------------------------------------------------------------
// Golden stats: every GraphStats field, bit for bit, as recorded
// before graph measurement became serial. Any change to the degree
// sweep, the symmetry check or the traversal schedule that moves a
// single bit of any field fails here.
// ---------------------------------------------------------------

/** The golden fixtures: the nine Table I proxies, the serving-size
 *  families at 1k/4k/16k vertices, and the degenerate inputs. */
std::vector<std::pair<std::string, Graph>>
goldenGraphs()
{
    std::vector<std::pair<std::string, Graph>> out;
    for (const Dataset &d : evaluationDatasets())
        out.emplace_back("proxy-" + d.shortName(), Graph(d.proxy()));
    for (VertexId n : {VertexId{1024}, VertexId{4096}, VertexId{16384}}) {
        const std::string size = std::to_string(n);
        out.emplace_back("mesh-" + size, generateMesh(n, 8, n + 1));
        out.emplace_back("pa-" + size,
                         generatePreferentialAttachment(n, 4, n + 2));
        const auto width =
            static_cast<VertexId>(std::lround(std::sqrt(n)));
        out.emplace_back("road-" + size,
                         generateRoadGrid(width, n / width, n + 3));
        const auto scale =
            static_cast<unsigned>(std::lround(std::log2(n)));
        out.emplace_back("rmat-" + size,
                         generateRmat(scale, 8.0, n + 4));
    }
    out.emplace_back("directed-chain", directedChain(600));
    out.emplace_back("disconnected", disconnectedGraph());
    out.emplace_back("empty", Graph{});
    return out;
}

/** One golden row; the doubles are held as their bit patterns. */
struct GoldenStats {
    const char *name;
    uint64_t numVertices;
    uint64_t numEdges;
    uint64_t maxDegree;
    uint64_t avgDegreeBits;
    uint64_t diameter;
    uint64_t degreeStddevBits;
    uint64_t footprintBytes;
    bool symmetric;     //!< hasSymmetricAdjacency
    bool allowBottomUp; //!< the diameter sweeps' bottom-up decision
};

uint64_t
doubleBits(double x)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof bits);
    return bits;
}

TEST(PropsGoldenTest, StatsAreBitIdentical)
{
    // measureGraph(g) defaults: sweeps = 4, seed = 1.
    const GoldenStats golden[] = {
        {"proxy-CA", 12288u, 49184u, 6u, 0x401002aaaaaaaaabu, 222u,
         0x3fd1964b324f2538u, 491784u, true, true},
        {"proxy-FB", 8192u, 181928u, 2064u, 0x4036354000000000u, 6u,
         0x40519baf2739b0dau, 1520968u, true, true},
        {"proxy-LJ", 16384u, 473192u, 3832u, 0x403ce1a000000000u, 7u,
         0x4059ac93ae5d7446u, 3916616u, true, true},
        {"proxy-Twtr", 16384u, 579166u, 4388u, 0x4041acbc00000000u, 5u,
         0x4060bdce46976dc6u, 4764408u, true, true},
        {"proxy-Frnd", 20000u, 557584u, 1085u, 0x403be113404ea4a9u, 4u,
         0x40418a317caa9fa8u, 4620680u, true, true},
        {"proxy-CO", 562u, 282988u, 527u, 0x407f78990daa5cedu, 2u,
         0x401b8161eccf1ffeu, 2268408u, true, true},
        {"proxy-CAGE", 16384u, 294878u, 23u, 0x4031ff7800000000u, 6u,
         0x3feff077b6fb8f45u, 2490104u, true, true},
        {"proxy-Rgg", 40000u, 318906u, 21u, 0x401fe3fe5c91d14eu, 236u,
         0x4006ad39099883cdu, 2871256u, true, true},
        {"proxy-Kron", 16384u, 426446u, 3661u, 0x403a073800000000u, 6u,
         0x405796fdba044c94u, 3542648u, true, true},
        {"mesh-1024", 1024u, 8176u, 12u, 0x401ff00000000000u, 6u,
         0x3ff013742c658554u, 73608u, true, true},
        {"pa-1024", 1024u, 8034u, 160u, 0x401f620000000000u, 5u,
         0x40230923ab9ab436u, 72472u, true, true},
        {"road-1024", 1024u, 4004u, 5u, 0x400f480000000000u, 62u,
         0x3fd91e54010b36b7u, 40232u, true, true},
        {"rmat-1024", 1024u, 12188u, 351u, 0x4027ce0000000000u, 5u,
         0x4039f59e3735f853u, 105704u, true, true},
        {"mesh-4096", 4096u, 32752u, 13u, 0x401ffc0000000000u, 7u,
         0x3fef97449cd9198eu, 294792u, true, true},
        {"pa-4096", 4096u, 32554u, 253u, 0x401fca8000000000u, 6u,
         0x4024c4d5850de69du, 293208u, true, true},
        {"road-4096", 4096u, 16290u, 6u, 0x400fd10000000000u, 126u,
         0x3fd47d74ea580550u, 163096u, true, true},
        {"rmat-4096", 4096u, 53702u, 913u, 0x402a38c000000000u, 7u,
         0x4043358b41bcd347u, 462392u, true, true},
        {"mesh-16384", 16384u, 131056u, 14u, 0x401fff0000000000u, 8u,
         0x3ff002bf43a05c1bu, 1179528u, true, true},
        {"pa-16384", 16384u, 130858u, 612u, 0x401ff2a000000000u, 6u,
         0x402758d9abfe2dbeu, 1177944u, true, true},
        {"road-16384", 16384u, 65676u, 6u, 0x401008c000000000u, 254u,
         0x3fd1144a02a711c8u, 656488u, true, true},
        {"rmat-16384", 16384u, 228658u, 2449u, 0x402be99000000000u, 8u,
         0x404b9f439eaa961cu, 1960344u, true, true},
        {"directed-chain", 600u, 599u, 1u, 0x3feff258bf258bf2u, 0u,
         0x3fa4e287eddcbfe8u, 9600u, false, false},
        {"disconnected", 64u, 36u, 2u, 0x3fe2000000000000u, 9u,
         0x3feba3fb14672d7cu, 808u, true, false},
        {"empty", 0u, 0u, 0u, 0x0000000000000000u, 0u,
         0x0000000000000000u, 0u, true, false},
    };
    const auto graphs = goldenGraphs();
    ASSERT_EQ(graphs.size(), std::size(golden));
    for (std::size_t i = 0; i < graphs.size(); ++i) {
        const auto &[name, g] = graphs[i];
        const GoldenStats &want = golden[i];
        ASSERT_EQ(name, want.name);
        const GraphStats s = measureGraph(g);
        EXPECT_EQ(s.numVertices, want.numVertices) << name;
        EXPECT_EQ(s.numEdges, want.numEdges) << name;
        EXPECT_EQ(s.maxDegree, want.maxDegree) << name;
        EXPECT_EQ(doubleBits(s.avgDegree), want.avgDegreeBits) << name;
        EXPECT_EQ(s.diameter, want.diameter) << name;
        EXPECT_EQ(doubleBits(s.degreeStddev), want.degreeStddevBits)
            << name;
        EXPECT_EQ(s.footprintBytes, want.footprintBytes) << name;

        const bool symmetric = hasSymmetricAdjacency(g);
        const TraversalPlan plan =
            planTraversal(s.numVertices, s.numEdges, s.avgDegree,
                          s.degreeStddev);
        EXPECT_EQ(symmetric, want.symmetric) << name;
        EXPECT_EQ(plan.useBottomUp && symmetric, want.allowBottomUp)
            << name;
    }
}

TEST(PropsMeasureDeterminism, MatchesLegacyOverload)
{
    Graph g = generateUniformRandom(2000, 16000, 5);
    MeasureOptions options;
    options.sweeps = 4;
    options.seed = 1;
    EXPECT_TRUE(statsBitEqual(measureGraph(g), measureGraph(g, options)));
}

// ---------------------------------------------------------------
// Flat BFS: hop correctness, bottom-up levels, farthest tracking.
// ---------------------------------------------------------------

TEST(PropsFlatBfs, BottomUpHopsMatchTopDown)
{
    // Dense enough that the direction switch actually fires.
    const Graph graphs[] = {
        generateDenseEr(500, 0.3, 11),
        generateRmat(10, 16.0, 13),
    };
    for (const Graph &g : graphs) {
        ASSERT_TRUE(hasSymmetricAdjacency(g));
        for (VertexId source : {VertexId{0}, g.numVertices() / 2}) {
            auto expected = bfsHops(g, source); // serial, top-down

            std::vector<uint32_t> hops(g.numVertices(), UINT32_MAX);
            FrontierScratch scratch;
            scratch.prepare(g.numVertices());
            scratch.clearVisited();
            BfsOptions options;
            options.allowBottomUp = true;
            flatBfs(g, source, scratch, hops.data(), options);
            EXPECT_EQ(hops, expected);
        }
    }
}

TEST(PropsFlatBfs, FarthestIsMinIdOfDeepestLevel)
{
    // Star of paths: 0 joined to four arms; two arms tie for the
    // deepest level, and the min-id tip must win.
    GraphBuilder builder(10);
    builder.addEdge(0, 1); // arm A: 1
    builder.addEdge(0, 2); // arm B: 2 - 3
    builder.addEdge(2, 3);
    builder.addEdge(0, 4); // arm C: 4 - 5 - 6
    builder.addEdge(4, 5);
    builder.addEdge(5, 6);
    builder.addEdge(0, 7); // arm D: 7 - 8 - 9
    builder.addEdge(7, 8);
    builder.addEdge(8, 9);
    Graph g = builder.symmetrize().build();

    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult result = flatBfs(g, 0, scratch, nullptr);
    EXPECT_EQ(result.depth, 3u);
    EXPECT_EQ(result.farthest, 6u); // deepest level {6, 9}: min wins
    EXPECT_EQ(result.reached, 10u);

    scratch.clearVisited();
    BfsResult from_three = flatBfs(g, 3, scratch, nullptr);
    EXPECT_EQ(from_three.depth, 5u);
    EXPECT_EQ(from_three.farthest, 6u); // hop-5 level {6, 9}
}

TEST(PropsFlatBfs, IsolatedSourceReachesOnlyItself)
{
    Graph g = disconnectedGraph();
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult result = flatBfs(g, 60, scratch, nullptr);
    EXPECT_EQ(result.depth, 0u);
    EXPECT_EQ(result.farthest, 60u);
    EXPECT_EQ(result.reached, 1u);
}

TEST(PropsFlatBfs, VisitedBitmapPersistsAcrossRuns)
{
    Graph g = disconnectedGraph();
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    flatBfs(g, 0, scratch, nullptr);
    EXPECT_TRUE(scratch.isVisited(9));
    EXPECT_FALSE(scratch.isVisited(20));
    // Without clearVisited, the next flood claims only its component.
    BfsResult second = flatBfs(g, 20, scratch, nullptr);
    EXPECT_EQ(second.reached, 10u);
}

TEST(PropsSymmetry, DetectsSymmetricAndDirectedAdjacency)
{
    EXPECT_TRUE(hasSymmetricAdjacency(generateCycle(16)));
    EXPECT_TRUE(hasSymmetricAdjacency(disconnectedGraph()));
    EXPECT_FALSE(hasSymmetricAdjacency(directedChain(8)));
    EXPECT_TRUE(hasSymmetricAdjacency(Graph{}));
    EXPECT_TRUE(hasSymmetricAdjacency(generateRmat(12, 8.0, 21)));
}

/** CSR from per-vertex lists, kept in the given order. */
Graph
graphFromLists(const std::vector<std::vector<VertexId>> &lists)
{
    std::vector<EdgeId> offsets{0};
    std::vector<VertexId> neighbors;
    for (const auto &list : lists) {
        neighbors.insert(neighbors.end(), list.begin(), list.end());
        offsets.push_back(neighbors.size());
    }
    return Graph(std::move(offsets), std::move(neighbors));
}

/** The check's specification on sorted lists: a binary search for
 *  every reverse arc. */
bool
binarySearchSymmetric(const Graph &g)
{
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (VertexId u : g.neighbors(v)) {
            auto back = g.neighbors(u);
            if (!std::binary_search(back.begin(), back.end(), v))
                return false;
        }
    return true;
}

/** Order-free reference for unsorted lists: a linear search. */
bool
linearSearchSymmetric(const Graph &g)
{
    for (VertexId v = 0; v < g.numVertices(); ++v)
        for (VertexId u : g.neighbors(v)) {
            auto back = g.neighbors(u);
            if (std::find(back.begin(), back.end(), v) == back.end())
                return false;
        }
    return true;
}

/**
 * Seeded adjacency lists in one of four shapes: symmetric, directed,
 * symmetric with one arc dropped, symmetric with one arc duplicated.
 * All shapes draw self-loops and leave some vertices isolated.
 */
std::vector<std::vector<VertexId>>
seededLists(uint64_t seed, unsigned shape)
{
    Rng rng(seed);
    const auto n = static_cast<VertexId>(2 + rng.nextBounded(40));
    const auto edges = rng.nextBounded(3 * n);
    std::vector<std::vector<VertexId>> lists(n);
    // The top quarter of the ids never gets an arc: isolated vertices.
    const VertexId active = std::max<VertexId>(1, n - n / 4);
    for (uint64_t e = 0; e < edges; ++e) {
        const auto a = static_cast<VertexId>(rng.nextBounded(active));
        const auto b = rng.nextBool(0.1)
                           ? a
                           : static_cast<VertexId>(
                                 rng.nextBounded(active));
        lists[a].push_back(b);
        if (shape != 1)
            lists[b].push_back(a);
    }
    for (auto &list : lists) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }
    std::vector<VertexId> owners;
    for (VertexId v = 0; v < n; ++v)
        if (!lists[v].empty())
            owners.push_back(v);
    if (owners.empty() || shape < 2)
        return lists;
    auto &list = lists[owners[rng.nextBounded(owners.size())]];
    const auto at = static_cast<std::ptrdiff_t>(
        rng.nextBounded(list.size()));
    if (shape == 2)
        list.erase(list.begin() + at);
    else
        list.insert(list.begin() + at, list[at]);
    return lists;
}

TEST(PropsSymmetry, MergeWalkMatchesBinarySearchReference)
{
    std::size_t symmetric = 0;
    std::size_t asymmetric = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        for (unsigned shape = 0; shape < 4; ++shape) {
            const Graph g = graphFromLists(seededLists(seed, shape));
            const bool expected = binarySearchSymmetric(g);
            EXPECT_EQ(hasSymmetricAdjacency(g), expected)
                << "seed " << seed << " shape " << shape;
            ++(expected ? symmetric : asymmetric);
        }
    }
    // Both answers must be well represented for the match to mean
    // anything.
    EXPECT_GE(symmetric, 60u);
    EXPECT_GE(asymmetric, 60u);
}

TEST(PropsSymmetry, UnsortedAsymmetricListsAreNeverSymmetric)
{
    // 0 lists 2 before 1; 2 never lists 0 back.
    EXPECT_FALSE(hasSymmetricAdjacency(graphFromLists({{2, 1}, {0}, {}})));
    // Every reverse arc of 0 exists, but 1 lists 2, which does not
    // list 1.
    EXPECT_FALSE(
        hasSymmetricAdjacency(graphFromLists({{2, 1}, {2, 0}, {0}})));

    // Shuffled lists may hide a symmetric graph (a false negative,
    // which only disables bottom-up), never invent one.
    std::size_t asymmetric = 0;
    for (uint64_t seed = 1; seed <= 60; ++seed) {
        for (unsigned shape = 0; shape < 4; ++shape) {
            auto lists = seededLists(seed, shape);
            Rng rng(seed * 31 + shape);
            for (auto &list : lists)
                for (std::size_t i = list.size(); i > 1; --i)
                    std::swap(list[i - 1], list[rng.nextBounded(i)]);
            const Graph g = graphFromLists(lists);
            if (linearSearchSymmetric(g))
                continue;
            ++asymmetric;
            EXPECT_FALSE(hasSymmetricAdjacency(g))
                << "seed " << seed << " shape " << shape;
        }
    }
    EXPECT_GE(asymmetric, 60u);
}

TEST(PropsRegression, ComponentAndDiameterSemanticsUnchanged)
{
    EXPECT_EQ(countComponents(disconnectedGraph()), 46u); // 2 + 44
    EXPECT_EQ(approximateDiameter(generatePath(33), 4, 1), 32u);
    EXPECT_EQ(approximateDiameter(generateComplete(8), 4, 1), 1u);
    // Directed chain: hops follow out-arcs only, as before.
    auto hops = bfsHops(directedChain(5), 2);
    EXPECT_EQ(hops[4], 2u);
    EXPECT_EQ(hops[0], UINT32_MAX);
}

// ---------------------------------------------------------------
// Blocked stats sweep: byte-identical for any blocking factor (exact
// integer partials, one FP finalization).
// ---------------------------------------------------------------

TEST(PropsBlockedSweep, BlockingFactorNeverChangesStats)
{
    const Graph graphs[] = {
        generateUniformRandom(20000, 120000, 7),
        generateRmat(13, 8.0, 9),
        disconnectedGraph(),
        directedChain(600),
    };
    const std::size_t blocks[] = {1, 7, 64, 1000000};
    for (const Graph &g : graphs) {
        const GraphStats expected = measureGraph(g);
        for (std::size_t block : blocks) {
            MeasureOptions options;
            options.statsBlock = block;
            EXPECT_TRUE(statsBitEqual(measureGraph(g, options),
                                      expected))
                << "block=" << block;
        }
    }
}

TEST(PropsBlockedSweep, UniformDegreeStddevIsExactlyZero)
{
    // The integer variance expansion must cancel exactly on uniform
    // degrees, not just approximately.
    for (std::size_t block : {std::size_t{0}, std::size_t{3}}) {
        MeasureOptions options;
        options.statsBlock = block;
        EXPECT_DOUBLE_EQ(
            measureGraph(generateCycle(4096), options).degreeStddev,
            0.0);
    }
}

// ---------------------------------------------------------------
// Model-driven traversal selection: the plan steers only the
// schedule; outputs are identical to any fixed-threshold run.
// ---------------------------------------------------------------

TEST(PropsTraversalPlan, PolicyMatchesGraphShape)
{
    // Road-like sparse graph: bottom-up ruled out entirely.
    TraversalPlan road = planTraversal(1000, 1200, 1.2, 0.4);
    EXPECT_FALSE(road.useBottomUp);

    // Skewed power-law graph: eager switch, bitmap frontiers.
    TraversalPlan rmat = planTraversal(8192, 65536, 8.0, 24.0);
    EXPECT_TRUE(rmat.useBottomUp);
    EXPECT_TRUE(rmat.bitmapFrontier);
    EXPECT_NE(rmat.bottomUpEdgeDivisor, kBottomUpEdgeDivisor);

    // Moderate uniform graph: stock Beamer thresholds.
    TraversalPlan uniform = planTraversal(10000, 60000, 6.0, 0.5);
    EXPECT_TRUE(uniform.useBottomUp);
    EXPECT_FALSE(uniform.bitmapFrontier);
    EXPECT_EQ(uniform.bottomUpEdgeDivisor, kBottomUpEdgeDivisor);

    // Degenerate graphs never claim bottom-up.
    EXPECT_FALSE(planTraversal(1, 0, 0.0, 0.0).useBottomUp);
}

TEST(PropsTraversalPlan, PlanDrivenBfsMatchesFixedThresholds)
{
    const Graph graphs[] = {
        generateRmat(12, 8.0, 31),   // skewed: plan goes bitmap
        generateDenseEr(500, 0.3, 11),
        generatePath(4000),          // plan disables bottom-up
    };
    for (const Graph &g : graphs) {
        const GraphStats stats = measureGraph(g, 0, 1);
        const TraversalPlan plan =
            planTraversal(stats.numVertices, stats.numEdges,
                          stats.avgDegree, stats.degreeStddev);
        const bool symmetric = hasSymmetricAdjacency(g);

        BfsOptions fixed; // stock thresholds, array frontiers
        fixed.allowBottomUp = symmetric;
        BfsOptions planned;
        planned.allowBottomUp = symmetric && plan.useBottomUp;
        planned.bottomUpEdgeDivisor = plan.bottomUpEdgeDivisor;
        planned.topDownSizeDivisor = plan.topDownSizeDivisor;
        planned.bitmapFrontier = plan.bitmapFrontier;

        for (VertexId source : {VertexId{0}, g.numVertices() / 2}) {
            std::vector<uint32_t> expected_hops(g.numVertices(),
                                                UINT32_MAX);
            std::vector<uint32_t> hops(g.numVertices(), UINT32_MAX);
            FrontierScratch scratch;
            scratch.prepare(g.numVertices());

            scratch.clearVisited();
            BfsResult expected = flatBfs(g, source, scratch,
                                         expected_hops.data(), fixed);
            scratch.clearVisited();
            BfsResult got =
                flatBfs(g, source, scratch, hops.data(), planned);

            EXPECT_EQ(got.depth, expected.depth);
            EXPECT_EQ(got.farthest, expected.farthest);
            EXPECT_EQ(got.reached, expected.reached);
            EXPECT_EQ(hops, expected_hops);
        }
    }
}

TEST(PropsFlatBfs, BitmapFrontierMatchesArrayFrontier)
{
    // Force bitmap mode on its own (independent of the plan) against
    // the stock array path, including the narrow->wide->narrow
    // transition in and out of bit form.
    Graph g = generateRmat(11, 16.0, 41);
    ASSERT_TRUE(hasSymmetricAdjacency(g));
    BfsOptions array_opts;
    array_opts.allowBottomUp = true;
    BfsOptions bitmap_opts = array_opts;
    bitmap_opts.bitmapFrontier = true;

    std::vector<uint32_t> a(g.numVertices(), UINT32_MAX);
    std::vector<uint32_t> b(g.numVertices(), UINT32_MAX);
    FrontierScratch scratch;
    scratch.prepare(g.numVertices());
    scratch.clearVisited();
    BfsResult ra = flatBfs(g, 0, scratch, a.data(), array_opts);
    scratch.clearVisited();
    BfsResult rb = flatBfs(g, 0, scratch, b.data(), bitmap_opts);
    EXPECT_EQ(ra.depth, rb.depth);
    EXPECT_EQ(ra.farthest, rb.farthest);
    EXPECT_EQ(ra.reached, rb.reached);
    EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------
// Fingerprints and the memo cache.
// ---------------------------------------------------------------

TEST(PropsFingerprint, SameCountsDifferentStructureDiffer)
{
    // Path and star on 4 vertices: identical V and arc counts.
    GraphBuilder path_builder(4);
    path_builder.addEdge(0, 1);
    path_builder.addEdge(1, 2);
    path_builder.addEdge(2, 3);
    Graph path = path_builder.symmetrize().build();

    GraphBuilder star_builder(4);
    star_builder.addEdge(0, 1);
    star_builder.addEdge(0, 2);
    star_builder.addEdge(0, 3);
    Graph star = star_builder.symmetrize().build();

    ASSERT_EQ(path.numVertices(), star.numVertices());
    ASSERT_EQ(path.numEdges(), star.numEdges());
    EXPECT_FALSE(fingerprintGraph(path) == fingerprintGraph(star));
}

TEST(PropsFingerprint, SingleEdgeChangeChangesFingerprint)
{
    Graph base = generateUniformRandom(200, 800, 3);
    GraphBuilder builder(base.numVertices());
    for (VertexId v = 0; v < base.numVertices(); ++v)
        for (VertexId u : base.neighbors(v))
            builder.addEdge(v, u);
    // Redirect one arc; counts stay identical.
    Graph tweaked = [&] {
        GraphBuilder other(base.numVertices());
        bool flipped = false;
        for (VertexId v = 0; v < base.numVertices(); ++v) {
            for (VertexId u : base.neighbors(v)) {
                VertexId target = u;
                if (!flipped) {
                    target = (u + 1) % base.numVertices();
                    flipped = true;
                }
                other.addEdge(v, target);
            }
        }
        return other.build();
    }();
    ASSERT_EQ(base.numEdges(), tweaked.numEdges());
    EXPECT_FALSE(fingerprintGraph(base) == fingerprintGraph(tweaked));
}

TEST(PropsFingerprint, ContentBasedAcrossCopies)
{
    Graph g = generateRmat(8, 6.0, 17);
    Graph copy = g;
    EXPECT_TRUE(fingerprintGraph(g) == fingerprintGraph(copy));
}

/**
 * A 100-vertex graph whose 20000 neighbor entries are i % 100: large
 * enough that a stride-sampled key (one element in every
 * 20000 / 4096 = 4, from index 0) never reads index 1.
 */
Graph
wideGraph(VertexId index1_target, std::vector<float> weights = {})
{
    constexpr VertexId kVertices = 100;
    constexpr EdgeId kEdges = 20000;
    std::vector<EdgeId> offsets(kVertices + 1);
    for (VertexId v = 0; v <= kVertices; ++v)
        offsets[v] = kEdges / kVertices * v;
    std::vector<VertexId> neighbors(kEdges);
    for (EdgeId e = 0; e < kEdges; ++e)
        neighbors[e] = static_cast<VertexId>(e % kVertices);
    neighbors[1] = index1_target;
    return Graph(std::move(offsets), std::move(neighbors),
                 std::move(weights));
}

TEST(PropsFingerprint, EveryElementIsHashedNotASample)
{
    const Graph base = wideGraph(1);
    const Graph tweaked = wideGraph(7); // differs only at index 1
    ASSERT_GT(base.numEdges(), 4096u);
    ASSERT_EQ(base.footprintBytes(), tweaked.footprintBytes());
    EXPECT_FALSE(fingerprintGraph(base) == fingerprintGraph(tweaked));
    EXPECT_NE(mixFingerprint(fingerprintGraph(base)),
              mixFingerprint(fingerprintGraph(tweaked)));
}

TEST(PropsFingerprint, WeightsArePartOfTheContent)
{
    std::vector<float> light(20000, 1.0f);
    std::vector<float> heavy = light;
    heavy[12345] = 2.5f; // same structure, one different weight
    const Graph a = wideGraph(1, light);
    const Graph b = wideGraph(1, heavy);
    ASSERT_EQ(a.offsets(), b.offsets());
    ASSERT_EQ(a.rawNeighbors(), b.rawNeighbors());
    EXPECT_FALSE(fingerprintGraph(a) == fingerprintGraph(b));

    GraphStatsCache cache(4);
    cache.measure(a);
    cache.measure(b);
    EXPECT_EQ(cache.misses(), 2u);
}

TEST(PropsFingerprint, ComputedOnceAndTracksMoves)
{
    Graph g = generateRmat(8, 6.0, 17);
    // An O(1) read of the value stored at construction.
    EXPECT_EQ(&fingerprintGraph(g), &g.fingerprint());
    const GraphFingerprint before = fingerprintGraph(g);

    Graph moved = std::move(g);
    EXPECT_TRUE(fingerprintGraph(moved) == before);
    // The moved-from graph is empty, and fingerprints as empty.
    EXPECT_EQ(g.numVertices(), 0u);
    EXPECT_TRUE(fingerprintGraph(g) == fingerprintGraph(Graph()));

    Graph assigned;
    assigned = std::move(moved);
    EXPECT_TRUE(fingerprintGraph(assigned) == before);
    EXPECT_TRUE(fingerprintGraph(moved) == fingerprintGraph(Graph()));
}

TEST(PropsStatsCache, HitMissAndValueCorrectness)
{
    GraphStatsCache cache(8);
    Graph g = generateUniformRandom(1000, 6000, 5);

    GraphStats cold = cache.measure(g);
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_TRUE(statsBitEqual(cold, measureGraph(g)));

    GraphStats warm = cache.measure(g);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_TRUE(statsBitEqual(cold, warm));

    // A structural copy hits: the key is content, not identity.
    Graph copy = g;
    cache.measure(copy);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PropsStatsCache, CollisionSafetyServesEachGraphItsOwnStats)
{
    GraphStatsCache cache(8);
    Graph path = generatePath(4);
    GraphBuilder star_builder(4);
    star_builder.addEdge(0, 1);
    star_builder.addEdge(0, 2);
    star_builder.addEdge(0, 3);
    Graph star = star_builder.symmetrize().build();
    ASSERT_EQ(path.numVertices(), star.numVertices());
    ASSERT_EQ(path.numEdges(), star.numEdges());

    EXPECT_EQ(cache.measure(path).maxDegree, 2u);
    EXPECT_EQ(cache.measure(star).maxDegree, 3u);
    EXPECT_EQ(cache.measure(path).diameter, 3u);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(PropsStatsCache, MeasurementParametersArePartOfTheKey)
{
    GraphStatsCache cache(8);
    Graph g = generateCycle(64);
    MeasureOptions with_sweeps;
    MeasureOptions no_sweeps;
    no_sweeps.sweeps = 0;

    EXPECT_EQ(cache.measure(g, with_sweeps).diameter, 32u);
    EXPECT_EQ(cache.measure(g, no_sweeps).diameter, 0u);
    EXPECT_EQ(cache.misses(), 2u);

    MeasureOptions other_seed;
    other_seed.seed = 99;
    cache.measure(g, other_seed);
    EXPECT_EQ(cache.misses(), 3u);
}

TEST(PropsStatsCache, LruEvictionAtCapacity)
{
    GraphStatsCache cache(2);
    Graph g1 = generateCycle(10);
    Graph g2 = generateCycle(12);
    Graph g3 = generateCycle(14);

    cache.measure(g1);
    cache.measure(g2);
    EXPECT_EQ(cache.evictions(), 0u);
    cache.measure(g1); // refresh g1: g2 becomes LRU
    cache.measure(g3); // evicts g2
    EXPECT_EQ(cache.evictions(), 1u);
    EXPECT_EQ(cache.size(), 2u);

    EXPECT_TRUE(cache.peek(g1).has_value());
    EXPECT_FALSE(cache.peek(g2).has_value());
    EXPECT_TRUE(cache.peek(g3).has_value());

    cache.measure(g2); // miss again after eviction
    EXPECT_EQ(cache.misses(), 4u);
}

TEST(PropsStatsCache, ConcurrentMissesConverge)
{
    GraphStatsCache cache(8);
    Graph g = generateRmat(10, 8.0, 29);
    const GraphStats expected = measureGraph(g);

    // Collect in workers, assert on the main thread.
    std::vector<GraphStats> results(8);
    ThreadPool pool(4);
    pool.parallelFor(8, [&](std::size_t i) {
        results[i] = cache.measure(g);
    });
    for (const GraphStats &stats : results)
        EXPECT_TRUE(statsBitEqual(stats, expected));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), 8u);
}

TEST(PropsStatsCache, GlobalCacheIsWiredAndMemoizes)
{
    GraphStatsCache &cache = globalStatsCache();
    Graph g = generateUniformRandom(500, 3000, 23);
    const uint64_t hits_before = cache.hits();
    GraphStats first = cache.measure(g);
    GraphStats second = cache.measure(g);
    EXPECT_TRUE(statsBitEqual(first, second));
    EXPECT_GE(cache.hits(), hits_before + 1);
}

/** Field-by-field, bit-level WorkloadProfile equality. */
::testing::AssertionResult
profilesBitEqual(const WorkloadProfile &a, const WorkloadProfile &b)
{
    auto same = [](double x, double y) {
        return std::memcmp(&x, &y, sizeof x) == 0;
    };
    if (a.barriers != b.barriers || a.iterations != b.iterations ||
        a.phases.size() != b.phases.size())
        return ::testing::AssertionFailure() << "profile shapes differ";
    for (std::size_t i = 0; i < a.phases.size(); ++i) {
        const PhaseProfile &p = a.phases[i];
        const PhaseProfile &q = b.phases[i];
        const bool equal =
            p.name == q.name && p.kind == q.kind &&
            p.invocations == q.invocations &&
            p.workItems == q.workItems && same(p.intOps, q.intOps) &&
            same(p.fpOps, q.fpOps) &&
            same(p.directAccesses, q.directAccesses) &&
            same(p.indirectAccesses, q.indirectAccesses) &&
            same(p.sharedReadBytes, q.sharedReadBytes) &&
            same(p.sharedWriteBytes, q.sharedWriteBytes) &&
            same(p.localBytes, q.localBytes) &&
            same(p.atomics, q.atomics) &&
            same(p.maxItemCost, q.maxItemCost) &&
            p.bucketCost.size() == q.bucketCost.size() &&
            std::memcmp(p.bucketCost.data(), q.bucketCost.data(),
                        sizeof(double) * p.bucketCost.size()) == 0;
        if (!equal)
            return ::testing::AssertionFailure()
                << "phase " << p.name << " differs";
    }
    return ::testing::AssertionSuccess();
}

TEST(PropsProfileCache, HitsReturnTheExecutedProfile)
{
    ProfileCache cache(8);
    const Graph g = generateRmat(9, 8.0, 31);
    const PageRank pagerank;
    const WorkloadProfile expected = pagerank.runProfiled(g).second;

    EXPECT_TRUE(profilesBitEqual(cache.profile(pagerank, g), expected));
    EXPECT_TRUE(profilesBitEqual(cache.profile(pagerank, g), expected));
    // A structural copy and a fresh instance of the same workload hit.
    const Graph copy = g;
    EXPECT_TRUE(
        profilesBitEqual(cache.profile(PageRank(), copy), expected));
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PropsProfileCache, CountersAreExactUnderEviction)
{
    ProfileCache cache(2);
    const Graph g = generateUniformRandom(300, 1500, 37);
    const PageRank pagerank;
    const Bfs bfs;
    const ConnectedComponents conn;

    cache.profile(pagerank, g); // miss
    cache.profile(pagerank, g); // hit
    cache.profile(bfs, g);      // miss
    EXPECT_EQ(cache.evictions(), 0u);
    cache.profile(conn, g);     // miss, evicts PR (least recent)
    cache.profile(pagerank, g); // miss again, evicts BFS
    EXPECT_EQ(cache.misses(), 4u);
    EXPECT_EQ(cache.hits(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.size(), 2u);
    cache.profile(conn, g); // still resident
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PropsProfileCache, WorkloadParametersArePartOfTheKey)
{
    ProfileCache cache(8);
    const Graph g = generateRmat(8, 6.0, 41);
    const PageRank standard;
    const PageRank short_run(0.5, 2);
    ASSERT_EQ(standard.name(), short_run.name());

    const WorkloadProfile a = cache.profile(standard, g);
    const WorkloadProfile b = cache.profile(short_run, g);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_NE(a.iterations, b.iterations);
    EXPECT_TRUE(profilesBitEqual(b, short_run.runProfiled(g).second));
}

TEST(PropsProfileCache, IdentityCoversEveryParameter)
{
    // Same name(), different parameters: identities must differ.
    const std::pair<std::unique_ptr<Workload>, std::unique_ptr<Workload>>
        pairs[] = {
            {std::make_unique<PageRank>(), std::make_unique<PageRank>(
                                               0.85, 20, 1e-6)},
            {std::make_unique<PageRankDp>(),
             std::make_unique<PageRankDp>(0.9)},
            {std::make_unique<SsspDelta>(),
             std::make_unique<SsspDelta>(0, 3)},
            {std::make_unique<SsspBellmanFord>(),
             std::make_unique<SsspBellmanFord>(5)},
            {std::make_unique<Bfs>(), std::make_unique<Bfs>(2)},
            {std::make_unique<Dfs>(), std::make_unique<Dfs>(2)},
            {std::make_unique<BetweennessCentrality>(),
             std::make_unique<BetweennessCentrality>(4)},
            {std::make_unique<CommunityDetection>(),
             std::make_unique<CommunityDetection>(3)},
            // name() shows only the low 16 bits of the seed.
            {std::make_unique<SyntheticWorkload>(BVariables{}, 0x10001),
             std::make_unique<SyntheticWorkload>(BVariables{}, 0x20001)},
        };
    for (const auto &[a, b] : pairs) {
        EXPECT_EQ(a->name(), b->name());
        EXPECT_NE(a->identity(), b->identity()) << a->identity();
    }
}

TEST(PropsProfileCache, ConcurrentMissesConverge)
{
    ProfileCache cache(8);
    const Graph g = generateRmat(10, 8.0, 43);
    const Bfs bfs;
    const WorkloadProfile expected = bfs.runProfiled(g).second;

    std::vector<WorkloadProfile> results(8);
    ThreadPool pool(4);
    pool.parallelFor(8, [&](std::size_t i) {
        results[i] = cache.profile(bfs, g);
    });
    for (const WorkloadProfile &profile : results)
        EXPECT_TRUE(profilesBitEqual(profile, expected));
    EXPECT_EQ(cache.size(), 1u);
    EXPECT_EQ(cache.hits() + cache.misses(), 8u);
    EXPECT_GE(cache.misses(), 1u);
}

TEST(PropsProfileCache, GlobalCacheMirrorsRegistryCounters)
{
    ProfileCache &cache = globalProfileCache();
    const Graph g = generateUniformRandom(400, 2000, 47);
    const PageRank pagerank;
    const uint64_t hits_before = cache.hits();
    cache.profile(pagerank, g);
    cache.profile(pagerank, g);
    EXPECT_GE(cache.hits(), hits_before + 1);
    EXPECT_EQ(cache.hits(),
              telemetry::registry().counter("profile_cache.hits").value());
    EXPECT_EQ(
        cache.misses(),
        telemetry::registry().counter("profile_cache.misses").value());
}

} // namespace
} // namespace heteromap
