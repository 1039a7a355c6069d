/**
 * @file
 * Unit tests for the parallel graph-measurement substrate: flat
 * frontiers, direction-optimized BFS, the thread-count determinism
 * contract of measureGraph, the exact content fingerprint, and the
 * fingerprint-keyed GraphStats and workload-profile memo caches.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "graph/builder.hh"
#include "graph/frontier.hh"
#include "graph/generators.hh"
#include "graph/props.hh"
#include "graph/stats_cache.hh"
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
// Determinism: byte-identical GraphStats for any thread count.
// ---------------------------------------------------------------

class PropsMeasureDeterminism
    : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(PropsMeasureDeterminism, UniformKroneckerAndDisconnected)
{
    // Sized so the degree sweep and mid-BFS levels clear the
    // kParallelGrain threshold and genuinely fan out.
    const Graph graphs[] = {
        generateUniformRandom(20000, 120000, 7),
        generateRmat(15, 8.0, 9),
        disconnectedGraph(),
        directedChain(600),
    };
    for (const Graph &g : graphs) {
        MeasureOptions serial;
        serial.threads = 1;
        MeasureOptions fanned;
        fanned.threads = GetParam();
        EXPECT_TRUE(statsBitEqual(measureGraph(g, serial),
                                  measureGraph(g, fanned)));
    }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, PropsMeasureDeterminism,
                         ::testing::Values(1, 2, 8));

TEST(PropsMeasureDeterminism, SharedPoolMatchesSerial)
{
    Graph g = generateRmat(11, 10.0, 3);
    MeasureOptions serial;
    serial.threads = 1;
    MeasureOptions shared; // threads = 0: shared pool
    EXPECT_TRUE(statsBitEqual(measureGraph(g, serial),
                              measureGraph(g, shared)));
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
    ThreadPool pool(2);
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
            options.pool = &pool;
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

    ThreadPool pool(2);
    Graph big = generateRmat(12, 8.0, 21);
    EXPECT_EQ(hasSymmetricAdjacency(big, &pool),
              hasSymmetricAdjacency(big));
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
// Blocked stats sweep: byte-identical for any thread count AND any
// blocking factor (exact integer partials, one FP finalization).
// ---------------------------------------------------------------

TEST(PropsBlockedSweep, BlockingFactorNeverChangesStats)
{
    const Graph graphs[] = {
        generateUniformRandom(20000, 120000, 7),
        generateRmat(13, 8.0, 9),
        disconnectedGraph(),
        directedChain(600),
    };
    const std::size_t thread_counts[] = {1, 2, 8};
    const std::size_t blocks[] = {0, 1, 7, 64, 1000000};
    for (const Graph &g : graphs) {
        MeasureOptions reference;
        reference.threads = 1;
        const GraphStats expected = measureGraph(g, reference);
        for (std::size_t threads : thread_counts) {
            for (std::size_t block : blocks) {
                MeasureOptions options;
                options.threads = threads;
                options.statsBlock = block;
                EXPECT_TRUE(statsBitEqual(measureGraph(g, options),
                                          expected))
                    << "threads=" << threads << " block=" << block;
            }
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
    ThreadPool pool(2);
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
        planned.pool = &pool;

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
        MeasureOptions serial_inner;
        serial_inner.threads = 1; // no nested pools inside workers
        results[i] = cache.measure(g, serial_inner);
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
