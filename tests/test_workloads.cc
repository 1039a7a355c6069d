/**
 * @file
 * Correctness tests for the nine graph benchmarks against independent
 * reference implementations, plus profile-shape checks (the counters
 * the performance models consume must reflect each algorithm's
 * documented behaviour).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>

#include "graph/builder.hh"
#include "graph/generators.hh"
#include "graph/props.hh"
#include "util/logging.hh"
#include "workloads/registry.hh"
#include "workloads/reference.hh"

namespace heteromap {
namespace {

/** Shared small test graphs. */
class WorkloadTest : public ::testing::Test
{
  protected:
    static Graph
    weightedGraph()
    {
        return generateUniformRandom(300, 1500, 5);
    }

    static Graph
    roadGraph()
    {
        return generateRoadGrid(20, 15, 6);
    }
};

TEST_F(WorkloadTest, SsspBfMatchesDijkstra)
{
    Graph g = weightedGraph();
    auto [out, profile] = makeWorkload("SSSP-BF")->runProfiled(g);
    auto ref = referenceDijkstra(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (out.vertexValues[v] >= kUnreachable) {
            EXPECT_GT(ref[v], INT64_MAX / 8) << "vertex " << v;
        } else {
            EXPECT_DOUBLE_EQ(out.vertexValues[v],
                             static_cast<double>(ref[v]))
                << "vertex " << v;
        }
    }
    EXPECT_GT(profile.iterations, 0u);
}

TEST_F(WorkloadTest, SsspDeltaMatchesDijkstra)
{
    Graph g = weightedGraph();
    auto [out, profile] = makeWorkload("SSSP-Delta")->runProfiled(g);
    auto ref = referenceDijkstra(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (out.vertexValues[v] >= kUnreachable) {
            EXPECT_GT(ref[v], INT64_MAX / 8);
        } else {
            EXPECT_DOUBLE_EQ(out.vertexValues[v],
                             static_cast<double>(ref[v]));
        }
    }
    // Delta-stepping must exercise its push-pop and reduction phases.
    EXPECT_NE(profile.findPhase("bucket-pop"), nullptr);
    EXPECT_NE(profile.findPhase("bucket-select"), nullptr);
}

TEST_F(WorkloadTest, SsspVariantsAgreeOnRoadNetwork)
{
    Graph g = roadGraph();
    auto bf = makeWorkload("SSSP-BF")->runProfiled(g).first;
    auto delta = makeWorkload("SSSP-Delta")->runProfiled(g).first;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(bf.vertexValues[v], delta.vertexValues[v]);
}

TEST_F(WorkloadTest, BfsMatchesReferenceHops)
{
    Graph g = weightedGraph();
    auto [out, profile] = makeWorkload("BFS")->runProfiled(g);
    auto ref = bfsHops(g, 0);
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        if (ref[v] == UINT32_MAX)
            EXPECT_GE(out.vertexValues[v], kUnreachable);
        else
            EXPECT_DOUBLE_EQ(out.vertexValues[v],
                             static_cast<double>(ref[v]));
    }
    EXPECT_NE(profile.findPhase("frontier"), nullptr);
    EXPECT_EQ(profile.findPhase("frontier")->kind,
              PhaseKind::ParetoDynamic);
}

TEST_F(WorkloadTest, DfsReachesExactlyTheComponent)
{
    Graph g = roadGraph();
    auto [out, profile] = makeWorkload("DFS")->runProfiled(g);
    auto ref = bfsHops(g, 0);
    uint64_t reachable = 0;
    for (VertexId v = 0; v < g.numVertices(); ++v) {
        bool dfs_reached = out.vertexValues[v] < kUnreachable;
        bool bfs_reached = ref[v] != UINT32_MAX;
        EXPECT_EQ(dfs_reached, bfs_reached) << "vertex " << v;
        reachable += bfs_reached;
    }
    EXPECT_DOUBLE_EQ(out.scalar, static_cast<double>(reachable));
    EXPECT_EQ(profile.findPhase("stack-pop")->kind,
              PhaseKind::PushPop);
}

TEST_F(WorkloadTest, PageRankMatchesReference)
{
    Graph g = weightedGraph();
    auto out = makeWorkload("PR")->runProfiled(g).first;
    auto ref = referencePageRank(g);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(out.vertexValues[v], ref[v], 1e-9);
}

TEST_F(WorkloadTest, PageRankSumsToOne)
{
    Graph g = generatePreferentialAttachment(500, 3, 9);
    auto out = makeWorkload("PR")->runProfiled(g).first;
    double sum = 0.0;
    for (double r : out.vertexValues)
        sum += r;
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST_F(WorkloadTest, PageRankDpAgreesWithPullVariant)
{
    Graph g = weightedGraph();
    auto pull = makeWorkload("PR")->runProfiled(g).first;
    auto push = makeWorkload("PR-DP")->runProfiled(g).first;
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_NEAR(pull.vertexValues[v], push.vertexValues[v], 1e-9);
}

TEST_F(WorkloadTest, PageRankDpHasFarMoreAtomics)
{
    Graph g = weightedGraph();
    auto pull = makeWorkload("PR")->runProfiled(g).second;
    auto push = makeWorkload("PR-DP")->runProfiled(g).second;
    EXPECT_GT(push.totalAtomics(), 5.0 * pull.totalAtomics());
}

TEST_F(WorkloadTest, TriangleCountMatchesBruteForce)
{
    Graph g = generateUniformRandom(60, 400, 11);
    auto out = makeWorkload("TRI")->runProfiled(g).first;
    EXPECT_DOUBLE_EQ(out.scalar,
                     static_cast<double>(referenceTriangles(g)));
}

TEST_F(WorkloadTest, TriangleCountOnKnownShapes)
{
    EXPECT_DOUBLE_EQ(
        makeWorkload("TRI")->runProfiled(generateComplete(5))
            .first.scalar,
        10.0); // C(5,3)
    EXPECT_DOUBLE_EQ(
        makeWorkload("TRI")->runProfiled(generateCycle(8))
            .first.scalar,
        0.0);
    EXPECT_DOUBLE_EQ(
        makeWorkload("TRI")->runProfiled(generateStar(6))
            .first.scalar,
        0.0);
}

TEST_F(WorkloadTest, CommunityDetectionFindsPlantedClusters)
{
    // Two dense cliques joined by one bridge edge.
    GraphBuilder builder(20);
    for (VertexId u = 0; u < 10; ++u)
        for (VertexId v = u + 1; v < 10; ++v)
            builder.addEdge(u, v, 4.0f);
    for (VertexId u = 10; u < 20; ++u)
        for (VertexId v = u + 1; v < 20; ++v)
            builder.addEdge(u, v, 4.0f);
    builder.addEdge(0, 10, 0.1f);
    Graph g = builder.symmetrize().build();

    auto out = makeWorkload("COMM")->runProfiled(g).first;
    std::set<double> left(out.vertexValues.begin(),
                          out.vertexValues.begin() + 10);
    std::set<double> right(out.vertexValues.begin() + 10,
                           out.vertexValues.end());
    EXPECT_EQ(left.size(), 1u);
    EXPECT_EQ(right.size(), 1u);
    EXPECT_NE(*left.begin(), *right.begin());
}

TEST_F(WorkloadTest, ConnectedComponentsMatchReference)
{
    GraphBuilder builder(50);
    // Three components: a path, a cycle, and isolated vertices.
    for (VertexId v = 0; v < 14; ++v)
        builder.addEdge(v, v + 1);
    for (VertexId v = 20; v < 30; ++v)
        builder.addEdge(v, v == 29 ? 20 : v + 1);
    Graph g = builder.symmetrize().build();

    auto out = makeWorkload("CONN")->runProfiled(g).first;
    auto ref = referenceComponents(g);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(out.vertexValues[v],
                         static_cast<double>(ref[v]));
    EXPECT_DOUBLE_EQ(out.scalar,
                     static_cast<double>(countComponents(g)));
}

TEST_F(WorkloadTest, ConnCompOnRandomGraphAgainstBfsLabels)
{
    Graph g = generateUniformRandom(400, 600, 13);
    auto out = makeWorkload("CONN")->runProfiled(g).first;
    auto ref = referenceComponents(g);
    for (VertexId v = 0; v < g.numVertices(); ++v)
        EXPECT_DOUBLE_EQ(out.vertexValues[v],
                         static_cast<double>(ref[v]));
}

TEST_F(WorkloadTest, RegistryRoundTrip)
{
    EXPECT_EQ(workloadNames().size(), 9u);
    for (const auto &name : workloadNames())
        EXPECT_EQ(makeWorkload(name)->name(), name);
    EXPECT_THROW(makeWorkload("BOGUS"), FatalError);
}

TEST_F(WorkloadTest, RoadGraphNeedsManyMoreIterationsThanSocial)
{
    // The input-dependence that drives the whole paper: iteration
    // counts follow the graph diameter.
    Graph road = generateRoadGrid(40, 40, 14);
    Graph social = generatePreferentialAttachment(1600, 6, 14);
    auto road_prof = makeWorkload("SSSP-BF")->runProfiled(road).second;
    auto social_prof =
        makeWorkload("SSSP-BF")->runProfiled(social).second;
    EXPECT_GT(road_prof.iterations, 4 * social_prof.iterations);
}

TEST_F(WorkloadTest, ProfilesExposeDocumentedPhaseKinds)
{
    Graph g = weightedGraph();
    auto prof = makeWorkload("PR")->runProfiled(g).second;
    EXPECT_EQ(prof.findPhase("gather")->kind,
              PhaseKind::VertexDivision);
    EXPECT_EQ(prof.findPhase("error-reduce")->kind,
              PhaseKind::Reduction);
    EXPECT_GT(prof.findPhase("gather")->fpOps, 0.0);
    EXPECT_GT(prof.barriers, 0u);
}

TEST_F(WorkloadTest, FpHeavyWorkloadsMeasureFpHeavy)
{
    // Measured profiles must reflect the static B6 classification.
    Graph g = weightedGraph();
    auto pr = makeWorkload("PR")->runProfiled(g).second;
    auto bfs = makeWorkload("BFS")->runProfiled(g).second;
    auto fp_ops = [](const WorkloadProfile &prof) {
        double total = 0.0;
        for (const auto &phase : prof.phases)
            total += phase.fpOps;
        return total;
    };
    double pr_fp_share =
        pr.totalOps() > 0.0 ? fp_ops(pr) / pr.totalOps() : 0.0;
    double bfs_fp_share =
        bfs.totalOps() > 0.0 ? fp_ops(bfs) / bfs.totalOps() : 0.0;
    EXPECT_GT(pr_fp_share, 0.4);
    EXPECT_LT(bfs_fp_share, 0.05);
}

TEST_F(WorkloadTest, OutputsAreDeterministic)
{
    Graph g = weightedGraph();
    for (const auto &name : workloadNames()) {
        auto a = makeWorkload(name)->runProfiled(g).first;
        auto b = makeWorkload(name)->runProfiled(g).first;
        EXPECT_EQ(a.vertexValues, b.vertexValues) << name;
        EXPECT_DOUBLE_EQ(a.scalar, b.scalar) << name;
    }
}

/** FNV-1a over raw bytes, continuing from @p h. */
uint64_t
fnv1a(uint64_t h, const void *data, std::size_t len)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

template <typename T>
uint64_t
fnvValue(uint64_t h, const T &value)
{
    return fnv1a(h, &value, sizeof(value));
}

/**
 * Digest of everything a run produces: every PhaseProfile field
 * (doubles by bit pattern), the bucket histograms, the global
 * barrier/iteration counts, the per-vertex values and the scalar.
 */
uint64_t
runDigest(const WorkloadOutput &out, const WorkloadProfile &prof)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &ph : prof.phases) {
        h = fnv1a(h, ph.name.data(), ph.name.size());
        h = fnvValue(h, static_cast<int>(ph.kind));
        for (uint64_t count : {ph.invocations, ph.workItems})
            h = fnvValue(h, count);
        for (double field :
             {ph.intOps, ph.fpOps, ph.directAccesses, ph.indirectAccesses,
              ph.sharedReadBytes, ph.sharedWriteBytes, ph.localBytes,
              ph.atomics, ph.maxItemCost})
            h = fnvValue(h, field);
        h = fnv1a(h, ph.bucketCost.data(),
                  ph.bucketCost.size() * sizeof(double));
    }
    h = fnvValue(h, prof.barriers);
    h = fnvValue(h, prof.iterations);
    h = fnv1a(h, out.vertexValues.data(),
              out.vertexValues.size() * sizeof(double));
    return fnvValue(h, out.scalar);
}

/** Ring lattice with small integer weights, so COMM scores tie. */
Graph
tiedWeightMesh()
{
    const VertexId n = 400;
    GraphBuilder builder(n);
    for (VertexId v = 0; v < n; ++v) {
        for (VertexId k = 1; k <= 3; ++k) {
            VertexId u = (v + k) % n;
            builder.addEdge(v, u, static_cast<float>(1 + (v + u) % 2));
        }
        builder.addEdge(v, (v * 37 + 11) % n, 2.0f);
    }
    return builder.symmetrize().dedup().dropSelfLoops().build();
}

/**
 * Low-degree graph: ten disjoint triangles (every TRI intersection
 * probes a list of size 2, below the two-probe floor), a sparse
 * pseudo-random remainder, a pendant vertex and an isolated vertex.
 */
Graph
lowDegreeGraph()
{
    const VertexId n = 160;
    GraphBuilder builder(n);
    for (VertexId t = 0; t < 10; ++t) {
        builder.addEdge(3 * t, 3 * t + 1);
        builder.addEdge(3 * t + 1, 3 * t + 2);
        builder.addEdge(3 * t + 2, 3 * t);
    }
    uint64_t state = 0x243f6a8885a308d3ULL;
    for (int e = 0; e < 260; ++e) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        auto a = static_cast<VertexId>(30 + (state >> 33) % 127);
        auto b = static_cast<VertexId>(30 + (state >> 13) % 127);
        builder.addEdge(a, b);
    }
    builder.addEdge(157, 30);
    return builder.symmetrize().dedup().dropSelfLoops()
        .randomWeights(31).build();
}

/**
 * Golden digests of profile + output for the nine Fig. 5 benchmarks
 * on four seeded graphs. The cost-add sequence of every item is part
 * of the profile (a bulk `+= k` rounds differently from k `+= 1`
 * once a counter holds a non-integer), so any optimisation of the
 * executor or the kernels must leave these exactly unchanged.
 */
TEST(WorkloadGoldenTest, ProfilesAndOutputsAreBitIdentical)
{
    struct Case {
        const char *graph;
        Graph (*make)();
    };
    const Case cases[] = {
        {"dense-er", [] { return generateDenseEr(120, 0.3, 21); }},
        {"rmat", [] { return generateRmat(9, 8.0, 22); }},
        {"tied-mesh", tiedWeightMesh},
        {"low-degree", lowDegreeGraph},
    };
    const std::vector<std::string> &names = workloadNames();
    const uint64_t expected[4][9] = {
        {0x12207879ca845a96ULL, 0xf5176fbae22fd794ULL, 0x2ca47080e08f08baULL,
         0x6e8dc9ce03c1e2e0ULL, 0x0be5a2f31ec2d8a0ULL, 0x74a1ae5a63374568ULL,
         0xa95d0c9963224206ULL, 0xb2613987b14f1229ULL, 0x615d3ff61d98d177ULL},
        {0xaa6d1cc51b9abd10ULL, 0xe91870e3ee0c3a0fULL, 0x2b09442fa4cc27ddULL,
         0x6d73363acdcd022cULL, 0x83f21019bab0db67ULL, 0xc805177945187b78ULL,
         0xea4b1fa4b4b3cc6eULL, 0x34f9802f011a000aULL, 0x4c62d5c9481ae6e2ULL},
        {0x909fa795a52296deULL, 0x57cfeb1e2a6be3b2ULL, 0x8981ddeac700253eULL,
         0xc7c5726264ae6494ULL, 0x4046adc9466f18cfULL, 0x9595785fa6e6feefULL,
         0x84c87b120f799e52ULL, 0x0c71f274bcc2a47aULL, 0x35b6ac2fdc335549ULL},
        {0x9ebf1dd4b3a556e2ULL, 0x49acc552fe4dd31dULL, 0x1dd44ae6834785f6ULL,
         0x9b0e421c8e59bd6bULL, 0x53ba5f960443160dULL, 0xd83994b74f6ae9ecULL,
         0xf313bec7d3a4c293ULL, 0xd83d731015292174ULL, 0xc961c67bc4013ba9ULL},
    };
    for (std::size_t g = 0; g < 4; ++g) {
        Graph graph = cases[g].make();
        for (std::size_t w = 0; w < names.size(); ++w) {
            auto [out, prof] = makeWorkload(names[w])->runProfiled(graph);
            uint64_t digest = runDigest(out, prof);
            char hex[32];
            std::snprintf(hex, sizeof(hex), "0x%016llxULL",
                          static_cast<unsigned long long>(digest));
            EXPECT_EQ(digest, expected[g][w])
                << cases[g].graph << " / " << names[w] << ": " << hex;
        }
    }
}

} // namespace
} // namespace heteromap
