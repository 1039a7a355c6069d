/**
 * @file
 * Graph-measurement substrate benchmark: measureGraph on each Table I
 * proxy split into its stages (symmetry check, degree sweep, diameter
 * traversals), cold vs cached (memoized) repeat measurement, and the
 * end-to-end online predictor overhead with and without a warm stats
 * cache. Companion to bench_predictor_overhead: that one times
 * inference alone; this one times the property-collection side.
 *
 * Run: ./bench_graph_measurement
 */

#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "core/heteromap.hh"
#include "graph/datasets.hh"
#include "graph/frontier.hh"
#include "graph/generators.hh"
#include "graph/stats_cache.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"
#include "workloads/registry.hh"

using namespace heteromap;

namespace {

/** Median-of-reps wall time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(int reps, Fn &&fn)
{
    std::vector<double> samples;
    samples.reserve(reps);
    Timer timer;
    for (int i = 0; i < reps; ++i) {
        timer.start();
        fn();
        samples.push_back(timer.elapsedMillis());
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * The diameter probe's traversals alone: the same 2 * sweeps planned
 * BFS runs measureGraph makes (default sweeps and seed), with the
 * symmetry check's answer passed in instead of recomputed.
 */
void
diameterTraversals(const Graph &graph, const GraphStats &stats,
                   bool symmetric, FrontierScratch &scratch)
{
    const MeasureOptions defaults;
    const TraversalPlan plan =
        planTraversal(stats.numVertices, stats.numEdges,
                      stats.avgDegree, stats.degreeStddev);
    BfsOptions options;
    if (plan.useBottomUp) {
        options.allowBottomUp = symmetric;
        options.bottomUpEdgeDivisor = plan.bottomUpEdgeDivisor;
        options.topDownSizeDivisor = plan.topDownSizeDivisor;
        options.bitmapFrontier = plan.bitmapFrontier;
    }
    Rng rng(defaults.seed);
    for (unsigned i = 0; i < defaults.sweeps; ++i) {
        const auto start =
            static_cast<VertexId>(rng.nextBounded(graph.numVertices()));
        scratch.clearVisited();
        const BfsResult first =
            flatBfs(graph, start, scratch, nullptr, options);
        scratch.clearVisited();
        flatBfs(graph, first.farthest, scratch, nullptr, options);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    telemetry::TelemetryFileWriter telemetry_out(
        telemetry::consumeTelemetryOutFlag(argc, argv));
    setLogVerbose(false);

    std::cout << "graph measurement substrate (serial, on the "
                 "calling thread)\n\n";

    // Where one cold measurement's time goes, per Table I proxy. The
    // stage columns are timed separately, so they need not add up to
    // the whole exactly; the largest one is the next to attack.
    TextTable stage_table({"proxy", "#V", "#E", "measure ms",
                           "symmetry ms", "degree ms", "traversals ms",
                           "largest"});
    FrontierScratch scratch;
    for (const Dataset &dataset : evaluationDatasets()) {
        const Graph &graph = dataset.proxy();
        MeasureOptions degree_only;
        degree_only.sweeps = 0;
        const GraphStats stats = measureGraph(graph);
        const bool symmetric = hasSymmetricAdjacency(graph);

        const double measure_ms =
            timeMs(5, [&] { measureGraph(graph); });
        const double symmetry_ms =
            timeMs(5, [&] { hasSymmetricAdjacency(graph); });
        const double degree_ms =
            timeMs(5, [&] { measureGraph(graph, degree_only); });
        scratch.prepare(graph.numVertices());
        const double traversal_ms = timeMs(5, [&] {
            diameterTraversals(graph, stats, symmetric, scratch);
        });

        const char *largest = "traversals";
        if (symmetry_ms > std::max(degree_ms, traversal_ms))
            largest = "symmetry";
        else if (degree_ms > traversal_ms)
            largest = "degree";
        stage_table.addRow({
            dataset.shortName(),
            formatCount(stats.numVertices),
            formatCount(stats.numEdges),
            formatNumber(measure_ms, 3),
            formatNumber(symmetry_ms, 3),
            formatNumber(degree_ms, 4),
            formatNumber(traversal_ms, 3),
            largest,
        });
    }
    std::cout << "serial measurement per Table I proxy (median of 5; "
                 "sweeps=4, seed=1):\n";
    stage_table.print(std::cout);
    std::cout << "\n";

    struct Input {
        std::string name;
        Graph graph;
    };
    const Input inputs[] = {
        {"rmat-16 (social)", generateRmat(16, 16.0, 31)},
        {"uniform-200k", generateUniformRandom(200000, 1600000, 33)},
        {"road-512x256 (high dia)", generateRoadGrid(512, 256, 35)},
        {"dense-er-1k", generateDenseEr(1000, 0.5, 37)},
    };

    TextTable table({"input", "#V", "#E", "cold ms", "cached ms",
                     "cold/cached"});
    double worst_ratio = -1.0;
    for (const Input &input : inputs) {
        // Through a private cache (the global one may already know
        // these graphs).
        GraphStatsCache cache(8);
        const double cold_ms =
            timeMs(1, [&] { cache.measure(input.graph); });
        const double cached_ms = timeMs(
            64, [&] { cache.measure(input.graph); });
        const double ratio = cold_ms / std::max(cached_ms, 1e-9);
        if (worst_ratio < 0.0 || ratio < worst_ratio)
            worst_ratio = ratio;

        GraphStats stats = cache.measure(input.graph);
        table.addRow({
            input.name,
            formatCount(stats.numVertices),
            formatCount(stats.numEdges),
            formatNumber(cold_ms, 3),
            formatNumber(cached_ms, 5),
            formatNumber(ratio, 0) + "x",
        });
    }
    std::cout << "cold vs cached measurement:\n";
    table.print(std::cout);
    std::cout << "\nworst cold/cached ratio: "
              << formatNumber(worst_ratio, 0)
              << "x (acceptance floor: 100x)\n\n";

    // Degree/stats sweep in isolation (sweeps = 0 skips the BFS
    // probes): blocked (default 256-vertex blocks, four accumulator
    // lanes) vs degenerate block=1, which approximates the old
    // straight-line loop.
    TextTable sweep_table({"input", "block=1 ms", "blocked ms",
                           "speedup"});
    for (const Input &input : inputs) {
        MeasureOptions scalarish;
        scalarish.sweeps = 0;
        scalarish.statsBlock = 1;
        MeasureOptions blocked = scalarish;
        blocked.statsBlock = 0; // default blocking

        const double scalar_ms =
            timeMs(9, [&] { measureGraph(input.graph, scalarish); });
        const double blocked_ms =
            timeMs(9, [&] { measureGraph(input.graph, blocked); });
        sweep_table.addRow({
            input.name,
            formatNumber(scalar_ms, 4),
            formatNumber(blocked_ms, 4),
            formatNumber(scalar_ms / std::max(blocked_ms, 1e-9), 2),
        });
    }
    std::cout << "degree/stats sweep, blocked vs block=1 "
                 "(sweeps=0):\n";
    sweep_table.print(std::cout);
    std::cout << "\n";

    // End-to-end online path: HeteroMap::predict measures through the
    // global cache, so the first deployment of a graph pays the
    // sweeps and every repeat deployment only pays inference.
    Oracle oracle;
    HeteroMap framework(primaryPair(),
                        makePredictor(PredictorKind::DecisionTree),
                        oracle);
    auto workload = makeWorkload("PR");
    Graph online = generateRmat(15, 12.0, 41);

    Deployment cold = framework.predict(*workload, online, "rmat15");
    Deployment warm = framework.predict(*workload, online, "rmat15");
    std::cout << "online predict overhead (measurement + inference):\n"
              << "  cold graph: " << formatNumber(cold.overheadMs, 3)
              << " ms\n"
              << "  warm graph: " << formatNumber(warm.overheadMs, 3)
              << " ms (" << formatNumber(
                     cold.overheadMs /
                         std::max(warm.overheadMs, 1e-9), 0)
              << "x less framework overhead)\n";
    return 0;
}
