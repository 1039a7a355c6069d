/**
 * @file
 * Oracle implementation.
 */

#include "core/oracle.hh"

#include <algorithm>

#include "util/logging.hh"

namespace heteromap {

BenchmarkCase
makeCase(const Workload &workload, const Dataset &dataset)
{
    BenchmarkCase bench;
    bench.workloadName = workload.name();
    bench.inputName = dataset.shortName();

    auto [output, profile] = workload.runProfiled(dataset.proxy());
    bench.output = std::move(output);
    bench.profile = std::move(profile);

    bench.features.b = workload.bVariables();
    bench.features.i = extractIVariables(dataset); // nominal stats
    bench.shapeStats = dataset.proxyStats();
    bench.scaleStats = dataset.nominal();
    return bench;
}

BenchmarkCase
makeCase(const Workload &workload, const Graph &graph,
         const std::string &input_name, const GraphStats &stats)
{
    return makeCase(workload, graph, input_name, stats, stats);
}

BenchmarkCase
makeCase(const Workload &workload, const Graph &graph,
         const std::string &input_name, const GraphStats &shape_stats,
         const GraphStats &scale_stats)
{
    BenchmarkCase bench;
    bench.workloadName = workload.name();
    bench.inputName = input_name;

    auto [output, profile] = workload.runProfiled(graph);
    bench.output = std::move(output);
    bench.profile = std::move(profile);

    bench.features = featurize(workload, scale_stats);
    bench.shapeStats = shape_stats;
    bench.scaleStats = scale_stats;
    return bench;
}

FeatureVector
featurize(const Workload &workload, const GraphStats &stats)
{
    FeatureVector features;
    features.b = workload.bVariables();
    features.i = extractIVariables(stats);
    return features;
}

BenchmarkCase
assembleCase(const Workload &workload, const std::string &input_name,
             const GraphStats &stats, const FeatureVector &features,
             WorkloadProfile profile)
{
    BenchmarkCase bench;
    bench.workloadName = workload.name();
    bench.inputName = input_name;
    bench.features = features;
    bench.profile = std::move(profile);
    bench.shapeStats = stats;
    bench.scaleStats = stats;
    return bench;
}

double
BenchmarkCase::timeScale() const
{
    double proxy = std::max<double>(1.0, shapeStats.numEdges);
    double nominal = std::max<double>(1.0, scaleStats.numEdges);
    return std::max(1.0, nominal / proxy);
}

Oracle::Oracle(PerfModelParams params) : model_(params)
{
}

const AcceleratorSpec &
Oracle::specFor(const AcceleratorPair &pair, const MConfig &config) const
{
    return config.accelerator == AcceleratorKind::Gpu ? pair.gpu
                                                      : pair.multicore;
}

ExecutionReport
Oracle::run(const BenchmarkCase &bench, const AcceleratorPair &pair,
            const MConfig &config) const
{
    RunInput input;
    input.profile = &bench.profile;
    input.shapeStats = bench.shapeStats;
    input.scaleStats = bench.scaleStats;
    return model_.evaluate(input, specFor(pair, config), config);
}

double
Oracle::seconds(const BenchmarkCase &bench, const AcceleratorPair &pair,
                const MConfig &config) const
{
    return run(bench, pair, config).seconds;
}

TuneObjective
Oracle::timeObjective(const BenchmarkCase &bench,
                      const AcceleratorPair &pair) const
{
    return [this, &bench, pair](const MConfig &config) {
        return seconds(bench, pair, config);
    };
}

TuneObjective
Oracle::energyObjective(const BenchmarkCase &bench,
                        const AcceleratorPair &pair) const
{
    return [this, &bench, pair](const MConfig &config) {
        return run(bench, pair, config).joules;
    };
}

} // namespace heteromap
