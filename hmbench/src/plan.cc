#include "plan.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "graph/datasets.hh"
#include "graph/generators.hh"
#include "util/rng.hh"
#include "workloads/registry.hh"

namespace hmbench {

using heteromap::Rng;

namespace {

/** Independent stream per (seed, purpose, index). */
Rng
streamFor(uint64_t seed, uint64_t purpose, uint64_t index = 0)
{
    Rng mixer(seed ^ (purpose * 0x9e3779b97f4a7c15ull));
    for (uint64_t i = 0; i < 2; ++i)
        mixer.next();
    return Rng(mixer.next() ^ (index * 0xbf58476d1ce4e5b9ull));
}

} // namespace

const char *
familyName(Family family)
{
    switch (family) {
    case Family::Mesh:
        return "mesh";
    case Family::PrefAttach:
        return "pa";
    case Family::RoadGrid:
        return "road";
    case Family::Rmat:
        return "rmat";
    }
    return "?";
}

heteromap::Graph
makeGraph(const GraphSpec &spec)
{
    using namespace heteromap;
    switch (spec.family) {
    case Family::Mesh:
        return generateMesh(spec.vertices, 8, spec.seed);
    case Family::PrefAttach:
        return generatePreferentialAttachment(spec.vertices, 4, spec.seed);
    case Family::RoadGrid: {
        const auto width = static_cast<VertexId>(
            std::max(2.0, std::round(std::sqrt(spec.vertices))));
        return generateRoadGrid(width, std::max<VertexId>(
                                           2, spec.vertices / width),
                                spec.seed);
    }
    case Family::Rmat: {
        const auto scale = static_cast<unsigned>(
            std::lround(std::log2(std::max<uint32_t>(2, spec.vertices))));
        return generateRmat(scale, spec.edgeFactor, spec.seed);
    }
    }
    return {};
}

const std::vector<std::string> &
servingWorkloads()
{
    static const std::vector<std::string> names = {"PR", "BFS",
                                                   "SSSP-Delta", "CONN"};
    return names;
}

heteromap::MeasureOptions
measureOptionsFor(uint64_t seed)
{
    heteromap::MeasureOptions options;
    options.sweeps = 4;
    options.seed = 1 + streamFor(seed, 1).nextBounded(1'000'000);
    return options;
}

ZipfSampler::ZipfSampler(std::size_t n, double s)
{
    cdf_.reserve(n);
    double total = 0.0;
    for (std::size_t rank = 1; rank <= n; ++rank) {
        total += 1.0 / std::pow(static_cast<double>(rank), s);
        cdf_.push_back(total);
    }
    for (double &cumulative : cdf_)
        cumulative /= total;
}

std::size_t
ZipfSampler::sample(double uniform01) const
{
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), uniform01);
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
}

NetPlan
makeNetPlan(uint64_t seed, std::size_t requests)
{
    NetPlan plan;
    Rng graphs = streamFor(seed, 2);
    const Family families[] = {Family::Mesh, Family::PrefAttach,
                               Family::RoadGrid, Family::Rmat};
    for (Family family : families) {
        for (int large = 0; large < 2; ++large) {
            GraphSpec spec;
            spec.family = family;
            // Fixed sizes: the seed varies the graphs, not how much
            // work they carry. R-MAT sizes are powers of two.
            spec.vertices = family == Family::Rmat ? (large ? 4096 : 1024)
                                                   : (large ? 2896 : 1448);
            spec.seed = graphs.next();
            spec.name = std::string(familyName(family)) + "-" +
                        std::to_string(spec.vertices);
            plan.catalogue.push_back(spec);
        }
    }
    GraphSpec big;
    big.family = Family::Rmat;
    big.vertices = 1u << 16;
    big.edgeFactor = 10.0;
    big.seed = graphs.next();
    big.name = "rmat-big";
    plan.catalogue.push_back(big);

    for (std::size_t g = 0; g + 1 < plan.catalogue.size(); ++g)
        for (const std::string &workload : servingWorkloads())
            plan.pairs.push_back({workload, g});
    plan.pairs.push_back({"BFS", plan.catalogue.size() - 1});

    const ZipfSampler zipf(kTenants, kZipfExponent);
    Rng traffic = streamFor(seed, 3);
    plan.requests.reserve(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        NetRequest request;
        request.tenant = zipf.sample(traffic.nextDouble());
        request.pair = traffic.nextDouble() < kLargeShare
                           ? plan.pairs.size() - 1
                           : traffic.nextBounded(plan.pairs.size() - 1);
        plan.requests.push_back(request);
    }
    return plan;
}

std::vector<ColdRequest>
makeColdPlan(uint64_t seed, std::size_t first, std::size_t count)
{
    constexpr std::size_t kFamilies = 4;
    constexpr std::size_t kStrata = kColdBlock / kFamilies;
    std::vector<ColdRequest> plan;
    plan.reserve(count);
    std::vector<std::size_t> slots;
    std::size_t slots_block = static_cast<std::size_t>(-1);
    for (std::size_t i = first; i < first + count; ++i) {
        const std::size_t block = i / kColdBlock;
        if (block != slots_block) {
            slots.resize(kColdBlock);
            for (std::size_t k = 0; k < kColdBlock; ++k)
                slots[k] = k;
            Rng order = streamFor(seed, 7, block);
            for (std::size_t k = kColdBlock; k > 1; --k)
                std::swap(slots[k - 1], slots[order.nextBounded(k)]);
            slots_block = block;
        }
        const std::size_t slot = slots[i % kColdBlock];
        const std::size_t family = slot % kFamilies;
        const std::size_t stratum = slot / kFamilies;
        Rng rng = streamFor(seed, 4, i);
        const double lo = std::log(1024.0), span = std::log(16.0);
        const double x =
            lo + span * (static_cast<double>(stratum) + rng.nextDouble()) /
                     static_cast<double>(kStrata);
        ColdRequest request;
        request.graph.family = static_cast<Family>(family);
        request.graph.vertices = static_cast<uint32_t>(std::lround(std::exp(x)));
        request.graph.seed = rng.next();
        request.graph.name = "cold-" + std::to_string(i);
        request.workload =
            servingWorkloads()[(stratum + family) % servingWorkloads().size()];
        plan.push_back(std::move(request));
    }
    return plan;
}

std::vector<MatrixCombo>
makeMatrixPlan(uint64_t seed, std::size_t passes)
{
    std::vector<MatrixCombo> plan;
    const std::size_t datasets = heteromap::evaluationDatasets().size();
    Rng rng = streamFor(seed, 5);
    for (std::size_t pass = 0; pass < passes; ++pass) {
        const std::size_t begin = plan.size();
        for (std::size_t d = 0; d < datasets; ++d)
            for (const std::string &workload : heteromap::workloadNames())
                plan.push_back({d, workload, pass});
        for (std::size_t i = plan.size() - begin; i > 1; --i)
            std::swap(plan[begin + i - 1],
                      plan[begin + rng.nextBounded(i)]);
    }
    return plan;
}

uint32_t
matrixShift(std::size_t pass, uint32_t n)
{
    return static_cast<uint32_t>(static_cast<uint64_t>(n) * pass /
                                 (pass + 1));
}

heteromap::Graph
rotateVertexIds(const heteromap::Graph &graph, uint32_t shift)
{
    using heteromap::EdgeId;
    using heteromap::VertexId;
    const VertexId n = graph.numVertices();
    shift = n ? shift % n : 0;
    std::vector<EdgeId> offsets(1, 0);
    offsets.reserve(n + 1);
    std::vector<VertexId> neighbors;
    neighbors.reserve(graph.numEdges());
    std::vector<float> weights;
    if (graph.hasWeights())
        weights.reserve(graph.numEdges());
    for (VertexId renamed = 0; renamed < n; ++renamed) {
        const VertexId v = (renamed + n - shift) % n;
        const auto adjacent = graph.neighbors(v);
        const auto adjacent_weights = graph.edgeWeights(v);
        // Ids >= n - shift wrap to the front; both runs stay sorted.
        const std::size_t wrap = static_cast<std::size_t>(
            std::lower_bound(adjacent.begin(), adjacent.end(), n - shift) -
            adjacent.begin());
        for (std::size_t k = 0; k < adjacent.size(); ++k) {
            const std::size_t j = (wrap + k) % adjacent.size();
            neighbors.push_back(
                static_cast<VertexId>((adjacent[j] + shift) % n));
            if (!adjacent_weights.empty())
                weights.push_back(adjacent_weights[j]);
        }
        offsets.push_back(neighbors.size());
    }
    return heteromap::Graph(std::move(offsets), std::move(neighbors),
                            std::move(weights));
}

double
repeatShare(const std::vector<std::string> &keys)
{
    if (keys.empty())
        return 0.0;
    std::unordered_set<std::string> seen;
    std::size_t repeats = 0;
    for (const std::string &key : keys)
        if (!seen.insert(key).second)
            ++repeats;
    return static_cast<double>(repeats) / static_cast<double>(keys.size());
}

} // namespace hmbench
