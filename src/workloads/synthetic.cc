/**
 * @file
 * Synthetic workload implementation.
 */

#include "workloads/synthetic.hh"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <tuple>
#include <vector>

#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/registry.hh"

namespace heteromap {

SyntheticWorkload::SyntheticWorkload(BVariables b, uint64_t seed,
                                     unsigned iterations,
                                     unsigned frontier_rounds)
    : b_(b), seed_(seed), iterations_(std::max(1u, iterations)),
      frontierRounds_(std::max(1u, frontier_rounds))
{
    // Renormalize the phase mix so B1-B5 form a proper partition.
    double sum = b_.phaseSum();
    if (sum <= 0.0) {
        b_.b1 = 1.0;
    } else {
        b_.b1 /= sum;
        b_.b2 /= sum;
        b_.b3 /= sum;
        b_.b4 /= sum;
        b_.b5 /= sum;
    }
}

std::string
SyntheticWorkload::name() const
{
    std::ostringstream oss;
    oss << "SYN-" << std::hex << (seed_ & 0xffff);
    return oss.str();
}

std::string
SyntheticWorkload::identity() const
{
    // name() carries only 16 bits of the seed; the identity carries
    // every input of the generated phase mix.
    return std::apply(
        [&](const auto &...b) {
            return parameterizedIdentity("SYN", seed_, iterations_,
                                         frontierRounds_, b...);
        },
        b_.asArray());
}

WorkloadOutput
SyntheticWorkload::run(const Graph &graph, Executor &exec) const
{
    const VertexId n = graph.numVertices();
    HM_ASSERT(n > 0, "synthetic workload requires a non-empty graph");

    std::vector<double> acc(n, 1.0);

    struct PhaseSpec {
        const char *name;
        PhaseKind kind;
        double share;
    };
    const PhaseSpec specs[] = {
        {"syn-vertex", PhaseKind::VertexDivision, b_.b1},
        {"syn-pareto", PhaseKind::Pareto, b_.b2},
        {"syn-pareto-dyn", PhaseKind::ParetoDynamic, b_.b3},
        {"syn-push-pop", PhaseKind::PushPop, b_.b4},
        {"syn-reduce", PhaseKind::Reduction, b_.b5},
    };

    const auto extra_barriers =
        static_cast<unsigned>(std::lround(b_.b13 * 10.0));

    double checksum = 0.0;
    for (unsigned iter = 0; iter < iterations_; ++iter) {
        for (const auto &spec : specs) {
            if (spec.share <= 0.0)
                continue;
            // Phase code share scales the work items it covers.
            const auto items = static_cast<uint64_t>(
                std::max(1.0, spec.share * static_cast<double>(n)));
            Rng phase_rng(seed_ ^ (iter * 1315423911ULL) ^
                          reinterpret_cast<uintptr_t>(spec.name));

            // Frontier-style kinds run as a chain of narrow
            // invocations (each a dependence level); data-parallel
            // kinds run full width.
            const bool frontier_kind =
                spec.kind == PhaseKind::Pareto ||
                spec.kind == PhaseKind::ParetoDynamic ||
                spec.kind == PhaseKind::PushPop;
            const uint64_t rounds =
                frontier_kind
                    ? std::min<uint64_t>(frontierRounds_, items)
                    : 1;

            for (uint64_t r = 0; r < rounds; ++r) {
            const uint64_t lo = items * r / rounds;
            const uint64_t hi = items * (r + 1) / rounds;
            exec.parallelFor(
                spec.name, spec.kind, hi - lo,
                [&](uint64_t idx, ItemCost &cost) {
                    idx += lo;
                    auto v = static_cast<VertexId>(idx % n);
                    auto nbrs = graph.neighbors(v);
                    auto wts = graph.edgeWeights(v);
                    cost.intOps += 2;
                    cost.directAccesses += 1;

                    double local = acc[v];
                    cost.localBytes += 8.0 * b_.b11;
                    for (std::size_t e = 0; e < nbrs.size(); ++e) {
                        VertexId u = nbrs[e];
                        // Indirect share: chase through the
                        // accumulator to a data-dependent slot.
                        VertexId slot = u;
                        if (phase_rng.nextBool(b_.b8)) {
                            slot = static_cast<VertexId>(
                                static_cast<uint64_t>(
                                    std::fabs(acc[u]) * 2654435761.0) %
                                n);
                            cost.indirectAccesses += 2;
                        } else {
                            cost.directAccesses += 2;
                        }
                        double w = wts.empty()
                                       ? 1.0
                                       : static_cast<double>(wts[e]);
                        // FP vs integer work mix.
                        if (phase_rng.nextBool(b_.b6)) {
                            local += w * 1.0000001;
                            cost.fpOps += 2;
                        } else {
                            local += static_cast<int64_t>(w);
                            cost.intOps += 2;
                        }
                        cost.sharedReadBytes += 8.0 * b_.b9;
                        cost.sharedWriteBytes += 8.0 * b_.b10;
                        cost.localBytes += 8.0 * b_.b11;
                        // Contended atomic update share.
                        if (phase_rng.nextBool(b_.b12)) {
                            acc[slot] += 1e-9;
                            cost.atomics += 1;
                            cost.sharedWriteBytes += 8;
                        }
                    }
                    if (spec.kind == PhaseKind::Reduction) {
                        checksum += local;
                        cost.atomics += 1;
                    } else {
                        acc[v] = local;
                    }
                    cost.sharedWriteBytes += 8;
                });
            exec.barrier();
            }
        }
        for (unsigned bars = 0; bars < extra_barriers; ++bars)
            exec.barrier();
        exec.endIteration();
    }

    WorkloadOutput out;
    out.vertexValues = std::move(acc);
    for (double x : out.vertexValues)
        checksum += x;
    out.scalar = checksum;
    return out;
}

std::vector<BVariables>
sampleSyntheticBVectors(std::size_t count, uint64_t seed)
{
    std::vector<BVariables> out;
    out.reserve(count);
    Rng rng(seed);

    // Corner cases first: each pure phase kind.
    for (int corner = 0; corner < 5 && out.size() < count; ++corner) {
        BVariables b;
        double *phase[] = {&b.b1, &b.b2, &b.b3, &b.b4, &b.b5};
        *phase[corner] = 1.0;
        b.b7 = 0.8;
        b.b9 = 0.5;
        b.b10 = 0.5;
        out.push_back(b);
    }

    // Representative production mixes: the Fig. 5 benchmark
    // discretizations are themselves points of the synthetic space,
    // and covering them anchors the learners where real workloads
    // live (the corpus is still entirely synthetic kernels).
    for (const auto &workload : allWorkloads()) {
        if (out.size() >= count)
            break;
        out.push_back(workload->bVariables());
    }

    while (out.size() < count) {
        BVariables b;
        // Random two-phase mix on the 0.1 grid.
        double *phase[] = {&b.b1, &b.b2, &b.b3, &b.b4, &b.b5};
        std::size_t first = rng.nextBounded(5);
        std::size_t second = rng.nextBounded(5);
        double split = discretize01(rng.nextDouble(0.1, 0.9));
        *phase[first] += split;
        *phase[second] += 1.0 - split;

        b.b6 = discretize01(rng.nextDouble());
        b.b7 = discretize01(rng.nextDouble());
        b.b8 = discretize01(std::max(0.0, 1.0 - b.b7 -
                                               rng.nextDouble(0.0, 0.5)));
        b.b9 = discretize01(rng.nextDouble());
        b.b10 = discretize01(rng.nextDouble());
        b.b11 = discretize01(rng.nextDouble(0.0, 0.6));
        b.b12 = discretize01(rng.nextDouble(0.0, 0.7));
        b.b13 = discretize01(rng.nextDouble(0.0, 0.5));
        out.push_back(b);
    }
    return out;
}

} // namespace heteromap
