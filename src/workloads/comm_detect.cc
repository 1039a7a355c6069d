/**
 * @file
 * Community detection implementation. Deterministic label propagation:
 * ties break toward the smaller label, updates are double-buffered so
 * the result is independent of traversal order.
 */

#include "workloads/comm_detect.hh"

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/logging.hh"

namespace heteromap {

BVariables
CommunityDetection::bVariables() const
{
    BVariables b;
    b.b1 = 0.7;  // label scoring is vertex division
    b.b5 = 0.3;  // change-count reduction
    b.b6 = 0.6;  // FP weight accumulation
    b.b7 = 0.5;
    b.b8 = 0.3;  // label histogram is data-dependent addressing
    b.b9 = 0.4;
    b.b10 = 0.6; // shared label array, read and written
    b.b11 = 0.3; // per-thread histogram
    b.b12 = 0.2;
    b.b13 = 0.2;
    return b;
}

WorkloadOutput
CommunityDetection::run(const Graph &graph, Executor &exec) const
{
    const VertexId n = graph.numVertices();
    HM_ASSERT(n > 0, "community detection requires a non-empty graph");

    std::vector<VertexId> label(n);
    std::vector<VertexId> next(n);
    for (VertexId v = 0; v < n; ++v)
        label[v] = v;

    // Label-indexed weighted histogram shared by every vertex of every
    // round: `touched` lists the labels seen at the current vertex in
    // first-seen order, and only those slots are reset afterwards.
    std::vector<double> score(n, 0.0);
    std::vector<uint8_t> present(n, 0);
    std::vector<VertexId> touched;

    for (unsigned round = 0; round < maxRounds_; ++round) {
        uint64_t changes = 0;

        exec.parallelFor(
            "propagate", PhaseKind::VertexDivision, n,
            [&](uint64_t idx, ItemCost &cost) {
                auto v = static_cast<VertexId>(idx);
                cost.intOps += 2;
                cost.directAccesses += 1;
                auto nbrs = graph.neighbors(v);
                auto wts = graph.edgeWeights(v);
                if (nbrs.empty()) {
                    next[v] = label[v];
                    return;
                }
                // Per-thread weighted histogram over neighbor labels;
                // each label's sum takes its edges' weights in edge
                // order.
                for (std::size_t e = 0; e < nbrs.size(); ++e) {
                    VertexId lab = label[nbrs[e]];
                    if (!present[lab]) {
                        present[lab] = 1;
                        touched.push_back(lab);
                    }
                    score[lab] +=
                        wts.empty() ? 1.0 : static_cast<double>(wts[e]);
                    cost.fpOps += 1;
                    cost.indirectAccesses += 2; // label chase + bin
                    cost.sharedWriteBytes += 4; // shared label read
                    cost.sharedReadBytes += 8;  // adjacency + weight
                    cost.localBytes += 12;      // histogram entry
                }
                // The best (score, smallest label) pair does not
                // depend on the scan order.
                VertexId best = label[v];
                double best_score = -1.0;
                for (VertexId lab : touched) {
                    const double s = score[lab];
                    cost.fpOps += 1;
                    cost.localBytes += 12;
                    if (s > best_score ||
                        (s == best_score && lab < best)) {
                        best = lab;
                        best_score = s;
                    }
                    score[lab] = 0.0;
                    present[lab] = 0;
                }
                touched.clear();
                next[v] = best;
                cost.sharedWriteBytes += 4;
            });
        exec.barrier();

        exec.parallelFor(
            "change-reduce", PhaseKind::Reduction, n,
            [&](uint64_t idx, ItemCost &cost) {
                auto v = static_cast<VertexId>(idx);
                cost.intOps += 1;
                cost.directAccesses += 2;
                cost.sharedWriteBytes += 8;
                if (next[v] != label[v]) {
                    label[v] = next[v];
                    ++changes;
                    cost.atomics += 1;
                }
            });
        exec.barrier();
        exec.endIteration();

        if (changes == 0)
            break;
    }

    WorkloadOutput out;
    out.vertexValues.resize(n);
    std::unordered_set<VertexId> distinct;
    for (VertexId v = 0; v < n; ++v) {
        out.vertexValues[v] = static_cast<double>(label[v]);
        distinct.insert(label[v]);
    }
    out.scalar = static_cast<double>(distinct.size());
    return out;
}

} // namespace heteromap
