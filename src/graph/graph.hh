/**
 * @file
 * Immutable compressed-sparse-row (CSR) graph. This is the input
 * substrate every workload, generator, and feature extractor operates
 * on. Graphs are directed at the storage level; undirected graphs are
 * stored symmetrized (both arcs present).
 */

#ifndef HETEROMAP_GRAPH_GRAPH_HH
#define HETEROMAP_GRAPH_GRAPH_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace heteromap {

/** Vertex identifier; dense in [0, numVertices). */
using VertexId = uint32_t;

/** Edge index into the CSR arrays. */
using EdgeId = uint64_t;

/** Sentinel for "no vertex". */
inline constexpr VertexId kInvalidVertex = UINT32_MAX;

/**
 * Content identity of a graph: its counts plus a 128-bit hash of
 * every byte of the offset, neighbor and weight arrays. Two graphs
 * with equal CSR arrays (a copy, the same chunk re-cut from a stream)
 * have equal fingerprints; any difference in structure or weights
 * changes the hash.
 */
struct GraphFingerprint {
    uint64_t numVertices = 0;
    uint64_t numEdges = 0;
    uint64_t footprintBytes = 0;
    uint64_t contentLo = 0;
    uint64_t contentHi = 0;

    bool operator==(const GraphFingerprint &) const = default;
};

/**
 * CSR graph with optional per-edge float weights.
 *
 * Construction goes through GraphBuilder (graph/builder.hh); the
 * invariants (sorted offsets, neighbor bounds, weight arity) are
 * validated there and assumed here.
 */
class Graph
{
  public:
    /** Build an empty graph. */
    Graph();

    /**
     * Adopt prebuilt CSR arrays. @p offsets must have size V+1 with
     * offsets[0] == 0 and offsets[V] == neighbors.size(); @p weights
     * is either empty (unweighted) or the same size as @p neighbors.
     * Hashes the arrays once (see fingerprint()).
     */
    Graph(std::vector<EdgeId> offsets, std::vector<VertexId> neighbors,
          std::vector<float> weights = {});

    Graph(const Graph &) = default;
    Graph &operator=(const Graph &) = default;

    /** Moves leave @p other an empty graph with a matching fingerprint. */
    Graph(Graph &&other) noexcept;
    Graph &operator=(Graph &&other) noexcept;

    /** @return number of vertices. */
    VertexId
    numVertices() const
    {
        return offsets_.empty()
            ? 0 : static_cast<VertexId>(offsets_.size() - 1);
    }

    /** @return number of stored (directed) arcs. */
    EdgeId numEdges() const { return neighbors_.size(); }

    /** @return out-degree of @p v. */
    EdgeId
    degree(VertexId v) const
    {
        return offsets_[v + 1] - offsets_[v];
    }

    /** @return first CSR index of @p v's adjacency list. */
    EdgeId edgeBegin(VertexId v) const { return offsets_[v]; }

    /** @return one-past-last CSR index of @p v's adjacency list. */
    EdgeId edgeEnd(VertexId v) const { return offsets_[v + 1]; }

    /** @return neighbor list of @p v as a read-only span. */
    std::span<const VertexId>
    neighbors(VertexId v) const
    {
        return {neighbors_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** @return destination vertex of CSR edge @p e. */
    VertexId edgeTarget(EdgeId e) const { return neighbors_[e]; }

    /** @return true when per-edge weights are stored. */
    bool hasWeights() const { return !weights_.empty(); }

    /** @return weight of CSR edge @p e (1.0 when unweighted). */
    float
    edgeWeight(EdgeId e) const
    {
        return weights_.empty() ? 1.0f : weights_[e];
    }

    /** @return weights of @p v's adjacency list (empty if unweighted). */
    std::span<const float>
    edgeWeights(VertexId v) const
    {
        if (weights_.empty())
            return {};
        return {weights_.data() + offsets_[v],
                static_cast<std::size_t>(degree(v))};
    }

    /** @return approximate resident size in bytes (CSR arrays only). */
    uint64_t footprintBytes() const;

    /** @return maximum out-degree over all vertices (0 for empty). */
    EdgeId maxDegree() const;

    /** @return average out-degree (0 for empty). */
    double avgDegree() const;

    /** Raw offset array (size V+1). */
    const std::vector<EdgeId> &offsets() const { return offsets_; }

    /** Raw neighbor array (size E). */
    const std::vector<VertexId> &rawNeighbors() const { return neighbors_; }

    /**
     * Content fingerprint, computed once at construction: the arrays
     * never change afterwards, so reading it is O(1) however large
     * the graph.
     */
    const GraphFingerprint &fingerprint() const { return fingerprint_; }

  private:
    std::vector<EdgeId> offsets_;
    std::vector<VertexId> neighbors_;
    std::vector<float> weights_;
    GraphFingerprint fingerprint_;

    /** Drop the arrays (after a move) and re-fingerprint as empty. */
    void resetToEmpty() noexcept;
};

} // namespace heteromap

#endif // HETEROMAP_GRAPH_GRAPH_HH
