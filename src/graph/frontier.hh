/**
 * @file
 * Shared flat-frontier BFS machinery: swap-buffer frontiers over a
 * visited bitmap with an optional direction-optimizing (top-down /
 * bottom-up) switch. Every graph-measurement sweep (hop distances,
 * diameter double sweeps, component flood fills) runs on this
 * substrate instead of growing its own deque-based traversal.
 *
 * Traversals are serial and run on the calling thread, so their
 * outputs are deterministic without further care. The outputs (hop
 * levels, farthest vertex, reached count) are also independent of the
 * direction schedule: hop levels are unique per vertex in a
 * level-synchronous BFS, and the "farthest" vertex is the minimum-id
 * member of the deepest level — an order-free min.
 */

#ifndef HETEROMAP_GRAPH_FRONTIER_HH
#define HETEROMAP_GRAPH_FRONTIER_HH

#include <cstdint>
#include <vector>

#include "graph/graph.hh"

namespace heteromap {

/** Default direction-switch thresholds (Beamer-style alpha/beta):
 *  go bottom-up when the frontier's out-edges exceed E / alpha, back
 *  top-down when the frontier shrinks below V / beta. */
inline constexpr uint64_t kBottomUpEdgeDivisor = 14;
inline constexpr uint64_t kTopDownSizeDivisor = 24;

/**
 * Reusable traversal buffers. prepare() sizes them for a vertex
 * count (zero-filling only newly grown storage); clearVisited()
 * resets the visited bitmap so the same scratch can serve many BFS
 * runs without reallocating. flatBfs() deliberately does NOT clear
 * the bitmap itself: component counting seeds successive traversals
 * into the same bitmap to skip already-flooded regions.
 */
struct FrontierScratch {
    std::vector<uint64_t> visited;  //!< one bit per vertex
    std::vector<uint64_t> curBits;  //!< current frontier (bottom-up)
    std::vector<uint64_t> nextBits; //!< next frontier (bottom-up)
    std::vector<VertexId> frontier; //!< current frontier, flat array
    std::vector<VertexId> next;     //!< next frontier, flat array

    /** Size buffers for @p num_vertices (keeps existing capacity). */
    void prepare(VertexId num_vertices);

    /** Zero the visited bitmap. */
    void clearVisited();

    /** @return true when @p v is marked visited. */
    bool
    isVisited(VertexId v) const
    {
        return (visited[v >> 6] >> (v & 63)) & 1u;
    }
};

/** Knobs for one flatBfs() run. */
struct BfsOptions {
    /**
     * Permit bottom-up levels. Only valid when the adjacency is
     * symmetric (u in N(v) iff v in N(u)): a bottom-up step asks
     * "does unvisited v have a parent in the frontier" by scanning
     * v's *out*-neighbors, which is its in-neighborhood only under
     * symmetry. Callers assert this (see hasSymmetricAdjacency).
     */
    bool allowBottomUp = false;

    /**
     * Direction-switch thresholds. These (and bitmapFrontier) steer
     * only the traversal schedule, never the observable outputs: a
     * level-synchronous BFS assigns each vertex the same hop level in
     * either direction, and farthest/reached are order-free, so any
     * threshold choice is byte-identical to any other.
     */
    uint64_t bottomUpEdgeDivisor = kBottomUpEdgeDivisor;
    uint64_t topDownSizeDivisor = kTopDownSizeDivisor;

    /**
     * Keep wide frontiers as bitmaps between consecutive bottom-up
     * levels instead of materializing the flat vertex array each
     * level — the array is rebuilt only when the traversal narrows
     * back to top-down.
     */
    bool bitmapFrontier = false;
};

/**
 * Measured-property-driven traversal policy (after the density /
 * degree-distribution selection of arXiv:1708.01159): graph shape
 * picks the direction-switch thresholds and the frontier layout
 * before the first level runs.
 */
struct TraversalPlan {
    /** False when bottom-up can never pay (sparse, high-diameter
     *  graphs whose frontiers stay narrow) — which also lets callers
     *  skip the O(V + E) symmetry precheck bottom-up requires. */
    bool useBottomUp = true;
    uint64_t bottomUpEdgeDivisor = kBottomUpEdgeDivisor;
    uint64_t topDownSizeDivisor = kTopDownSizeDivisor;
    bool bitmapFrontier = false;
};

/**
 * Derive a TraversalPlan from measured graph properties. Density
 * (average degree) below ~2 marks road-network-like graphs: disable
 * bottom-up outright. High degree skew (stddev >= avg) or dense
 * graphs mark power-law inputs: switch bottom-up eagerly, hold it
 * longer, and keep the wide frontiers in bitmap form.
 */
TraversalPlan planTraversal(uint64_t num_vertices, uint64_t num_edges,
                            double avg_degree, double degree_stddev);

/** Outputs of one flatBfs() run. */
struct BfsResult {
    /**
     * Minimum-id vertex of the deepest BFS level (the source itself
     * when nothing else is reachable) — the double-sweep diameter
     * probe's next start, tracked inside the traversal instead of by
     * an extra O(V) scan over the hop array.
     */
    VertexId farthest = kInvalidVertex;
    uint32_t depth = 0;    //!< eccentricity of the source (hop levels)
    uint64_t reached = 0;  //!< vertices visited by this run
};

/**
 * Level-synchronous BFS from @p source over out-arcs. Marks every
 * reached vertex in scratch.visited (which must be prepared, and
 * cleared unless the caller wants to flood around prior runs); the
 * source must not already be visited. When @p hops is non-null it
 * must point at numVertices() entries pre-filled with UINT32_MAX;
 * reached vertices get their hop level. Direction optimization
 * switches to bottom-up on wide frontiers when options.allowBottomUp
 * is set and back to top-down when the frontier narrows.
 */
BfsResult flatBfs(const Graph &graph, VertexId source,
                  FrontierScratch &scratch, uint32_t *hops,
                  const BfsOptions &options = {});

} // namespace heteromap

#endif // HETEROMAP_GRAPH_FRONTIER_HH
