/**
 * @file
 * Seeded request plans for the three workloads. The benchmark turns
 * --seed into graphs and request lists here; the program under test
 * only ever sees the generated inputs. Every plan is a pure function
 * of its seed.
 */

#ifndef HMBENCH_PLAN_HH
#define HMBENCH_PLAN_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hh"
#include "graph/props.hh"

namespace hmbench {

/** Per-core L2 the working-set property is reported against. */
inline constexpr uint64_t kL2Bytes = 8ull << 20;

/** The graph families every serving workload draws from. */
enum class Family { Mesh, PrefAttach, RoadGrid, Rmat };

const char *familyName(Family family);

/** Recipe for one generated input graph. */
struct GraphSpec {
    std::string name;
    Family family = Family::Mesh;
    uint32_t vertices = 0; //!< target size (R-MAT rounds to 2^k)
    double edgeFactor = 8.0; //!< R-MAT arcs per vertex before symmetrizing
    uint64_t seed = 0;

    bool operator==(const GraphSpec &) const = default;
};

/** Generate the graph @p spec describes. */
heteromap::Graph makeGraph(const GraphSpec &spec);

/** The four workloads the serving workloads request. */
const std::vector<std::string> &servingWorkloads();

/** Measurement options every request of a run carries. */
heteromap::MeasureOptions measureOptionsFor(uint64_t seed);

/** Zipf(s) sampler over ranks [0, n) by inverse-CDF search. */
class ZipfSampler
{
  public:
    ZipfSampler(std::size_t n, double s);
    std::size_t sample(double uniform01) const;

  private:
    std::vector<double> cdf_;
};

/** One (workload, catalogue graph) pair the hot catalogue serves. */
struct Pair {
    std::string workload;
    std::size_t graph = 0; //!< index into NetPlan::catalogue

    bool operator==(const Pair &) const = default;
};

/** One open-loop request: who sends it and what it asks for. */
struct NetRequest {
    uint64_t tenant = 0;
    std::size_t pair = 0; //!< index into NetPlan::pairs

    bool operator==(const NetRequest &) const = default;
};

/** net-zipf-hot: a small hot catalogue and a long request list. */
struct NetPlan {
    std::vector<GraphSpec> catalogue; //!< last entry is the >L2 graph
    std::vector<Pair> pairs;
    std::vector<NetRequest> requests;
};

inline constexpr std::size_t kTenants = 1000;
inline constexpr double kZipfExponent = 1.1;

/**
 * Share of requests for the >L2 graph. Large enough that lat_p99_ms
 * falls inside that request class (a fixed-size graph) rather than on
 * rare coincidences or on whichever small graph a seed made largest.
 */
inline constexpr double kLargeShare = 0.05;

/**
 * Eight 1k-4k vertex graphs (two per family: 1448 and 2896 vertices,
 * 1024 and 4096 for R-MAT; the seed picks their edges), plus one
 * R-MAT graph whose CSR exceeds kL2Bytes that is served with BFS only.
 * Requests pick a tenant by Zipf(1.1) over kTenants; a kLargeShare of
 * them ask for BFS on the large graph and the rest pick one of the
 * other 32 pairs uniformly.
 */
NetPlan makeNetPlan(uint64_t seed, std::size_t requests);

/** One inproc-cold request: a never-seen graph and a workload. */
struct ColdRequest {
    GraphSpec graph;
    std::string workload;

    bool operator==(const ColdRequest &) const = default;
};

/** Requests per stratified block of the cold stream. */
inline constexpr std::size_t kColdBlock = 64;

/**
 * Requests [first, first + count) of the cold stream for @p seed. The
 * stream is cut into blocks of kColdBlock requests, each holding every
 * (family, size stratum) once: 4 families x 16 strata of the
 * log-uniform 1k-16k vertex range, with the size jittered inside its
 * stratum, the workload rotating over the four, and the block order
 * shuffled. So every block carries about the same work and memory, and
 * the run-to-run spread does not depend on how sizes happened to fall.
 * Request i depends on (seed, i) alone, so the stream can be generated
 * in batches; every request gets its own generator seed.
 */
std::vector<ColdRequest> makeColdPlan(uint64_t seed, std::size_t first,
                                      std::size_t count);

/** One paper-matrix combination (Table I dataset x Fig. 5 workload). */
struct MatrixCombo {
    std::size_t dataset = 0; //!< index into evaluationDatasets()
    std::string workload;
    std::size_t pass = 0;    //!< which copy of the proxy it runs on

    bool operator==(const MatrixCombo &) const = default;
};

/**
 * @p passes rounds of the 9 x 9 combinations, each round in its own
 * seeded order. Round 0 runs on the dataset proxies themselves; round
 * r > 0 on the copy rotateVertexIds(proxy, matrixShift(r, n)), so no
 * (workload, graph) pair repeats within a run.
 */
std::vector<MatrixCombo> makeMatrixPlan(uint64_t seed,
                                        std::size_t passes = 1);

/**
 * Vertex-id shift of round @p pass on @p n vertices: n * pass /
 * (pass + 1). Fixed rather than seeded, because the shift changes how
 * much work id-ordered kernels (TRI) do.
 */
uint32_t matrixShift(std::size_t pass, uint32_t n);

/**
 * Isomorphic copy of @p graph with every vertex id v renamed to
 * (v + shift) mod n. Adjacency lists stay sorted and the memory
 * layout keeps its locality, so kernels cost about the same, but the
 * CSR (and its fingerprint) differs and traversals start elsewhere.
 */
heteromap::Graph rotateVertexIds(const heteromap::Graph &graph,
                                 uint32_t shift);

/**
 * Share of @p keys (in request order) that equal an earlier key: the
 * requests a memo keyed on (workload, graph) could have served.
 */
double repeatShare(const std::vector<std::string> &keys);

} // namespace hmbench

#endif // HMBENCH_PLAN_HH
