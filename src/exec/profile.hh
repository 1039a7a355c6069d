/**
 * @file
 * Execution profiles: the measured per-phase counters that the
 * architecture performance models consume. A workload runs once per
 * input under the instrumented executor; the resulting profile is then
 * scored for any accelerator / M-configuration combination without
 * re-running the algorithm (see arch/perf_model.hh).
 */

#ifndef HETEROMAP_EXEC_PROFILE_HH
#define HETEROMAP_EXEC_PROFILE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace heteromap {

/**
 * Outer-loop phase classes, Section III-C (B1-B5). The phase kind
 * captures the scheduling pattern; the counters capture the work.
 */
enum class PhaseKind {
    VertexDivision, //!< B1: fully data-parallel over vertices
    Pareto,         //!< B2: static frontier chunks
    ParetoDynamic,  //!< B3: dynamically growing frontier chunks
    PushPop,        //!< B4: ordered queue/bucket processing
    Reduction,      //!< B5: parallel reduction with atomics
};

/** @return a short name, e.g. "vertex-division". */
const char *phaseKindName(PhaseKind kind);

/**
 * Counters one kernel item (e.g. one vertex relaxation) records while
 * executing. All values are per-item increments; the executor folds
 * them into the running PhaseProfile.
 */
struct ItemCost {
    double intOps = 0.0;          //!< integer/control operations
    double fpOps = 0.0;           //!< floating-point operations
    double directAccesses = 0.0;  //!< loop-index addressed accesses (B7)
    double indirectAccesses = 0.0;//!< pointer-chased accesses (B8)
    double sharedReadBytes = 0.0; //!< read-only shared traffic (B9)
    double sharedWriteBytes = 0.0;//!< read-write shared traffic (B10)
    double localBytes = 0.0;      //!< thread-local traffic (B11)
    double atomics = 0.0;         //!< atomic updates (B12)

    /**
     * Scalar "work units" used for load-balance bucketing. Memory
     * accesses dominate graph-analytic cost; indirect accesses weigh
     * double because they serialize on the memory system.
     */
    double
    workUnits() const
    {
        return intOps + fpOps + directAccesses + 2.0 * indirectAccesses +
               4.0 * atomics;
    }
};

/**
 * Aggregated counters for one named phase, accumulated over all
 * iterations of the workload's outer loop. The bucket array preserves
 * the *distribution* of work over the item index space so the
 * schedule model can compute the parallel span for any thread count
 * and scheduling policy after the fact.
 */
struct PhaseProfile {
    std::string name;
    PhaseKind kind = PhaseKind::VertexDivision;

    uint64_t invocations = 0; //!< outer iterations that ran this phase
    uint64_t workItems = 0;   //!< total items across invocations

    double intOps = 0.0;
    double fpOps = 0.0;
    double directAccesses = 0.0;
    double indirectAccesses = 0.0;
    double sharedReadBytes = 0.0;
    double sharedWriteBytes = 0.0;
    double localBytes = 0.0;
    double atomics = 0.0;

    /** Largest single-item work-unit cost seen (span floor). */
    double maxItemCost = 0.0;

    /** Work-unit histogram over the item index space. */
    std::vector<double> bucketCost;

    /** Sum of all op counters (compute volume). */
    double totalOps() const { return intOps + fpOps; }

    /** Sum of all access counters. */
    double totalAccesses() const;

    /** Total bytes touched. */
    double totalBytes() const;

    /** Total work units (equals the bucket sum up to rounding). */
    double totalWorkUnits() const;

    /** Fold another profile of the same phase into this one. */
    void merge(const PhaseProfile &other);
};

/** Whole-workload profile: phases plus global synchronization counts. */
struct WorkloadProfile {
    std::vector<PhaseProfile> phases;
    uint64_t barriers = 0;   //!< global barrier crossings
    uint64_t iterations = 0; //!< outer-loop iterations to convergence

    /** Find a phase by name; nullptr when absent. */
    const PhaseProfile *findPhase(const std::string &name) const;

    /** Totals across phases. */
    double totalWorkUnits() const;
    double totalOps() const;
    double totalBytes() const;
    double totalAtomics() const;

    /** Human-readable multi-line summary. */
    std::string toString() const;
};

/** Number of load-distribution buckets per phase. */
inline constexpr std::size_t kNumBuckets = 512;

} // namespace heteromap

#endif // HETEROMAP_EXEC_PROFILE_HH
