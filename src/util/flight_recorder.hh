/**
 * @file
 * Prediction provenance flight recorder: a process-wide, always-cheap
 * audit trail of "why did this request get this M-config".
 *
 * Every served (or locally issued) prediction appends one compact
 * AuditRecord — request id, model epoch, graph fingerprint, the full
 * feature vector, the decision path (flat-tree predicate mask + leaf
 * id when the model is the flattened decision tree, model kind + raw
 * normalized-M scores otherwise), the chosen accelerator, per-stage
 * latencies, and the supervised outcome when one exists — into the
 * calling thread's fixed-capacity ring. The discipline is the same as
 * util/trace: per-thread rings behind a per-ring mutex only the
 * drainer contends, drop-oldest on overflow with exact drop
 * accounting (a process counter plus the "flight.dropped" registry
 * metric), retired threads' records preserved, everything leaked so
 * late-exiting threads stay safe.
 *
 * The recorder is disarmed by default: append() is a single relaxed
 * atomic load until armFlightRecorder() runs, so the serving hot path
 * pays nothing until someone wants forensics. dump() emits JSONL —
 * one build-info-stamped header object, then one object per record —
 * which is what the postmortem artifacts the chaos soak asserts on
 * look like.
 *
 * In a HETEROMAP_TELEMETRY=OFF build every entry point is an inline
 * no-op (flightRecorderArmed() is a compile-time false, so guarded
 * call sites dead-strip the record construction too).
 */

#ifndef HETEROMAP_UTIL_FLIGHT_RECORDER_HH
#define HETEROMAP_UTIL_FLIGHT_RECORDER_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "util/telemetry.hh"

namespace heteromap {
namespace forensics {

/**
 * Feature/score dimensions are fixed here rather than pulled from
 * features/ and model/ headers because util/ sits below both in the
 * library stack; serve/prediction_service.cc static_asserts these
 * against kNumFeatures / kNumOutputs so a drifting paper constant
 * fails the build instead of truncating records.
 */
inline constexpr std::size_t kAuditFeatureDims = 17;
inline constexpr std::size_t kAuditScoreDims = 20;

/** Records a thread buffers before the ring starts dropping. */
inline constexpr std::size_t kFlightRingCapacity = 4096;

/** One served prediction's provenance. Fixed-size, no heap. */
struct AuditRecord {
    uint64_t requestId = 0;       //!< 0 for non-serving (library) calls
    uint64_t timestampNs = 0;     //!< telemetry::traceNowNs()
    uint64_t modelEpoch = 0;      //!< registry epoch (0 = unversioned)
    uint64_t graphFingerprint = 0; //!< mixed hash of the input graph
    char modelKind[24] = {};      //!< predictor kind/name, truncated
    char workload[24] = {};       //!< benchmark name, truncated
    int32_t treeLeaf = -1;        //!< flat-tree leaf id; -1 otherwise
    uint32_t treePredicateMask = 0; //!< flat-tree predicate bits
    std::array<double, kAuditFeatureDims> features{};
    std::array<double, kAuditScoreDims> scores{}; //!< normalized M
    char accelerator[12] = {};    //!< chosen M1
    double queueMs = 0.0;
    double measureMs = 0.0;
    double featurizeMs = 0.0;
    double profileMs = 0.0;       //!< workload profile (memo hit or run)
    double inferMs = 0.0;
    double serviceMs = 0.0;
    int32_t status = 0;           //!< serve::ServeStatus value
    int32_t degradationLevel = 0; //!< watchdog ladder rung
    bool supervised = false;
    bool servedByFallback = false;
    bool hasOutcome = false;      //!< supervised outcome attached
    bool withinTolerance = false; //!< outcome verdict (mispredict = !)

    void
    setModelKind(std::string_view kind)
    {
        copyTruncated(modelKind, sizeof(modelKind), kind);
    }

    void
    setWorkload(std::string_view name)
    {
        copyTruncated(workload, sizeof(workload), name);
    }

    void
    setAccelerator(std::string_view name)
    {
        copyTruncated(accelerator, sizeof(accelerator), name);
    }

  private:
    static void
    copyTruncated(char *dst, std::size_t capacity, std::string_view src)
    {
        const std::size_t n = src.size() < capacity - 1 ? src.size()
                                                        : capacity - 1;
        std::memcpy(dst, src.data(), n);
        dst[n] = '\0';
    }
};

/** One record as a single-line JSON object (no trailing newline). */
std::string auditRecordToJson(const AuditRecord &record);

#if HETEROMAP_TELEMETRY

/**
 * Start recording. Clears any buffered records and zeroes the
 * appended/dropped accounting so post-arm numbers are exact; new
 * rings (and cleared ones) use @p ring_capacity.
 */
void armFlightRecorder(std::size_t ring_capacity = kFlightRingCapacity);

/** Stop recording. Buffered records stay drainable. */
void disarmFlightRecorder();

bool flightRecorderArmed();

/** Buffer one record (no-op while disarmed). */
void appendAuditRecord(const AuditRecord &record);

/**
 * Extract every buffered record — live rings and retired threads —
 * sorted by timestamp, clearing the buffers. Concurrent appends land
 * in either this drain or the next.
 */
std::vector<AuditRecord> drainAuditRecords();

/** Records accepted since the last arm (survives drains). */
uint64_t auditRecordsAppended();

/** Records overwritten by ring overflow since the last arm. */
uint64_t auditRecordsDropped();

/**
 * Drain and write JSONL: a header object (type, @p reason, build
 * info, record/drop accounting), then one record object per line.
 */
void dumpFlightRecorder(std::ostream &os, std::string_view reason);

/** dumpFlightRecorder() into @p path; warn+false on IO error. */
bool dumpFlightRecorderToFile(const std::string &path,
                              std::string_view reason);

#else // HETEROMAP_TELEMETRY=OFF: inline no-ops, armed() is constant
      // false so guarded call sites compile away entirely.

inline void
armFlightRecorder(std::size_t = kFlightRingCapacity)
{
}

inline void
disarmFlightRecorder()
{
}

inline bool
flightRecorderArmed()
{
    return false;
}

inline void
appendAuditRecord(const AuditRecord &)
{
}

inline std::vector<AuditRecord>
drainAuditRecords()
{
    return {};
}

inline uint64_t
auditRecordsAppended()
{
    return 0;
}

inline uint64_t
auditRecordsDropped()
{
    return 0;
}

void dumpFlightRecorder(std::ostream &os, std::string_view reason);

bool dumpFlightRecorderToFile(const std::string &path,
                              std::string_view reason);

#endif // HETEROMAP_TELEMETRY

} // namespace forensics
} // namespace heteromap

#endif // HETEROMAP_UTIL_FLIGHT_RECORDER_HH
