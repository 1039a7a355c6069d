/**
 * @file
 * Flight-recorder rings and JSONL export. The ring/collector
 * structure deliberately mirrors util/trace.cc so the two forensic
 * buffers share one concurrency story: per-thread rings behind a
 * per-ring mutex that only the drainer contends, drop-oldest with
 * counted drops, retired-thread records preserved, leaked singleton.
 */

#include "util/flight_recorder.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <sstream>

#include "util/build_info.hh"
#include "util/logging.hh"
#include "util/trace.hh"

namespace heteromap {
namespace forensics {

namespace {

/** Format a double for audit JSON (compact, round-trippable). */
std::string
formatAuditDouble(double value)
{
    std::ostringstream oss;
    oss << std::setprecision(12) << value;
    return oss.str();
}

} // namespace

std::string
auditRecordToJson(const AuditRecord &record)
{
    std::ostringstream oss;
    oss << "{\"type\":\"audit\",\"request_id\":" << record.requestId
        << ",\"ts_ns\":" << record.timestampNs
        << ",\"model_epoch\":" << record.modelEpoch
        << ",\"graph_fp\":\"" << std::hex << record.graphFingerprint
        << std::dec << "\",\"model_kind\":\""
        << telemetry::jsonEscape(record.modelKind)
        << "\",\"workload\":\""
        << telemetry::jsonEscape(record.workload)
        << "\",\"tree_leaf\":" << record.treeLeaf
        << ",\"tree_mask\":" << record.treePredicateMask
        << ",\"accelerator\":\""
        << telemetry::jsonEscape(record.accelerator) << "\",\"features\":[";
    for (std::size_t i = 0; i < record.features.size(); ++i)
        oss << (i == 0 ? "" : ",")
            << formatAuditDouble(record.features[i]);
    oss << "],\"scores\":[";
    for (std::size_t i = 0; i < record.scores.size(); ++i)
        oss << (i == 0 ? "" : ",") << formatAuditDouble(record.scores[i]);
    oss << "],\"queue_ms\":" << formatAuditDouble(record.queueMs)
        << ",\"measure_ms\":" << formatAuditDouble(record.measureMs)
        << ",\"featurize_ms\":" << formatAuditDouble(record.featurizeMs)
        << ",\"profile_ms\":" << formatAuditDouble(record.profileMs)
        << ",\"infer_ms\":" << formatAuditDouble(record.inferMs)
        << ",\"service_ms\":" << formatAuditDouble(record.serviceMs)
        << ",\"status\":" << record.status
        << ",\"degradation\":" << record.degradationLevel
        << ",\"supervised\":" << (record.supervised ? "true" : "false")
        << ",\"fallback\":"
        << (record.servedByFallback ? "true" : "false")
        << ",\"has_outcome\":" << (record.hasOutcome ? "true" : "false")
        << ",\"within_tolerance\":"
        << (record.withinTolerance ? "true" : "false") << "}";
    return oss.str();
}

#if HETEROMAP_TELEMETRY

namespace {

std::atomic<bool> armedFlag{false};
std::atomic<std::size_t> ringCapacity{kFlightRingCapacity};
std::atomic<uint64_t> appendedTotal{0};
std::atomic<uint64_t> droppedTotal{0};

/** One thread's audit ring. The owning thread appends; drains lock. */
struct AuditRing {
    std::mutex mutex;
    std::vector<AuditRecord> records;
    std::size_t next = 0;
    bool wrapped = false;

    void
    push(const AuditRecord &record)
    {
        bool dropped = false;
        {
            std::lock_guard<std::mutex> lock(mutex);
            const std::size_t capacity =
                ringCapacity.load(std::memory_order_relaxed);
            if (records.size() < capacity) {
                records.push_back(record);
            } else {
                records[next] = record;
                next = (next + 1) % records.size();
                wrapped = true;
                dropped = true;
            }
        }
        appendedTotal.fetch_add(1, std::memory_order_relaxed);
        if (dropped) {
            droppedTotal.fetch_add(1, std::memory_order_relaxed);
            HM_COUNTER_INC("flight.dropped");
        }
    }

    /** Extract oldest-first and reset the ring. Caller locks. */
    std::vector<AuditRecord>
    takeLocked()
    {
        std::vector<AuditRecord> out;
        out.reserve(records.size());
        if (wrapped) {
            out.insert(out.end(), records.begin() + long(next),
                       records.end());
            out.insert(out.end(), records.begin(),
                       records.begin() + long(next));
        } else {
            out = std::move(records);
        }
        records.clear();
        next = 0;
        wrapped = false;
        return out;
    }
};

/** Live thread rings plus exited threads' preserved records. */
class AuditCollector
{
  public:
    static AuditCollector &
    instance()
    {
        // Leaked: appending threads may outlive main()'s statics.
        static AuditCollector *the = new AuditCollector;
        return *the;
    }

    AuditRing *
    adopt()
    {
        auto ring = std::make_unique<AuditRing>();
        AuditRing *raw = ring.get();
        std::lock_guard<std::mutex> lock(mutex_);
        live_.push_back(std::move(ring));
        return raw;
    }

    void
    retire(AuditRing *ring)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            auto records = ring->takeLocked();
            retired_.insert(retired_.end(), records.begin(),
                            records.end());
        }
        auto it = std::find_if(
            live_.begin(), live_.end(),
            [ring](const auto &owned) { return owned.get() == ring; });
        if (it != live_.end())
            live_.erase(it);
    }

    std::vector<AuditRecord>
    drain()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<AuditRecord> out = std::move(retired_);
        retired_.clear();
        for (const auto &ring : live_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            auto records = ring->takeLocked();
            out.insert(out.end(), records.begin(), records.end());
        }
        std::stable_sort(out.begin(), out.end(),
                         [](const AuditRecord &a, const AuditRecord &b) {
                             return a.timestampNs < b.timestampNs;
                         });
        return out;
    }

    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        retired_.clear();
        for (const auto &ring : live_) {
            std::lock_guard<std::mutex> ring_lock(ring->mutex);
            ring->records.clear();
            ring->records.shrink_to_fit();
            ring->next = 0;
            ring->wrapped = false;
        }
    }

  private:
    AuditCollector() = default;

    std::mutex mutex_;
    std::vector<std::unique_ptr<AuditRing>> live_;
    std::vector<AuditRecord> retired_;
};

/** Registers on first append, retires records on thread exit. */
struct AuditRingHandle {
    AuditRing *ring;

    AuditRingHandle() : ring(AuditCollector::instance().adopt()) {}
    ~AuditRingHandle() { AuditCollector::instance().retire(ring); }
};

AuditRing &
localRing()
{
    thread_local AuditRingHandle handle;
    return *handle.ring;
}

} // namespace

void
armFlightRecorder(std::size_t ring_capacity)
{
    if (ring_capacity == 0)
        ring_capacity = 1;
    ringCapacity.store(ring_capacity, std::memory_order_relaxed);
    AuditCollector::instance().clear();
    appendedTotal.store(0, std::memory_order_relaxed);
    droppedTotal.store(0, std::memory_order_relaxed);
    armedFlag.store(true, std::memory_order_release);
}

void
disarmFlightRecorder()
{
    armedFlag.store(false, std::memory_order_release);
}

bool
flightRecorderArmed()
{
    return armedFlag.load(std::memory_order_relaxed);
}

void
appendAuditRecord(const AuditRecord &record)
{
    if (!flightRecorderArmed())
        return;
    localRing().push(record);
}

std::vector<AuditRecord>
drainAuditRecords()
{
    return AuditCollector::instance().drain();
}

uint64_t
auditRecordsAppended()
{
    return appendedTotal.load(std::memory_order_relaxed);
}

uint64_t
auditRecordsDropped()
{
    return droppedTotal.load(std::memory_order_relaxed);
}

void
dumpFlightRecorder(std::ostream &os, std::string_view reason)
{
    const std::vector<AuditRecord> records = drainAuditRecords();
    os << "{\"type\":\"flight-recorder\",\"reason\":\""
       << telemetry::jsonEscape(reason)
       << "\",\"build\":" << telemetry::buildInfoJson()
       << ",\"records\":" << records.size()
       << ",\"appended\":" << auditRecordsAppended()
       << ",\"dropped\":" << auditRecordsDropped() << "}\n";
    for (const AuditRecord &record : records)
        os << auditRecordToJson(record) << "\n";
}

bool
dumpFlightRecorderToFile(const std::string &path, std::string_view reason)
{
    std::ofstream file(path);
    if (!file) {
        warn("flight-recorder: cannot open ", path, " for writing");
        return false;
    }
    dumpFlightRecorder(file, reason);
    if (!file.good()) {
        warn("flight-recorder: short write to ", path);
        return false;
    }
    inform("flight-recorder: wrote ", path, " (", reason, ")");
    return true;
}

#else // HETEROMAP_TELEMETRY=OFF: dumps still emit a valid (empty)
      // document so tooling pointed at an OFF build stays parseable.

void
dumpFlightRecorder(std::ostream &os, std::string_view reason)
{
    os << "{\"type\":\"flight-recorder\",\"reason\":\""
       << telemetry::jsonEscape(reason)
       << "\",\"build\":" << telemetry::buildInfoJson()
       << ",\"records\":0,\"appended\":0,\"dropped\":0}\n";
}

bool
dumpFlightRecorderToFile(const std::string &path, std::string_view reason)
{
    std::ofstream file(path);
    if (!file)
        return false;
    dumpFlightRecorder(file, reason);
    return file.good();
}

#endif // HETEROMAP_TELEMETRY

} // namespace forensics
} // namespace heteromap
