/**
 * @file
 * In-memory span recording for the traced run. Spans are recorded by
 * the benchmark around its calls into each library layer (name,
 * start, end, parent, request id), kept in memory, and written out as
 * one Chrome-trace JSON document when the run ends.
 */

#ifndef HMBENCH_SPANS_HH
#define HMBENCH_SPANS_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace hmbench {

/** Steady-clock nanoseconds. */
int64_t nowNs();

inline constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

struct Span {
    std::string name; //!< "<layer>.<what>", e.g. "graph.measure"
    int64_t startNs = 0;
    int64_t endNs = 0;
    std::size_t parent = kNoParent; //!< index into the recorder
    uint64_t requestId = 0;
    uint32_t thread = 0;
};

/** The layer a span belongs to: its name up to the first '.'. */
std::string layerOf(const std::string &name);

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    /** Open a span starting now; returns its index. */
    std::size_t begin(std::string name, std::size_t parent,
                      uint64_t request_id);

    /** Close span @p index now. */
    void end(std::size_t index);

    /** Append a complete span; returns its index. */
    std::size_t add(Span span);

    std::vector<Span> snapshot() const;

  private:
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** One process row of a Chrome trace: a label and its spans. */
struct TraceProcess {
    std::string label;
    std::vector<Span> spans;
};

/**
 * Write every span as a Chrome-trace "X" event, one pid per process.
 * Span and parent indices in the event args are per process.
 */
bool writeChromeTrace(const std::string &path,
                      const std::vector<TraceProcess> &processes);

/**
 * Self time of every span: its duration minus the part of it that its
 * children cover (child intervals are clipped to the parent and
 * merged before subtracting). Indexed like @p spans.
 */
std::vector<double> selfTimesMs(const std::vector<Span> &spans);

/** Sum of self times per layer (layerOf(name)), in milliseconds. */
std::map<std::string, double> selfTimeByLayerMs(
    const std::vector<Span> &spans);

} // namespace hmbench

#endif // HMBENCH_SPANS_HH
