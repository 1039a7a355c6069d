#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <utility>

namespace hmbench {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

std::size_t
SpanRecorder::begin(std::string name, std::size_t parent,
                    uint64_t request_id)
{
    Span span;
    span.name = std::move(name);
    span.parent = parent;
    span.requestId = request_id;
    span.startNs = nowNs();
    return add(std::move(span));
}

void
SpanRecorder::end(std::size_t index)
{
    const int64_t now = nowNs();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].endNs = now;
}

std::size_t
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
    return spans_.size() - 1;
}

std::vector<Span>
SpanRecorder::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
writeChromeTrace(const std::string &path,
                 const std::vector<TraceProcess> &processes)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << std::fixed << std::setprecision(3); // microseconds, to the ns
    int64_t origin = 0;
    for (const TraceProcess &process : processes)
        for (const Span &s : process.spans)
            if (origin == 0 || s.startNs < origin)
                origin = s.startNs;
    out << "{\"traceEvents\":[";
    for (std::size_t pid = 0; pid < processes.size(); ++pid) {
        out << (pid ? ",\n" : "\n")
            << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
            << ",\"args\":{\"name\":\"" << processes[pid].label << "\"}}";
        const std::vector<Span> &spans = processes[pid].spans;
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << ",\n{\"name\":\"" << s.name << "\",\"cat\":\""
                << layerOf(s.name) << "\",\"ph\":\"X\",\"pid\":" << pid
                << ",\"tid\":" << s.thread << ",\"ts\":"
                << static_cast<double>(s.startNs - origin) / 1e3
                << ",\"dur\":"
                << static_cast<double>(s.endNs - s.startNs) / 1e3
                << ",\"args\":{\"span\":" << i << ",\"parent\":"
                << (s.parent == kNoParent
                        ? -1
                        : static_cast<long long>(s.parent))
                << ",\"request\":" << s.requestId << "}}";
        }
    }
    out << "\n],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
}

std::vector<double>
selfTimesMs(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span &s : spans)
        if (s.parent != kNoParent && s.parent < spans.size())
            children[s.parent].emplace_back(s.startNs, s.endNs);

    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        int64_t covered = 0;
        int64_t cursor = s.startNs;
        for (auto [lo, hi] : kids) {
            lo = std::max(lo, cursor);
            hi = std::min(hi, s.endNs);
            if (hi > lo) {
                covered += hi - lo;
                cursor = hi;
            }
        }
        self[i] = static_cast<double>(s.endNs - s.startNs - covered) / 1e6;
    }
    return self;
}

std::map<std::string, double>
selfTimeByLayerMs(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimesMs(spans);
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans.size(); ++i)
        by_layer[layerOf(spans[i].name)] += self[i];
    return by_layer;
}

} // namespace hmbench
