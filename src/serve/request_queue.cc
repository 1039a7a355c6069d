/**
 * @file
 * Request queue implementation.
 */

#include "serve/request_queue.hh"

#include "util/logging.hh"
#include "util/telemetry.hh"

namespace heteromap {
namespace serve {

std::string
ServeError::toString() const
{
    return std::string(errorCodeName(code)) + " error: " + message;
}

BatchKey
makeBatchKey(const ServeRequest &request)
{
    HM_ASSERT(request.graph != nullptr,
              "a serve request needs a graph");
    return {fingerprintGraph(*request.graph), request.measure.sweeps,
            request.measure.seed};
}

RequestQueue::RequestQueue(std::size_t capacity) : capacity_(capacity)
{
    HM_ASSERT(capacity > 0, "request queue needs a positive capacity");
}

void
RequestQueue::publishDepth() const
{
    // Called with mutex_ held.
    HM_GAUGE_SET("serve.queue_depth",
                 static_cast<double>(queue_.size()));
}

RequestQueue::PushResult
RequestQueue::push(PendingRequest &pending, AdmissionPolicy policy)
{
    std::unique_lock<std::mutex> lock(mutex_);
    if (policy == AdmissionPolicy::Block) {
        not_full_.wait(lock, [&] {
            return closed_ || queue_.size() < capacity_;
        });
    }
    if (closed_)
        return PushResult::Closed;
    if (queue_.size() >= capacity_)
        return PushResult::Full;
    queue_.push_back(std::move(pending));
    publishDepth();
    lock.unlock();
    // notify_all: poppers wait for any request, batch gatherers for a
    // matching one — both predicates live on not_empty_.
    not_empty_.notify_all();
    return PushResult::Admitted;
}

bool
RequestQueue::pop(PendingRequest &out)
{
    std::unique_lock<std::mutex> lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || !queue_.empty(); });
    if (queue_.empty())
        return false; // closed and fully drained
    out = std::move(queue_.front());
    queue_.pop_front();
    publishDepth();
    lock.unlock();
    not_full_.notify_one();
    return true;
}

std::size_t
RequestQueue::popMatchingUntil(
    const BatchKey &key, std::size_t max_count,
    std::chrono::steady_clock::time_point deadline,
    std::vector<PendingRequest> &out)
{
    std::size_t extracted = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        for (auto it = queue_.begin();
             it != queue_.end() && extracted < max_count;) {
            if (it->key == key) {
                out.push_back(std::move(*it));
                it = queue_.erase(it);
                ++extracted;
            } else {
                ++it;
            }
        }
        if (extracted > 0) {
            publishDepth();
            not_full_.notify_all();
        }
        if (extracted >= max_count || closed_ ||
            std::chrono::steady_clock::now() >= deadline) {
            return extracted;
        }
        if (not_empty_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
            // One final scan above on the next loop iteration would
            // hit the deadline check; scan now and leave.
            continue;
        }
    }
}

void
RequestQueue::close()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
}

bool
RequestQueue::closed() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
}

std::size_t
RequestQueue::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return queue_.size();
}

} // namespace serve
} // namespace heteromap
