/**
 * @file
 * Work-stealing thread pool implementation.
 */

#include "util/thread_pool.hh"

#include "util/logging.hh"
#include "util/telemetry.hh"
#include "util/timer.hh"

namespace heteromap {

std::size_t
ThreadPool::defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ThreadPool &
ThreadPool::shared()
{
    // Function-local static: constructed on first use, joined at
    // process exit after main()'s pools are gone.
    static ThreadPool pool(defaultThreadCount());
    return pool;
}

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = defaultThreadCount();
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        stop_.store(true);
    }
    idle_cv_.notify_all();
    for (std::thread &thread : threads_)
        thread.join();
}

void
ThreadPool::submit(Task task)
{
    HM_ASSERT(task != nullptr, "submitted an empty task");
    HM_ASSERT(!stop_.load(), "submit() on a stopping pool");
    Worker &target =
        *workers_[next_.fetch_add(1) % workers_.size()];
    pending_.fetch_add(1);
    {
        std::lock_guard<std::mutex> lock(target.mutex);
        target.queue.push_back(std::move(task));
    }
    // Publish under idle_mutex_ so a worker checking its wait
    // predicate cannot miss the increment. The counter update stays
    // outside the gauge macro, which a telemetry-OFF build compiles
    // to an unevaluated expression.
    {
        std::lock_guard<std::mutex> lock(idle_mutex_);
        const std::size_t depth = queued_.fetch_add(1) + 1;
        HM_GAUGE_SET("pool.queue_depth", double(depth));
    }
    idle_cv_.notify_one();
}

bool
ThreadPool::tryPop(std::size_t self, Task &task)
{
    // Own queue first (front: submission order), then steal from the
    // back of each sibling, scanning from our right-hand neighbour.
    {
        Worker &own = *workers_[self];
        std::lock_guard<std::mutex> lock(own.mutex);
        if (!own.queue.empty()) {
            task = std::move(own.queue.front());
            own.queue.pop_front();
            const std::size_t depth = queued_.fetch_sub(1) - 1;
            HM_GAUGE_SET("pool.queue_depth", double(depth));
            return true;
        }
    }
    for (std::size_t offset = 1; offset < workers_.size(); ++offset) {
        Worker &victim = *workers_[(self + offset) % workers_.size()];
        std::lock_guard<std::mutex> lock(victim.mutex);
        if (!victim.queue.empty()) {
            task = std::move(victim.queue.back());
            victim.queue.pop_back();
            const std::size_t depth = queued_.fetch_sub(1) - 1;
            HM_GAUGE_SET("pool.queue_depth", double(depth));
            HM_COUNTER_INC("pool.steals");
            return true;
        }
    }
    return false;
}

void
ThreadPool::runTask(Task &task)
{
    HM_COUNTER_INC("pool.tasks");
    try {
        task();
    } catch (...) {
        std::lock_guard<std::mutex> lock(exception_mutex_);
        if (first_exception_ == nullptr)
            first_exception_ = std::current_exception();
    }
    std::size_t left = pending_.fetch_sub(1) - 1;
    if (left == 0) {
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_all();
    }
}

void
ThreadPool::workerLoop(std::size_t self)
{
    for (;;) {
        Task task;
        if (tryPop(self, task)) {
            runTask(task);
            continue;
        }
        std::unique_lock<std::mutex> lock(idle_mutex_);
        if (stop_.load() && queued_.load() == 0)
            return;
        Timer idle;
        idle.start();
        idle_cv_.wait(lock, [this] {
            return stop_.load() || queued_.load() > 0;
        });
        HM_HISTOGRAM_RECORD_MS("pool.worker_idle_ms",
                               idle.elapsedMillis());
        if (stop_.load() && queued_.load() == 0)
            return;
    }
}

void
ThreadPool::wait()
{
    {
        std::unique_lock<std::mutex> lock(done_mutex_);
        done_cv_.wait(lock,
                      [this] { return pending_.load() == 0; });
    }
    std::exception_ptr rethrow;
    {
        std::lock_guard<std::mutex> lock(exception_mutex_);
        std::swap(rethrow, first_exception_);
    }
    if (rethrow != nullptr)
        std::rethrow_exception(rethrow);
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &body)
{
    for (std::size_t i = 0; i < count; ++i)
        submit([&body, i] { body(i); });
    wait();
}

} // namespace heteromap
