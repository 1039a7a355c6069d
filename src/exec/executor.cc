/**
 * @file
 * Executor and ScheduleModel implementation.
 */

#include "exec/executor.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace heteromap {

const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
      case SchedulePolicy::Static:        return "static";
      case SchedulePolicy::StaticChunked: return "static-chunked";
      case SchedulePolicy::Dynamic:       return "dynamic";
      case SchedulePolicy::Guided:        return "guided";
      case SchedulePolicy::Auto:          return "auto";
    }
    return "?";
}

PhaseProfile &
Executor::phaseSlot(const std::string &name, PhaseKind kind)
{
    for (auto &phase : profile_.phases) {
        if (phase.name == name) {
            HM_ASSERT(phase.kind == kind,
                      "phase '", name, "' re-run with a different kind");
            return phase;
        }
    }
    PhaseProfile fresh;
    fresh.name = name;
    fresh.kind = kind;
    fresh.bucketCost.assign(kNumBuckets, 0.0);
    profile_.phases.push_back(std::move(fresh));
    return profile_.phases.back();
}

void
Executor::barrier()
{
    ++profile_.barriers;
}

void
Executor::endIteration()
{
    ++profile_.iterations;
}

WorkloadProfile
Executor::takeProfile()
{
    WorkloadProfile out = std::move(profile_);
    profile_ = WorkloadProfile{};
    return out;
}

ScheduleModel::ScheduleModel(const std::vector<double> &bucket_cost,
                             double chunk_buckets, double max_item_cost)
    : buckets_(bucket_cost), chunkBuckets_(chunk_buckets),
      maxItemCost_(max_item_cost)
{
    // Prefix sums make every span query O(threads); the per-chunk
    // maximum drives the analytic dynamic-scheduling bound.
    prefix_.reserve(buckets_.size() + 1);
    prefix_.push_back(0.0);
    const auto chunk = static_cast<std::size_t>(
        std::max(1.0, chunkBuckets_));
    double chunk_sum = 0.0;
    std::size_t in_chunk = 0;
    for (double c : buckets_) {
        total_ += c;
        maxBucket_ = std::max(maxBucket_, c);
        prefix_.push_back(total_);
        chunk_sum += c;
        if (++in_chunk == chunk) {
            maxChunk_ = std::max(maxChunk_, chunk_sum);
            chunk_sum = 0.0;
            in_chunk = 0;
        }
    }
    maxChunk_ = std::max(maxChunk_, chunk_sum);

    // Chunks finer than one histogram bucket split bucket-level skew:
    // the heaviest chunk is the bucket fraction it covers, floored by
    // the heaviest single item.
    if (chunkBuckets_ > 0.0 && chunkBuckets_ < 1.0) {
        maxChunk_ = std::max(maxItemCost_,
                             maxBucket_ * chunkBuckets_);
    }
}

double
ScheduleModel::staticSpan(unsigned threads) const
{
    const std::size_t nb = buckets_.size();
    if (threads >= nb) {
        // More threads than histogram bins: imbalance below bucket
        // granularity is invisible, so assume an even split bounded
        // below by the heaviest single item (applied by the caller).
        return total_ / static_cast<double>(threads);
    }
    double span = 0.0;
    for (unsigned t = 0; t < threads; ++t) {
        std::size_t lo = (static_cast<std::size_t>(t) * nb) / threads;
        std::size_t hi =
            (static_cast<std::size_t>(t) + 1) * nb / threads;
        span = std::max(span, prefix_[hi] - prefix_[lo]);
    }
    return span;
}

double
ScheduleModel::chunkedSpan(unsigned threads, double chunk_buckets) const
{
    // Round-robin chunk assignment lands between the static block
    // partition and ideal balance; model it as their midpoint with the
    // chunk-size floor.
    (void)chunk_buckets;
    const double ideal = total_ / static_cast<double>(threads);
    return std::max(maxChunk_, 0.5 * (staticSpan(threads) + ideal));
}

double
ScheduleModel::dynamicSpan(unsigned threads) const
{
    // Greedy list scheduling keeps every thread busy until fewer than
    // one chunk of work remains: span ~ max(ideal, heaviest chunk).
    const double ideal = total_ / static_cast<double>(threads);
    return std::max(ideal, maxChunk_);
}

double
ScheduleModel::spanFactor(unsigned threads, SchedulePolicy policy) const
{
    HM_ASSERT(threads > 0, "spanFactor needs >= 1 thread");
    if (total_ <= 0.0)
        return 1.0;
    double ideal = total_ / static_cast<double>(threads);
    if (ideal <= 0.0)
        return 1.0;

    double span = 0.0;
    switch (policy) {
      case SchedulePolicy::Static:
        span = staticSpan(threads);
        break;
      case SchedulePolicy::StaticChunked:
        span = chunkedSpan(threads, std::max(1.0, chunkBuckets_));
        break;
      case SchedulePolicy::Dynamic:
        span = dynamicSpan(threads);
        break;
      case SchedulePolicy::Guided:
        // Guided lands between static and dynamic; model as the mean.
        span = 0.5 * (staticSpan(threads) + dynamicSpan(threads));
        break;
      case SchedulePolicy::Auto:
        span = std::min(staticSpan(threads), dynamicSpan(threads));
        break;
    }

    // A span can never undercut the heaviest single item.
    span = std::max(span, maxItemCost_);
    return std::max(1.0, span / ideal);
}

double
ScheduleModel::chunkCount(unsigned threads, SchedulePolicy policy) const
{
    const double nb = static_cast<double>(buckets_.size());
    switch (policy) {
      case SchedulePolicy::Static:
        return threads;
      case SchedulePolicy::StaticChunked:
      case SchedulePolicy::Dynamic:
        return nb / std::max(1.0, chunkBuckets_);
      case SchedulePolicy::Guided:
        // Exponentially shrinking chunks: ~T * log(n/T) grabs.
        return static_cast<double>(threads) *
               std::max(1.0, std::log2(nb / std::max(1u, threads) + 1.0));
      case SchedulePolicy::Auto:
        return threads;
    }
    return threads;
}

} // namespace heteromap
