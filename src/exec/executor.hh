/**
 * @file
 * Instrumented executor. Workloads express their outer loops through
 * parallelFor()/barrier(); the executor runs the kernels *serially and
 * deterministically* while recording per-phase counters and the work
 * distribution over the item index space. Parallel behaviour (span,
 * imbalance, schedule policy) is reconstructed afterwards by the
 * ScheduleModel from the recorded bucket histogram, so one execution
 * serves every accelerator / thread-count / schedule combination.
 */

#ifndef HETEROMAP_EXEC_EXECUTOR_HH
#define HETEROMAP_EXEC_EXECUTOR_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/profile.hh"

namespace heteromap {

/** OpenMP-style scheduling policies (machine choice M9). */
enum class SchedulePolicy {
    Static,
    StaticChunked,
    Guided,
    Dynamic,
    Auto,
};

/** @return a short name, e.g. "dynamic". */
const char *schedulePolicyName(SchedulePolicy policy);

/**
 * Collects a WorkloadProfile while a workload executes. One Executor
 * instance per (workload, input) run.
 */
class Executor
{
  public:
    Executor() = default;

    /**
     * Run @p kernel over [0, num_items) under phase @p name of kind
     * @p kind. Repeated invocations with the same name accumulate into
     * one PhaseProfile. Items execute in index order.
     *
     * @p kernel is any callable `void(uint64_t idx, ItemCost &cost)`;
     * it is inlined into the item loop. Each item's costs are folded
     * into running sums held in locals, in the same add order as
     * folding them into the phase one item at a time, and written
     * back to the PhaseProfile when the invocation ends. A kernel
     * that reads profile() mid-invocation therefore sees the phase as
     * it stood before the invocation, without this invocation's
     * partial sums (no workload does this).
     */
    template <typename KernelFn>
    void parallelFor(const std::string &name, PhaseKind kind,
                     uint64_t num_items, KernelFn &&kernel);

    /** Record one global barrier crossing. */
    void barrier();

    /** Mark the completion of one outer iteration. */
    void endIteration();

    /** @return the accumulated profile (valid any time). */
    const WorkloadProfile &profile() const { return profile_; }

    /** Move the profile out; the executor is reset afterwards. */
    WorkloadProfile takeProfile();

  private:
    WorkloadProfile profile_;

    /** Find-or-create the accumulation slot for a phase. */
    PhaseProfile &phaseSlot(const std::string &name, PhaseKind kind);

    /** Bucket of item @p idx: floor(idx * kNumBuckets / num_items). */
    static std::size_t
    bucketOf(uint64_t idx, uint64_t num_items)
    {
        // 128-bit intermediate: idx * kNumBuckets overflows uint64_t
        // once num_items exceeds 2^64 / kNumBuckets (~3.6e16 items).
        return static_cast<std::size_t>(
            (static_cast<__uint128_t>(idx) * kNumBuckets) / num_items);
    }

    /** First item of @p bucket: ceil(bucket * num_items / kNumBuckets). */
    static uint64_t
    bucketBegin(std::size_t bucket, uint64_t num_items)
    {
        return static_cast<uint64_t>(
            (static_cast<__uint128_t>(bucket) * num_items + kNumBuckets -
             1) / kNumBuckets);
    }
};

template <typename KernelFn>
void
Executor::parallelFor(const std::string &name, PhaseKind kind,
                      uint64_t num_items, KernelFn &&kernel)
{
    PhaseProfile &phase = phaseSlot(name, kind);
    ++phase.invocations;
    phase.workItems += num_items;
    if (num_items == 0)
        return;

    double int_ops = phase.intOps;
    double fp_ops = phase.fpOps;
    double direct = phase.directAccesses;
    double indirect = phase.indirectAccesses;
    double shared_read = phase.sharedReadBytes;
    double shared_write = phase.sharedWriteBytes;
    double local_bytes = phase.localBytes;
    double atomics = phase.atomics;
    double max_item = phase.maxItemCost;

    // Items [bucketBegin(b), bucketBegin(b + 1)) are exactly those with
    // bucketOf(idx) == b, so the bucket only needs recomputing when the
    // walk reaches the next boundary.
    double *buckets = phase.bucketCost.data();
    std::size_t bucket = 0;
    uint64_t bucket_end = bucketBegin(1, num_items);
    double bucket_sum = buckets[0];

    for (uint64_t idx = 0; idx < num_items; ++idx) {
        if (idx == bucket_end) {
            buckets[bucket] = bucket_sum;
            bucket = bucketOf(idx, num_items);
            bucket_end = bucketBegin(bucket + 1, num_items);
            bucket_sum = buckets[bucket];
        }
        ItemCost cost;
        kernel(idx, cost);

        int_ops += cost.intOps;
        fp_ops += cost.fpOps;
        direct += cost.directAccesses;
        indirect += cost.indirectAccesses;
        shared_read += cost.sharedReadBytes;
        shared_write += cost.sharedWriteBytes;
        local_bytes += cost.localBytes;
        atomics += cost.atomics;

        const double units = cost.workUnits();
        max_item = std::max(max_item, units);
        bucket_sum += units;
    }
    buckets[bucket] = bucket_sum;

    phase.intOps = int_ops;
    phase.fpOps = fp_ops;
    phase.directAccesses = direct;
    phase.indirectAccesses = indirect;
    phase.sharedReadBytes = shared_read;
    phase.sharedWriteBytes = shared_write;
    phase.localBytes = local_bytes;
    phase.atomics = atomics;
    phase.maxItemCost = max_item;
}

/**
 * Reconstructs parallel spans from a phase's bucket histogram.
 *
 * Given T threads and a scheduling policy, spanFactor() returns the
 * ratio of the parallel span to the ideal span (total / T); 1.0 means
 * perfectly balanced. chunkCount() reports how many scheduling events
 * the policy generates, which the performance model charges dynamic-
 * scheduling overhead for.
 */
class ScheduleModel
{
  public:
    /**
     * @param bucket_cost   Work-unit histogram (from PhaseProfile).
     * @param chunk_buckets Chunk size for StaticChunked/Dynamic, in
     *                      buckets; <= 0 picks a default of 1.
     * @param max_item_cost Heaviest single item (span floor).
     */
    explicit ScheduleModel(const std::vector<double> &bucket_cost,
                           double chunk_buckets = 0.0,
                           double max_item_cost = 0.0);

    /** Span ratio >= 1 for @p threads under @p policy. */
    double spanFactor(unsigned threads, SchedulePolicy policy) const;

    /** Scheduling events charged overhead under @p policy. */
    double chunkCount(unsigned threads, SchedulePolicy policy) const;

    /** Total recorded work units. */
    double totalCost() const { return total_; }

  private:
    std::vector<double> buckets_;
    std::vector<double> prefix_; //!< prefix sums over buckets_
    double total_ = 0.0;
    double maxBucket_ = 0.0;
    double maxChunk_ = 0.0;      //!< heaviest aligned chunk
    double chunkBuckets_ = 0.0;
    double maxItemCost_ = 0.0;

    double staticSpan(unsigned threads) const;
    double chunkedSpan(unsigned threads, double chunk_buckets) const;
    double dynamicSpan(unsigned threads) const;
};

} // namespace heteromap

#endif // HETEROMAP_EXEC_EXECUTOR_HH
