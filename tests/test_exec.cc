/**
 * @file
 * Tests for the instrumented executor and the schedule model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exec/executor.hh"
#include "util/logging.hh"

namespace heteromap {
namespace {

TEST(ExecutorTest, AccumulatesCounters)
{
    Executor exec;
    exec.parallelFor("phase", PhaseKind::VertexDivision, 10,
                     [](uint64_t, ItemCost &cost) {
                         cost.intOps += 2;
                         cost.fpOps += 1;
                         cost.atomics += 1;
                         cost.sharedReadBytes += 4;
                     });
    const auto &profile = exec.profile();
    ASSERT_EQ(profile.phases.size(), 1u);
    const auto &phase = profile.phases[0];
    EXPECT_EQ(phase.workItems, 10u);
    EXPECT_EQ(phase.invocations, 1u);
    EXPECT_DOUBLE_EQ(phase.intOps, 20.0);
    EXPECT_DOUBLE_EQ(phase.fpOps, 10.0);
    EXPECT_DOUBLE_EQ(phase.atomics, 10.0);
    EXPECT_DOUBLE_EQ(phase.sharedReadBytes, 40.0);
}

TEST(ExecutorTest, RepeatedPhasesMergeByName)
{
    Executor exec;
    for (int i = 0; i < 3; ++i) {
        exec.parallelFor("loop", PhaseKind::Pareto, 5,
                         [](uint64_t, ItemCost &cost) {
                             cost.intOps += 1;
                         });
        exec.barrier();
        exec.endIteration();
    }
    const auto &profile = exec.profile();
    ASSERT_EQ(profile.phases.size(), 1u);
    EXPECT_EQ(profile.phases[0].invocations, 3u);
    EXPECT_EQ(profile.phases[0].workItems, 15u);
    EXPECT_EQ(profile.barriers, 3u);
    EXPECT_EQ(profile.iterations, 3u);
}

TEST(ExecutorTest, PhaseKindConflictIsPanic)
{
    Executor exec;
    exec.parallelFor("p", PhaseKind::Pareto, 1,
                     [](uint64_t, ItemCost &) {});
    EXPECT_THROW(exec.parallelFor("p", PhaseKind::Reduction, 1,
                                  [](uint64_t, ItemCost &) {}),
                 PanicError);
}

TEST(ExecutorTest, BucketsCaptureSkew)
{
    Executor exec;
    // All heavy work in the first half of the index space.
    exec.parallelFor("skew", PhaseKind::VertexDivision, 1000,
                     [](uint64_t idx, ItemCost &cost) {
                         cost.intOps += (idx < 500) ? 10.0 : 1.0;
                     });
    const auto &phase = exec.profile().phases[0];
    double first_half = 0.0;
    double second_half = 0.0;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
        if (b < kNumBuckets / 2)
            first_half += phase.bucketCost[b];
        else
            second_half += phase.bucketCost[b];
    }
    EXPECT_GT(first_half, 5.0 * second_half);
    EXPECT_DOUBLE_EQ(phase.maxItemCost, 10.0);
}

TEST(ExecutorTest, ItemLandsInBucketIdxTimesBucketsOverItems)
{
    for (uint64_t n : {1, 7, 511, 512, 513, 1000, 4099}) {
        // One phase counts the items per bucket, the other sums their
        // (idx + 1): together they pin each bucket's index interval.
        Executor exec;
        exec.parallelFor("count", PhaseKind::VertexDivision, n,
                         [](uint64_t, ItemCost &cost) {
                             cost.intOps += 1;
                         });
        exec.parallelFor("weight", PhaseKind::VertexDivision, n,
                         [](uint64_t idx, ItemCost &cost) {
                             cost.intOps += static_cast<double>(idx + 1);
                         });
        std::vector<double> count(kNumBuckets, 0.0);
        std::vector<double> weight(kNumBuckets, 0.0);
        for (uint64_t idx = 0; idx < n; ++idx) {
            const std::size_t bucket = idx * kNumBuckets / n;
            count[bucket] += 1.0;
            weight[bucket] += static_cast<double>(idx + 1);
        }
        const auto &phases = exec.profile().phases;
        ASSERT_EQ(phases.size(), 2u);
        EXPECT_EQ(phases[0].bucketCost, count) << "n=" << n;
        EXPECT_EQ(phases[1].bucketCost, weight) << "n=" << n;
    }
}

TEST(ExecutorTest, RepeatedInvocationsFoldLikeOneItemAtATime)
{
    // Non-integer costs make the fold order observable: the running
    // sums must equal adding every item's cost to the phase in turn,
    // across invocations.
    Executor exec;
    PhaseProfile expected;
    expected.bucketCost.assign(kNumBuckets, 0.0);
    for (uint64_t n : {3, 700, 1}) {
        auto kernel = [](uint64_t idx, ItemCost &cost) {
            cost.intOps += 1;
            cost.intOps += 0.1 * static_cast<double>(idx % 7);
            cost.localBytes += 1e16 + static_cast<double>(idx);
            cost.atomics += 0.3;
        };
        exec.parallelFor("fold", PhaseKind::Pareto, n, kernel);
        for (uint64_t idx = 0; idx < n; ++idx) {
            ItemCost cost;
            kernel(idx, cost);
            expected.intOps += cost.intOps;
            expected.localBytes += cost.localBytes;
            expected.atomics += cost.atomics;
            expected.maxItemCost =
                std::max(expected.maxItemCost, cost.workUnits());
            expected.bucketCost[idx * kNumBuckets / n] += cost.workUnits();
        }
    }
    const PhaseProfile &phase = exec.profile().phases[0];
    EXPECT_EQ(phase.intOps, expected.intOps);
    EXPECT_EQ(phase.localBytes, expected.localBytes);
    EXPECT_EQ(phase.atomics, expected.atomics);
    EXPECT_EQ(phase.maxItemCost, expected.maxItemCost);
    EXPECT_EQ(phase.bucketCost, expected.bucketCost);
}

TEST(ExecutorTest, TakeProfileResets)
{
    Executor exec;
    exec.parallelFor("p", PhaseKind::Pareto, 1,
                     [](uint64_t, ItemCost &) {});
    WorkloadProfile taken = exec.takeProfile();
    EXPECT_EQ(taken.phases.size(), 1u);
    EXPECT_TRUE(exec.profile().phases.empty());
}

TEST(ExecutorTest, ZeroItemInvocationCountsButAddsNoWork)
{
    Executor exec;
    exec.parallelFor("p", PhaseKind::Pareto, 0,
                     [](uint64_t, ItemCost &) { FAIL(); });
    EXPECT_EQ(exec.profile().phases[0].invocations, 1u);
    EXPECT_EQ(exec.profile().phases[0].workItems, 0u);
}

TEST(ProfileTest, MergeCombinesCounters)
{
    PhaseProfile a;
    a.name = "x";
    a.intOps = 5.0;
    a.maxItemCost = 2.0;
    a.bucketCost = {1.0, 2.0};
    PhaseProfile b = a;
    b.intOps = 7.0;
    b.maxItemCost = 9.0;
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.intOps, 12.0);
    EXPECT_DOUBLE_EQ(a.maxItemCost, 9.0);
    EXPECT_DOUBLE_EQ(a.bucketCost[0], 2.0);
}

TEST(ProfileTest, MergeRejectsMismatchedNames)
{
    PhaseProfile a;
    a.name = "x";
    PhaseProfile b;
    b.name = "y";
    EXPECT_THROW(a.merge(b), PanicError);
}

TEST(ProfileTest, ItemCostWeighting)
{
    ItemCost cost;
    cost.intOps = 1.0;
    cost.indirectAccesses = 1.0;
    cost.atomics = 1.0;
    // Indirect counts double, atomics four-fold.
    EXPECT_DOUBLE_EQ(cost.workUnits(), 1.0 + 2.0 + 4.0);
}

class ScheduleModelTest : public ::testing::Test
{
  protected:
    /** Uniform histogram of @p n buckets with unit cost. */
    static std::vector<double>
    uniform(std::size_t n)
    {
        return std::vector<double>(n, 1.0);
    }
};

TEST_F(ScheduleModelTest, UniformWorkIsBalanced)
{
    ScheduleModel model(uniform(512));
    EXPECT_NEAR(model.spanFactor(4, SchedulePolicy::Static), 1.0, 1e-9);
    EXPECT_NEAR(model.spanFactor(4, SchedulePolicy::Dynamic), 1.0,
                1e-9);
    EXPECT_DOUBLE_EQ(model.totalCost(), 512.0);
}

TEST_F(ScheduleModelTest, SkewHurtsStaticMoreThanDynamic)
{
    std::vector<double> buckets(512, 1.0);
    for (std::size_t i = 0; i < 64; ++i)
        buckets[i] = 20.0; // heavy head
    ScheduleModel model(buckets);
    double stat = model.spanFactor(8, SchedulePolicy::Static);
    double dyn = model.spanFactor(8, SchedulePolicy::Dynamic);
    EXPECT_GT(stat, 1.5);
    EXPECT_LT(dyn, stat);
}

TEST_F(ScheduleModelTest, GuidedBetweenStaticAndDynamic)
{
    std::vector<double> buckets(512, 1.0);
    for (std::size_t i = 0; i < 64; ++i)
        buckets[i] = 20.0;
    ScheduleModel model(buckets);
    double stat = model.spanFactor(8, SchedulePolicy::Static);
    double dyn = model.spanFactor(8, SchedulePolicy::Dynamic);
    double guided = model.spanFactor(8, SchedulePolicy::Guided);
    EXPECT_GE(guided, dyn - 1e-9);
    EXPECT_LE(guided, stat + 1e-9);
}

TEST_F(ScheduleModelTest, SingleThreadHasUnitSpan)
{
    std::vector<double> buckets = {5.0, 1.0, 1.0, 1.0};
    ScheduleModel model(buckets);
    for (auto policy : {SchedulePolicy::Static, SchedulePolicy::Dynamic,
                        SchedulePolicy::Guided, SchedulePolicy::Auto}) {
        EXPECT_NEAR(model.spanFactor(1, policy), 1.0, 1e-9);
    }
}

TEST_F(ScheduleModelTest, MaxItemCostBoundsSpan)
{
    // One item dominates: no amount of threads can beat its cost.
    std::vector<double> buckets(512, 1.0);
    ScheduleModel model(buckets, 1.0, /*max_item_cost=*/256.0);
    // Ideal span with 512 threads would be 1.0; the hot item forces
    // a span factor of 256.
    EXPECT_NEAR(model.spanFactor(512, SchedulePolicy::Static), 256.0,
                1e-9);
}

TEST_F(ScheduleModelTest, MoreThreadsNeverIncreaseSpan)
{
    std::vector<double> buckets(512, 0.0);
    for (std::size_t i = 0; i < 512; ++i)
        buckets[i] = (i * 7) % 13 + 1.0;
    ScheduleModel model(buckets);
    double prev_span = 1e300;
    for (unsigned threads : {1u, 2u, 4u, 8u, 16u, 64u, 256u}) {
        double factor =
            model.spanFactor(threads, SchedulePolicy::Dynamic);
        double span = factor * model.totalCost() / threads;
        EXPECT_LE(span, prev_span + 1e-9);
        prev_span = span;
    }
}

TEST_F(ScheduleModelTest, SpanFactorRequiresThreads)
{
    ScheduleModel model(uniform(8));
    EXPECT_THROW(model.spanFactor(0, SchedulePolicy::Static),
                 PanicError);
}

TEST_F(ScheduleModelTest, ChunkCountScalesWithPolicy)
{
    ScheduleModel model(uniform(512), /*chunk_buckets=*/8.0);
    EXPECT_DOUBLE_EQ(model.chunkCount(4, SchedulePolicy::Static), 4.0);
    EXPECT_DOUBLE_EQ(model.chunkCount(4, SchedulePolicy::Dynamic),
                     64.0);
    EXPECT_GT(model.chunkCount(4, SchedulePolicy::Guided), 4.0);
}

TEST(SchedulePolicyTest, NamesAreStable)
{
    EXPECT_STREQ(schedulePolicyName(SchedulePolicy::Static), "static");
    EXPECT_STREQ(schedulePolicyName(SchedulePolicy::Dynamic),
                 "dynamic");
}

} // namespace
} // namespace heteromap
