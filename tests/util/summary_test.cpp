#include "util/summary.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace downup::util {
namespace {

TEST(RunningStat, EmptyIsZero) {
  RunningStat stat;
  EXPECT_EQ(stat.count(), 0u);
  EXPECT_DOUBLE_EQ(stat.mean(), 0.0);
  EXPECT_DOUBLE_EQ(stat.stddev(), 0.0);
}

TEST(RunningStat, SingleValue) {
  RunningStat stat;
  stat.add(5.0);
  EXPECT_EQ(stat.count(), 1u);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 0.0);
  EXPECT_DOUBLE_EQ(stat.min(), 5.0);
  EXPECT_DOUBLE_EQ(stat.max(), 5.0);
}

TEST(RunningStat, KnownPopulation) {
  RunningStat stat;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(x);
  EXPECT_DOUBLE_EQ(stat.mean(), 5.0);
  EXPECT_DOUBLE_EQ(stat.variance(), 4.0);  // classic textbook example
  EXPECT_DOUBLE_EQ(stat.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(stat.min(), 2.0);
  EXPECT_DOUBLE_EQ(stat.max(), 9.0);
}

TEST(RunningStat, SampleVarianceUsesNMinusOne) {
  RunningStat stat;
  for (double x : {1.0, 2.0, 3.0}) stat.add(x);
  EXPECT_DOUBLE_EQ(stat.sampleVariance(), 1.0);
  EXPECT_NEAR(stat.variance(), 2.0 / 3.0, 1e-12);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  RunningStat left;
  RunningStat right;
  RunningStat combined;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.37 - 3.0;
    left.add(x);
    combined.add(x);
  }
  for (int i = 0; i < 70; ++i) {
    const double x = i * -0.21 + 10.0;
    right.add(x);
    combined.add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), combined.count());
  EXPECT_NEAR(left.mean(), combined.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), combined.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), combined.min());
  EXPECT_DOUBLE_EQ(left.max(), combined.max());
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat stat;
  stat.add(1.0);
  stat.add(3.0);
  RunningStat empty;
  stat.merge(empty);
  EXPECT_EQ(stat.count(), 2u);
  EXPECT_DOUBLE_EQ(stat.mean(), 2.0);

  RunningStat target;
  target.merge(stat);
  EXPECT_EQ(target.count(), 2u);
  EXPECT_DOUBLE_EQ(target.mean(), 2.0);
}

TEST(MeanAndStddev, SpanHelpers) {
  const std::vector<double> xs = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(populationStddev(xs), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_DOUBLE_EQ(populationStddev({}), 0.0);
}

TEST(Quantile, InterpolatesLinearly) {
  const std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(Quantile, UnsortedInputAndClamping) {
  const std::vector<double> xs = {9.0, 1.0, 5.0};
  EXPECT_DOUBLE_EQ(quantile(xs, 0.5), 5.0);
  EXPECT_DOUBLE_EQ(quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 2.0), 9.0);
  EXPECT_DOUBLE_EQ(quantile({}, 0.5), 0.0);
}

TEST(QuantileSketch, EmptyIsZero) {
  QuantileSketch sketch;
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_DOUBLE_EQ(sketch.mean(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 0.0);
  EXPECT_TRUE(sketch.exact());
}

TEST(QuantileSketch, ExactPhaseMatchesSpanHelpers) {
  QuantileSketch sketch;
  std::vector<double> xs;
  for (int i = 0; i < 1000; ++i) {
    const double x = (i * 7919) % 997 * 0.25;
    sketch.add(x);
    xs.push_back(x);
  }
  ASSERT_TRUE(sketch.exact());
  EXPECT_EQ(sketch.count(), xs.size());
  // Exact phase is bit-for-bit: the mean is a running sum in insertion
  // order and quantiles delegate to util::quantile on the full sample.
  EXPECT_DOUBLE_EQ(sketch.mean(), mean(xs));
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), quantile(xs, 0.5));
  EXPECT_DOUBLE_EQ(sketch.quantile(0.99), quantile(xs, 0.99));
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  ASSERT_EQ(sketch.exactValues().size(), xs.size());
  EXPECT_DOUBLE_EQ(sketch.exactValues()[17], xs[17]);
}

TEST(QuantileSketch, CollapsedPhaseStaysClose) {
  QuantileSketch sketch(/*exactCap=*/256, /*bins=*/512);
  std::vector<double> xs;
  for (int i = 0; i < 10000; ++i) {
    const double x = static_cast<double>((i * 131) % 1000);
    sketch.add(x);
    xs.push_back(x);
  }
  EXPECT_FALSE(sketch.exact());
  EXPECT_TRUE(sketch.exactValues().empty());
  EXPECT_EQ(sketch.count(), xs.size());
  // The mean stays exact through the collapse; quantiles are interpolated
  // within fixed-width bins, so the error is bounded by the bin width.
  EXPECT_DOUBLE_EQ(sketch.mean(), mean(xs));
  const double binWidth = 1.5 * 1000.0 / 512.0;
  EXPECT_NEAR(sketch.quantile(0.5), quantile(xs, 0.5), binWidth);
  EXPECT_NEAR(sketch.quantile(0.99), quantile(xs, 0.99), binWidth);
  EXPECT_DOUBLE_EQ(sketch.min(), 0.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 999.0);
  // Extreme quantiles clamp to the tracked min/max, never off the range.
  EXPECT_DOUBLE_EQ(sketch.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(1.0), 999.0);
}

TEST(QuantileSketch, ConstantStreamCollapses) {
  QuantileSketch sketch(/*exactCap=*/8, /*bins=*/16);
  for (int i = 0; i < 100; ++i) sketch.add(42.0);
  EXPECT_FALSE(sketch.exact());
  EXPECT_DOUBLE_EQ(sketch.mean(), 42.0);
  EXPECT_DOUBLE_EQ(sketch.quantile(0.5), 42.0);
}

TEST(QuantileSketch, SnapshotOfEmptyWindowIsAllZero) {
  const QuantileSketch sketch;
  const QuantileSketch::Snapshot snap = sketch.snapshot();
  EXPECT_EQ(snap, QuantileSketch::Snapshot{});
}

TEST(QuantileSketch, SnapshotOfSingleSample) {
  QuantileSketch sketch;
  sketch.add(37.5);
  const QuantileSketch::Snapshot snap = sketch.snapshot();
  EXPECT_EQ(snap.count, 1u);
  EXPECT_DOUBLE_EQ(snap.mean, 37.5);
  EXPECT_DOUBLE_EQ(snap.min, 37.5);
  EXPECT_DOUBLE_EQ(snap.max, 37.5);
  EXPECT_DOUBLE_EQ(snap.p50, 37.5);
  EXPECT_DOUBLE_EQ(snap.p99, 37.5);
}

TEST(QuantileSketch, ClearReusesWithoutStaleState) {
  QuantileSketch sketch(/*exactCap=*/8, /*bins=*/16);
  for (int i = 0; i < 100; ++i) sketch.add(1000.0);  // force the collapse
  sketch.clear();
  EXPECT_EQ(sketch.count(), 0u);
  EXPECT_TRUE(sketch.exact());
  EXPECT_EQ(sketch.snapshot(), QuantileSketch::Snapshot{});
  sketch.add(2.0);
  sketch.add(4.0);
  EXPECT_DOUBLE_EQ(sketch.mean(), 3.0);
  EXPECT_DOUBLE_EQ(sketch.min(), 2.0);
  EXPECT_DOUBLE_EQ(sketch.max(), 4.0);
}

TEST(QuantileSketch, MergeWithEmptySidesIsIdentity) {
  QuantileSketch target;
  const QuantileSketch empty;
  target.mergeFrom(empty);  // empty into empty
  EXPECT_EQ(target.count(), 0u);
  target.add(7.0);
  target.mergeFrom(empty);  // empty into populated
  EXPECT_EQ(target.count(), 1u);
  EXPECT_DOUBLE_EQ(target.mean(), 7.0);
  QuantileSketch fresh;
  fresh.mergeFrom(target);  // populated into empty
  EXPECT_EQ(fresh.count(), 1u);
  EXPECT_DOUBLE_EQ(fresh.quantile(0.5), 7.0);
}

TEST(QuantileSketch, ExactMergeMatchesSequentialAdds) {
  QuantileSketch merged;
  QuantileSketch other;
  QuantileSketch reference;
  for (int i = 0; i < 50; ++i) {
    merged.add(i);
    reference.add(i);
  }
  for (int i = 50; i < 120; ++i) {
    other.add(i);
    reference.add(i);
  }
  merged.mergeFrom(other);
  EXPECT_TRUE(merged.exact());
  EXPECT_EQ(merged.count(), reference.count());
  EXPECT_DOUBLE_EQ(merged.mean(), reference.mean());
  for (double q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), reference.quantile(q)) << "q=" << q;
  }
}

TEST(QuantileSketch, MergeOfDisjointCollapsedWindowsBoundsError) {
  // Two windows over disjoint ranges, both past their exact capacity: the
  // merge re-bins other's histogram, so count/mean/min/max stay exact and
  // quantiles land within the coarser bin width.
  QuantileSketch low(/*exactCap=*/32, /*bins=*/64);
  QuantileSketch high(/*exactCap=*/32, /*bins=*/64);
  std::vector<double> all;
  for (int i = 0; i < 100; ++i) {
    low.add(i);
    all.push_back(i);
  }
  for (int i = 1000; i < 1100; ++i) {
    high.add(i);
    all.push_back(i);
  }
  EXPECT_FALSE(low.exact());
  EXPECT_FALSE(high.exact());
  low.mergeFrom(high);
  EXPECT_EQ(low.count(), all.size());
  EXPECT_DOUBLE_EQ(low.mean(), mean(all));
  EXPECT_DOUBLE_EQ(low.min(), 0.0);
  EXPECT_DOUBLE_EQ(low.max(), 1099.0);
  // The merged grid spans [0, 1099], so allow a few bin widths of
  // interpolation error.  (Quantiles are probed inside each cluster — at
  // the inter-cluster gap the raw-sample interpolation between 99 and 1000
  // and a histogram rank lookup legitimately disagree.)
  const double binWidth = 1.5 * (1099.0 - 0.0) / 64.0;
  EXPECT_NEAR(low.quantile(0.25), quantile(all, 0.25), 3 * binWidth);
  EXPECT_NEAR(low.quantile(0.9), quantile(all, 0.9), 3 * binWidth);
}

TEST(QuantileSketch, MergeExactIntoCollapsedKeepsMomentsExact) {
  QuantileSketch collapsed(/*exactCap=*/16, /*bins=*/32);
  for (int i = 0; i < 64; ++i) collapsed.add(i);
  QuantileSketch exact;
  exact.add(10.0);
  exact.add(20.0);
  const double expectedMean =
      (63.0 * 64.0 / 2.0 + 30.0) / static_cast<double>(64 + 2);
  collapsed.mergeFrom(exact);
  EXPECT_EQ(collapsed.count(), 66u);
  EXPECT_DOUBLE_EQ(collapsed.mean(), expectedMean);
}

}  // namespace
}  // namespace downup::util
