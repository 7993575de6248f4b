#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::util {
namespace {

TEST(OnlineStats, EmptyDefaults) {
  const OnlineStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(OnlineStats, MatchesDirectComputation) {
  const std::vector<double> xs{1.0, 2.0, 4.0, 8.0, 16.0};
  OnlineStats s;
  for (const double x : xs) s.add(x);
  EXPECT_EQ(s.count(), xs.size());
  EXPECT_DOUBLE_EQ(s.mean(), 6.2);
  // Sample variance: sum((x - mean)^2) / (n - 1) = 37.2
  EXPECT_NEAR(s.variance(), 37.2, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(37.2), 1e-12);
  EXPECT_EQ(s.min(), 1.0);
  EXPECT_EQ(s.max(), 16.0);
  EXPECT_NEAR(s.sum(), 31.0, 1e-12);
}

TEST(OnlineStats, MergeEqualsSequential) {
  OnlineStats left, right, all;
  for (int i = 0; i < 100; ++i) {
    const double x = std::sin(i) * 10;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_EQ(left.min(), all.min());
  EXPECT_EQ(left.max(), all.max());
}

TEST(OnlineStats, MergeWithEmpty) {
  OnlineStats a;
  a.add(3.0);
  OnlineStats b;
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.mean(), 3.0);
}

TEST(OnlineStats, MergeEmptyIntoEmptyStaysEmpty) {
  OnlineStats a, b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(a.mean(), 0.0);
  EXPECT_EQ(a.variance(), 0.0);
}

TEST(OnlineStats, MergeIntoEmptyCopiesMinMaxAndMoments) {
  OnlineStats src;
  src.add(-2.0);
  src.add(4.0);
  src.add(10.0);
  OnlineStats dst;
  dst.merge(src);
  EXPECT_EQ(dst.count(), 3u);
  EXPECT_DOUBLE_EQ(dst.mean(), 4.0);
  EXPECT_EQ(dst.min(), -2.0);
  EXPECT_EQ(dst.max(), 10.0);
  EXPECT_DOUBLE_EQ(dst.variance(), src.variance());
}

TEST(OnlineStats, MergeSingleSamples) {
  OnlineStats a, b;
  a.add(1.0);
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 8.0);  // ((1-3)² + (5-3)²) / (2-1)
  EXPECT_EQ(a.min(), 1.0);
  EXPECT_EQ(a.max(), 5.0);
}

// The Percentiles suite pins the quantile contract (exact extremes, linear
// interpolation between ranks, empty → 0, clamped q, non-finite q throws,
// merge == union) on the histogram that holds it.

/// A bucket midpoint lies within 1/32 of any value in its bucket.
constexpr double kRelTol = 1.0 / 32;

TEST(Percentiles, MedianAndExtremes) {
  LatencyHistogram p;
  for (const double x : {5.0, 1.0, 3.0, 2.0, 4.0}) p.add(x);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 1.0);
  EXPECT_NEAR(p.median(), 3.0, 3.0 * kRelTol);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 5.0);
  EXPECT_EQ(p.count(), 5u);
  EXPECT_DOUBLE_EQ(p.mean(), 3.0);
  EXPECT_DOUBLE_EQ(p.max(), 5.0);
}

TEST(Percentiles, Interpolates) {
  LatencyHistogram p;
  p.add(0.0);
  p.add(10.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 2.5);
}

TEST(Percentiles, EmptyReturnsZeroForEveryQuantile) {
  const LatencyHistogram p;
  EXPECT_EQ(p.count(), 0u);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(p.median(), 0.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 0.0);
  EXPECT_DOUBLE_EQ(p.mean(), 0.0);
  EXPECT_DOUBLE_EQ(p.max(), 0.0);
}

TEST(Percentiles, SingleSampleIsEveryQuantile) {
  LatencyHistogram p;
  p.add(42.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.37), 42.0);
  EXPECT_DOUBLE_EQ(p.median(), 42.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.0), 42.0);
}

TEST(Percentiles, OutOfRangeQuantilesClamp) {
  LatencyHistogram p;
  p.add(1.0);
  p.add(2.0);
  EXPECT_DOUBLE_EQ(p.quantile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(p.quantile(1.5), 2.0);
}

TEST(Percentiles, AddAfterQueryResorts) {
  LatencyHistogram p;
  p.add(1.0);
  p.add(3.0);
  EXPECT_DOUBLE_EQ(p.median(), 2.0);
  p.add(100.0);
  EXPECT_NEAR(p.median(), 3.0, 3.0 * kRelTol);
}

TEST(LatencyHistogram, QuantilesTrackExactOnesOfASeededSample) {
  // Log-uniform latencies from 1 µs to 10 s, then 10k samples' exact
  // linear-interpolated quantiles versus the histogram's.
  Rng rng(2026);
  LatencyHistogram h;
  std::vector<double> samples;
  for (int i = 0; i < 10000; ++i) {
    const double ms = std::pow(10.0, -3.0 + 7.0 * rng.next_double());
    samples.push_back(ms);
    h.add(ms);
  }
  std::sort(samples.begin(), samples.end());
  for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    const double exact = samples[lo] * (1.0 - frac) + samples[hi] * frac;
    // 1e-3 covers truncation to whole nanoseconds at the 1 µs end.
    EXPECT_NEAR(h.quantile(q), exact, exact * (kRelTol + 1e-3)) << "q=" << q;
  }
  EXPECT_EQ(h.count(), samples.size());
  EXPECT_DOUBLE_EQ(h.max(), samples.back());
}

TEST(LatencyHistogram, MemoryIsFixedAndExtremeValuesStayInRange) {
  static_assert(sizeof(LatencyHistogram) < 8 * 1024 + 64);
  LatencyHistogram h;
  h.add(-1.0);
  h.add(std::numeric_limits<double>::quiet_NaN());
  h.add(1e300);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 1e300);
}

TEST(Wilson, CenteredForBalancedData) {
  const auto ci = wilson_interval(50, 100);
  EXPECT_NEAR(ci.estimate, 0.5, 1e-12);
  EXPECT_LT(ci.low, 0.5);
  EXPECT_GT(ci.high, 0.5);
  EXPECT_NEAR(ci.low, 0.404, 0.01);
  EXPECT_NEAR(ci.high, 0.596, 0.01);
}

TEST(Wilson, BoundaryZeroAndOne) {
  const auto zero = wilson_interval(0, 50);
  EXPECT_EQ(zero.estimate, 0.0);
  EXPECT_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);

  const auto one = wilson_interval(50, 50);
  EXPECT_EQ(one.estimate, 1.0);
  EXPECT_LT(one.low, 1.0);
  EXPECT_EQ(one.high, 1.0);
}

TEST(Wilson, SingleTrialBoundaries) {
  // successes ∈ {0, trials} at the smallest possible trial count: the
  // interval must stay inside [0, 1] and keep the boundary pinned.
  const auto zero = wilson_interval(0, 1);
  EXPECT_EQ(zero.estimate, 0.0);
  EXPECT_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  EXPECT_LT(zero.high, 1.0);

  const auto one = wilson_interval(1, 1);
  EXPECT_EQ(one.estimate, 1.0);
  EXPECT_GT(one.low, 0.0);
  EXPECT_LT(one.low, 1.0);
  EXPECT_EQ(one.high, 1.0);
}

TEST(Wilson, ShrinksWithMoreTrials) {
  const auto small = wilson_interval(8, 10);
  const auto large = wilson_interval(800, 1000);
  EXPECT_LT(large.high - large.low, small.high - small.low);
}

TEST(Wilson, NoTrials) {
  const auto ci = wilson_interval(0, 0);
  EXPECT_EQ(ci.low, 0.0);
  EXPECT_EQ(ci.high, 1.0);
}

TEST(BinomialCoefficient, KnownValues) {
  EXPECT_DOUBLE_EQ(binomial_coefficient(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(5, 2), 10.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(10, 5), 252.0);
  EXPECT_DOUBLE_EQ(binomial_coefficient(4, 7), 0.0);
  EXPECT_NEAR(binomial_coefficient(50, 25), 1.2641060643775e14, 1e3);
}

TEST(Percentiles, MergeEmptyWindowsStaysEmpty) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.merge(b);
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.median(), 0.0);
}

TEST(Percentiles, MergeEmptyIntoPopulatedIsNoop) {
  LatencyHistogram a;
  a.add(1.0);
  a.add(3.0);
  const LatencyHistogram empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.median(), 2.0);
}

TEST(Percentiles, MergeIntoEmptyCopiesSamples) {
  LatencyHistogram a;
  LatencyHistogram b;
  b.add(5.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_DOUBLE_EQ(a.quantile(0.99), 5.0);
}

TEST(Percentiles, MergeEqualsConcatenation) {
  LatencyHistogram merged;
  LatencyHistogram other;
  LatencyHistogram all;
  const std::vector<double> left = {9.0, 1.0, 4.0};
  const std::vector<double> right = {2.0, 8.0, 3.0, 7.0};
  for (const double x : left) {
    merged.add(x);
    all.add(x);
  }
  for (const double x : right) {
    other.add(x);
    all.add(x);
  }
  EXPECT_NEAR(merged.median(), 4.0, 4.0 * kRelTol);
  merged.merge(other);
  EXPECT_EQ(merged.count(), all.count());
  for (const double q : {0.0, 0.25, 0.5, 0.75, 0.95, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.quantile(q), all.quantile(q)) << "q=" << q;
  }
}

TEST(Percentiles, MergeSingleSampleWindows) {
  LatencyHistogram a;
  a.add(2.0);
  LatencyHistogram b;
  b.add(1.0);
  a.merge(b);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(a.quantile(1.0), 2.0);
}

TEST(Percentiles, NonFiniteQuantileThrows) {
  LatencyHistogram p;
  p.add(1.0);
  EXPECT_THROW((void)p.quantile(std::numeric_limits<double>::quiet_NaN()), CheckError);
  EXPECT_THROW((void)p.quantile(std::numeric_limits<double>::infinity()), CheckError);
}

TEST(OnlineStats, VarianceNeverNegativeAfterMerge) {
  // Chan's merge can cancel catastrophically when both halves hold nearly
  // identical values; variance must clamp at zero instead of going
  // epsilon-negative and turning stddev into NaN.
  OnlineStats a;
  OnlineStats b;
  const double v = 1e16;
  a.add(v);
  a.add(v);
  b.add(v);
  b.add(v);
  a.merge(b);
  EXPECT_GE(a.variance(), 0.0);
  EXPECT_FALSE(std::isnan(a.stddev()));
}

TEST(OnlineStats, SingleSampleVarianceIsZero) {
  OnlineStats s;
  s.add(3.5);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

}  // namespace
}  // namespace decycle::util
