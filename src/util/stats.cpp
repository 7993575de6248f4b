#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.hpp"

namespace decycle::util {

void OnlineStats::add(double x) noexcept {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double OnlineStats::variance() const noexcept {
  if (count_ < 2) return 0.0;
  // m2_ can drift epsilon-negative through merge()'s catastrophic
  // cancellation on near-identical windows; clamping keeps stddev() a
  // number instead of sqrt(-0.0…e-17) = NaN on the serving stats path.
  return std::max(0.0, m2_ / static_cast<double>(count_ - 1));
}

double OnlineStats::stddev() const noexcept { return std::sqrt(variance()); }

void OnlineStats::merge(const OnlineStats& other) noexcept {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto na = static_cast<double>(count_);
  const auto nb = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  count_ += other.count_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

namespace {

constexpr double kNsPerMs = 1e6;

/// Bucket of a nanosecond value: values below 32 get one bucket each, and
/// every further power of two is split into 16 equal sub-buckets.
std::size_t bucket_of(std::uint64_t ns) noexcept {
  constexpr unsigned kSub = LatencyHistogram::kSubBits;
  const auto width = static_cast<unsigned>(std::bit_width(ns));
  const unsigned shift = width > kSub + 1 ? width - kSub - 1 : 0;
  return (std::size_t{shift} << kSub) + (ns >> shift);
}

/// Midpoint (ms) of the integers bucket \p b holds.
double bucket_mid_ms(std::size_t b) noexcept {
  constexpr unsigned kSub = LatencyHistogram::kSubBits;
  const unsigned shift = b < (std::size_t{2} << kSub) ? 0 : static_cast<unsigned>(b >> kSub) - 1;
  const std::uint64_t lower = (b - (std::size_t{shift} << kSub)) << shift;
  const auto width = static_cast<double>(std::uint64_t{1} << shift);
  return (static_cast<double>(lower) + (width - 1.0) / 2.0) / kNsPerMs;
}

}  // namespace

void LatencyHistogram::add(double ms) noexcept {
  if (!(ms > 0.0)) ms = 0.0;
  // 1.8e19 ns stays below 2^64, so the cast is defined for any input.
  const auto ns = static_cast<std::uint64_t>(std::min(ms * kNsPerMs, 1.8e19));
  ++buckets_[bucket_of(ns)];
  min_ = count_ == 0 ? ms : std::min(min_, ms);
  max_ = count_ == 0 ? ms : std::max(max_, ms);
  ++count_;
  sum_ += ms;
}

void LatencyHistogram::merge(const LatencyHistogram& other) noexcept {
  if (other.count_ == 0) return;
  for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  min_ = count_ == 0 ? other.min_ : std::min(min_, other.min_);
  max_ = count_ == 0 ? other.max_ : std::max(max_, other.max_);
  count_ += other.count_;
  sum_ += other.sum_;
}

double LatencyHistogram::mean() const noexcept {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

double LatencyHistogram::at_rank(std::uint64_t rank) const noexcept {
  if (rank == 0) return min_;
  if (rank + 1 == count_) return max_;
  std::uint64_t seen = 0;
  std::size_t b = 0;
  while ((seen += buckets_[b]) <= rank) ++b;
  return std::clamp(bucket_mid_ms(b), min_, max_);
}

double LatencyHistogram::quantile(double q) const {
  // NaN would sail through std::clamp and turn the rank arithmetic below
  // into undefined float->integer conversion; refuse loudly instead.
  DECYCLE_CHECK_MSG(std::isfinite(q), "LatencyHistogram::quantile: q must be finite in [0,1]");
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  return at_rank(lo) * (1.0 - frac) + at_rank(hi) * frac;
}

ProportionInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                   double z) noexcept {
  if (trials == 0) return {0.0, 0.0, 1.0};
  const double n = static_cast<double>(trials);
  const double p = static_cast<double>(successes) / n;
  const double z2 = z * z;
  const double denom = 1.0 + z2 / n;
  const double center = (p + z2 / (2.0 * n)) / denom;
  const double half = z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
  return {p, std::max(0.0, center - half), std::min(1.0, center + half)};
}

double binomial_coefficient(unsigned n, unsigned r) noexcept {
  if (r > n) return 0.0;
  r = std::min(r, n - r);
  double acc = 1.0;
  for (unsigned i = 1; i <= r; ++i) {
    acc *= static_cast<double>(n - r + i);
    acc /= static_cast<double>(i);
  }
  return acc;
}

}  // namespace decycle::util
