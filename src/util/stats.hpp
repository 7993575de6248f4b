/// \file stats.hpp
/// \brief Streaming statistics used by the experiment harness.
///
/// OnlineStats implements Welford's numerically stable running mean/variance.
/// LatencyHistogram answers order statistics over any number of latency
/// samples in fixed memory (the serving daemon's windows). Wilson score
/// intervals back the acceptance-probability tables (T1/T2) so the benches can
/// assert "detection >= 2/3" with an explicit confidence bound rather than a
/// point estimate.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace decycle::util {

/// Welford running mean / variance / min / max.
class OnlineStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept { return count_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  ///< sample variance (n-1)
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }
  [[nodiscard]] double sum() const noexcept { return mean_ * static_cast<double>(count_); }

  /// Merges another accumulator (parallel reduction), Chan et al. update.
  void merge(const OnlineStats& other) noexcept;

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Fixed-memory latency histogram, HdrHistogram-style: log buckets over
/// nanoseconds with 16 sub-buckets per power of two (976 buckets, ~8 KiB),
/// so a quantile lands within 1/32 of the exact one however many samples
/// were added. Count, mean, min and max are exact; the lowest and highest
/// ranks answer min and max, every other rank its bucket's midpoint clamped
/// to [min, max].
class LatencyHistogram {
 public:
  /// Records one latency in milliseconds; negative or NaN counts as 0.
  void add(double ms) noexcept;

  /// Folds \p other in: quantiles after merge equal those of one histogram
  /// that saw both sample streams.
  void merge(const LatencyHistogram& other) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double mean() const noexcept;
  [[nodiscard]] double max() const noexcept { return max_; }

  /// The q-quantile (q clamped to [0,1]) in milliseconds, interpolated
  /// linearly between neighbouring ranks. An empty histogram answers 0.0 (a
  /// serving dashboard's "no traffic yet" row must render, not NaN); a
  /// non-finite q throws CheckError.
  [[nodiscard]] double quantile(double q) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

  static constexpr unsigned kSubBits = 4;
  static constexpr std::size_t kBuckets = (64 - kSubBits + 1) << kSubBits;

 private:
  /// The value (ms) of the sample at 0-based \p rank.
  [[nodiscard]] double at_rank(std::uint64_t rank) const noexcept;

  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Binomial proportion confidence interval.
struct ProportionInterval {
  double estimate;  ///< successes / trials
  double low;       ///< lower bound
  double high;      ///< upper bound
};

/// Wilson score interval for \p successes out of \p trials at confidence
/// z (default z=1.96 ~ 95%). Well-behaved at the 0/1 boundaries, unlike the
/// normal approximation — exactly the regime of 1-sided-error experiments
/// where the measured acceptance rate is 1.0.
[[nodiscard]] ProportionInterval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                                                 double z = 1.96) noexcept;

/// n choose r as double (overflow-free for the bound tables).
[[nodiscard]] double binomial_coefficient(unsigned n, unsigned r) noexcept;

}  // namespace decycle::util
