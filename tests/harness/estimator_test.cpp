#include "harness/estimator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "util/rng.hpp"

namespace decycle::harness {
namespace {

TEST(Estimator, CountsDeterministicOutcomes) {
  const auto est = estimate_rate([](std::size_t i, std::uint64_t) { return i % 4 == 0; }, 100, 1);
  EXPECT_EQ(est.trials, 100u);
  EXPECT_EQ(est.successes, 25u);
  EXPECT_DOUBLE_EQ(est.rate(), 0.25);
}

TEST(Estimator, SeedsAreDistinctAndStable) {
  std::set<std::uint64_t> seeds;
  std::mutex mu;
  (void)estimate_rate(
      [&](std::size_t, std::uint64_t seed) {
        const std::lock_guard lock(mu);
        seeds.insert(seed);
        return true;
      },
      64, 7);
  EXPECT_EQ(seeds.size(), 64u);

  std::set<std::uint64_t> seeds_again;
  (void)estimate_rate(
      [&](std::size_t, std::uint64_t seed) {
        const std::lock_guard lock(mu);
        seeds_again.insert(seed);
        return true;
      },
      64, 7);
  EXPECT_EQ(seeds, seeds_again);
}

TEST(Estimator, ParallelMatchesSerial) {
  const auto trial = [](std::size_t, std::uint64_t seed) {
    util::Rng rng(seed);
    return rng.next_bool(0.3);
  };
  const auto serial = estimate_rate(trial, 500, 99, nullptr);
  util::ThreadPool pool(4);
  const auto parallel = estimate_rate(trial, 500, 99, &pool);
  EXPECT_EQ(serial.successes, parallel.successes);
}

TEST(Estimator, RateNearTrueProbability) {
  const auto est = estimate_rate(
      [](std::size_t, std::uint64_t seed) {
        util::Rng rng(seed);
        return rng.next_bool(0.7);
      },
      4000, 5);
  EXPECT_NEAR(est.rate(), 0.7, 0.05);
  EXPECT_LT(est.interval.low, 0.7);
  EXPECT_GT(est.interval.high, 0.7);
}

TEST(Estimator, ZeroTrials) {
  const auto est = estimate_rate([](std::size_t, std::uint64_t) { return true; }, 0, 1);
  EXPECT_EQ(est.trials, 0u);
  EXPECT_EQ(est.successes, 0u);
}

}  // namespace
}  // namespace decycle::harness
