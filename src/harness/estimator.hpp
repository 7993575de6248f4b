/// \file estimator.hpp
/// \brief Acceptance/rejection-rate estimation over independent trials.
///
/// The completeness experiments (T2) measure Pr[reject] over many
/// independent tester executions. Trials are embarrassingly parallel: each
/// gets its own seed derived from (base_seed, trial index), so the estimate
/// is identical for any thread count. Wilson intervals quantify the
/// uncertainty so benches can assert "detection >= 2/3" honestly.
///
/// Two drivers, one seed scheme (engine::trial_seed): estimate_rate for
/// arbitrary trial functors, and estimate_detector_rate for registry
/// detectors, which runs the trials as one DetectionEngine::run_batch
/// (DESIGN.md §12). Callers that need more than the rejection count (typed
/// counters, RunStats) build the query batch and call run_batch
/// themselves.
#pragma once

#include <cstdint>
#include <functional>

#include "core/detector.hpp"
#include "engine/engine.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace decycle::harness {

struct RateEstimate {
  std::uint64_t trials = 0;
  std::uint64_t successes = 0;
  util::ProportionInterval interval{0, 0, 1};

  [[nodiscard]] double rate() const noexcept { return interval.estimate; }
};

/// Runs \p trial(trial_index, trial_seed) `trials` times (in parallel when a
/// pool is given) and reports the success rate with a 95% Wilson interval.
[[nodiscard]] RateEstimate estimate_rate(
    const std::function<bool(std::size_t, std::uint64_t)>& trial, std::size_t trials,
    std::uint64_t base_seed, util::ThreadPool* pool = nullptr);

/// Pr[reject] of a registry detector: builds one engine::Query per trial
/// (\p base with seed = trial_seed(base_seed, i), model = the detector's
/// default), runs the batch through \p eng — leased sessions the detector
/// resets between trials, cost-uniform lanes on eng's pool — and folds
/// rejections into a Wilson estimate. Identical for any thread count.
[[nodiscard]] RateEstimate estimate_detector_rate(const engine::DetectionEngine& eng,
                                                  const engine::PinnedGraphPtr& graph,
                                                  const core::Detector& detector,
                                                  const core::DetectorOptions& base,
                                                  std::size_t trials, std::uint64_t base_seed);

}  // namespace decycle::harness
