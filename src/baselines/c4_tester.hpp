/// \file c4_tester.hpp
/// \brief C4-freeness tester in the style of Fraigniaud, Rapaport, Salo and
/// Todinca (DISC 2016) — reference [20].
///
/// A C4 is two "cherries" (paths a-v-b and a-w-b) on the same endpoint pair
/// {a, b}. Per iteration (1 CONGEST round): every node with degree >= 2
/// picks a random pair of neighbors {a, b} and reports it to the smaller-ID
/// endpoint (which is adjacent, being a chosen neighbor). A node receiving
/// the same pair from two distinct senders v, w has found the C4 (v,a,w,b).
/// O(1/ε²) iterations on ε-far instances, per [20].
///
/// This baseline exists for experiment B1: the paper's algorithm at k=4
/// versus the specialized tester whose technique provably fails for k >= 5.
/// It runs as the registry's "c4" (k = 4 only; repetitions = iterations,
/// default 64).
#pragma once

#include "core/detector.hpp"

namespace decycle::baselines {

class C4Detector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "c4"; }
  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override;
  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override;
};

}  // namespace decycle::baselines
