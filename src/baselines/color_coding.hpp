/// \file color_coding.hpp
/// \brief Centralized color-coding k-cycle detection (Alon–Yuster–Zwick).
///
/// The classical sequential comparison point: color vertices uniformly with
/// k colors; a k-cycle survives as a "colorful" cycle with probability
/// k!/k^k >= e^-k, and colorful cycles are found in O(m·2^k) by dynamic
/// programming over color subsets. Repeating ⌈e^k·ln(1/δ)⌉ times gives
/// failure probability δ; the implementation is one-sided (a reported cycle
/// is always validated and real).
///
/// Used by experiment B1 as the centralized reference the distributed tester
/// is measured against (the registry's "color_coding"), and by tests as an
/// independent exact-ish oracle (find_cycle_color_coding).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/detector.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {

struct ColorCodingOptions {
  /// 0 = auto: ⌈e^k · ln(1/δ)⌉ with δ = 1/3 (the property-testing guarantee).
  std::size_t iterations = 0;
  std::uint64_t seed = 1;
};

struct ColorCodingResult {
  bool found = false;
  /// Validated witness cycle when found. Named and typed like every other
  /// verdict's witness (graph::Vertex) — the unified-Verdict convention of
  /// core/detector.hpp.
  std::vector<graph::Vertex> witness;
  std::size_t iterations_used = 0;    ///< colorings executed (early exit on found)
  /// The resolved iteration budget: options.iterations, or the auto count
  /// when 0. Single source of truth for "what was configured" (the
  /// detector registry reports it as Verdict::repetitions).
  std::size_t iterations_budget = 0;
};

/// Searches for any Ck. One-sided: found=true always carries a real cycle;
/// found=false may be a false negative with probability <= (1-k!/k^k)^iters.
[[nodiscard]] ColorCodingResult find_cycle_color_coding(const graph::Graph& g, unsigned k,
                                                        const ColorCodingOptions& options);

/// Number of iterations for failure probability delta.
[[nodiscard]] std::size_t color_coding_iterations(unsigned k, double delta) noexcept;

/// The registry's centralized reference: reads sim.graph() only, so any
/// communication model serves and RunStats stay zero. repetitions = the
/// coloring budget (0 = auto); counter iterations_total = colorings run.
class ColorCodingDetector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "color_coding"; }
  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override;
  [[nodiscard]] std::span<const core::CounterDef> counters() const noexcept override;
  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override;
};

}  // namespace decycle::baselines
