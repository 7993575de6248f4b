/// \file triangle_chs.hpp
/// \brief Triangle (C3) freeness tester in the style of Censor-Hillel,
/// Fischer, Schwartzman and Vasudev (DISC 2016) — reference [7].
///
/// Per iteration (2 CONGEST rounds): every node with degree >= 2 picks two
/// random neighbors a, b and asks a whether b is adjacent to it; a answers
/// from its neighbor table (KT1). A "yes" exposes the triangle (v, a, b).
/// On graphs ε-far from triangle-freeness there are >= εm/3 edge-disjoint
/// triangles (Lemma 4), and a triangle (v,a,b) is found by v with
/// probability >= 2/deg(v)², giving the O(1/ε²)-round behaviour of [7].
///
/// This baseline exists for experiment B1: the paper's algorithm at k=3
/// versus the specialized tester it generalizes. It runs as the registry's
/// "triangle" (k = 3 only; repetitions = iterations, default 64).
#pragma once

#include "core/detector.hpp"

namespace decycle::baselines {

class TriangleDetector final : public core::Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "triangle"; }
  [[nodiscard]] const core::DetectorCapabilities& capabilities() const noexcept override;
  [[nodiscard]] core::Verdict run(congest::Simulator& sim,
                                  const core::DetectorOptions& options) const override;
};

}  // namespace decycle::baselines
