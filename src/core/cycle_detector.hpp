/// \file cycle_detector.hpp
/// \brief The deterministic single-edge checker: "is there a Ck through e?"
///
/// This is Phase 2 run in isolation — the subroutine Theorem 1's reduction
/// produces. It is fully deterministic and does not rely on ε-farness: if
/// any k-cycle passes through the given edge, some node rejects (Lemma 2),
/// and every rejection carries a validated witness cycle. Experiment T4
/// sweeps this checker against the exact oracle over every edge of random
/// graphs.
///
/// EdgeCheckerDetector is the registry's "edge_checker". Per-node
/// instrumentation (EdgeDetectState::sent_counts(), the Lemma-3 bundle
/// sizes per round) stays readable after a run through
/// Simulator::for_each_program<EdgeCheckProgram>.
#pragma once

#include "congest/simulator.hpp"
#include "core/detect_state.hpp"
#include "core/detector.hpp"

namespace decycle::core {

/// NodeProgram running EdgeDetectState for one fixed edge. All nodes know
/// (u, v) up front — the dissemination of the chosen edge is Phase 1's job
/// and is handled by the full tester.
class EdgeCheckProgram final : public congest::NodeProgram {
 public:
  EdgeCheckProgram(const DetectParams& params, NodeId my_id, NodeId u, NodeId v)
      : state_(params, my_id, u, v) {}

  void on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) override;

  [[nodiscard]] const EdgeDetectState& state() const noexcept { return state_; }

 private:
  EdgeDetectState state_;
};

/// Lemma 2's deterministic checker for one edge: options.edge, or an edge
/// drawn uniformly from the seed when absent. Reads k and detect; rejects
/// iff some node's final check fired (exact on loss-free runs).
class EdgeCheckerDetector final : public Detector {
 public:
  [[nodiscard]] std::string_view name() const noexcept override { return "edge_checker"; }
  [[nodiscard]] const DetectorCapabilities& capabilities() const noexcept override;
  [[nodiscard]] Verdict run(congest::Simulator& sim,
                            const DetectorOptions& options) const override;
};

}  // namespace decycle::core
