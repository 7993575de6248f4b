/// \file detect_state.hpp
/// \brief Per-node state machine for Phase 2 of Algorithm 1 (one edge).
///
/// This class is the algorithm with the network abstracted away: the caller
/// fills a buffer it owns with the sequences received each round, and the
/// state machine turns that buffer, in place, into the bundle to broadcast.
/// The caller keeps the buffer across rounds (per thread or per execution),
/// so a steady-state step allocates nothing. The single-edge checker
/// (cycle_detector.hpp), the full tester (tester.hpp) and the threshold
/// family drive instances of it; unit tests drive it directly with
/// hand-crafted traces (including the erratum counterexamples).
///
/// Round alignment (DESIGN.md §3.2): simulator round g carries sequences of
/// length g. seed() produces the round-0 broadcast ({(myid)} at the edge's
/// endpoints); step(g, seqs) handles 1 <= g <= half(): it prunes with
/// paper-round t = g+1 and returns the bundle to broadcast while g < half(),
/// and runs the final check (with the E-A/E-B corrections) at g == half().
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/pruning.hpp"
#include "core/sequence.hpp"
#include "core/trace.hpp"
#include "util/small_vector.hpp"

namespace decycle::core {

struct DetectParams {
  unsigned k = 5;
  PruningMode pruning = PruningMode::kRepresentative;
  bool fake_ids = true;              ///< Instruction 14 (ablation switch)
  std::size_t naive_cap = 1u << 18;  ///< family cap for PruningMode::kNaive
  TraceSink* trace = nullptr;        ///< optional execution trace (trace.hpp)
};

/// The rejecting pair of the final check. For odd k both members were
/// received this round; for even k `first` is one of the node's own last
/// sent sequences (ending in its ID) and `second` was received.
struct FinalPair {
  IdSeq first;
  IdSeq second;
};

class EdgeDetectState {
 public:
  EdgeDetectState(const DetectParams& params, NodeId my_id, NodeId u, NodeId v);

  [[nodiscard]] unsigned k() const noexcept { return params_.k; }
  /// ⌊k/2⌋ — the number of Phase-2 communication rounds.
  [[nodiscard]] unsigned half() const noexcept { return params_.k / 2; }
  [[nodiscard]] NodeId my_id() const noexcept { return my_id_; }
  [[nodiscard]] NodeId edge_u() const noexcept { return u_; }
  [[nodiscard]] NodeId edge_v() const noexcept { return v_; }

  /// Round-0 broadcast: replaces \p out with {(my_id)} iff this node is an
  /// endpoint of the edge (empty otherwise) and returns a view of it.
  std::span<const IdSeq> seed(std::vector<IdSeq>& out);

  /// Consumes the sequences received at simulator round \p g (all of length
  /// g) from \p seqs and leaves the bundle to broadcast in their place
  /// (empty at g == half(), where the final check runs instead); returns a
  /// view of \p seqs. Feeding rounds out of order is allowed — a node that
  /// switches edges mid-phase starts at whatever round the new edge's
  /// traffic reaches it.
  std::span<const IdSeq> step(std::uint64_t g, std::vector<IdSeq>& seqs);

  [[nodiscard]] bool rejected() const noexcept { return pair_ != nullptr; }

  /// The k IDs of the detected cycle, in cyclic order (empty if accepted).
  [[nodiscard]] std::vector<NodeId> witness_cycle_ids() const;

  [[nodiscard]] bool overflowed() const noexcept { return overflow_; }

  /// sent_counts()[g] = number of sequences broadcast at round g (Lemma 3
  /// instrumentation; index 0 = seed round).
  [[nodiscard]] std::span<const std::size_t> sent_counts() const noexcept {
    return sent_counts_;
  }

 private:
  /// Instruction 16-24 on \p seqs in place: keeps the forwarded
  /// sub-family, in candidate order.
  void prune(std::vector<IdSeq>& seqs, unsigned t);
  void final_check(std::span<const IdSeq> received);
  void trace(TraceEvent::Kind kind, std::uint64_t round, const IdSeq& sequence) const;

  DetectParams params_;
  NodeId my_id_;
  NodeId u_;
  NodeId v_;
  std::vector<IdSeq> last_sent_;  ///< S of the last pruning round (even-k check)
  /// Allocated only on rejection: most states never reject, and cached
  /// sessions keep every program's state alive after the run.
  std::unique_ptr<FinalPair> pair_;
  bool overflow_ = false;
  /// Inline up to k = 7 (half() + 1 <= 4 rounds).
  util::SmallVector<std::size_t, 4> sent_counts_;
};

// Cached sessions keep one state per program (per tracked execution in the
// threshold family) alive after a run.
static_assert(sizeof(EdgeDetectState) <= 160, "EdgeDetectState grew");

}  // namespace decycle::core
