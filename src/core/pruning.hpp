/// \file pruning.hpp
/// \brief Instruction 16-24 of Algorithm 1: selecting which sequences to
/// forward.
///
/// At paper round t a node holds candidate sequences R (length t-1 each, own
/// ID filtered out) and must pick a sub-family S to forward such that (a) |S|
/// stays bounded by (k-t+1)^(t-1) (Lemma 3) and (b) the witness-substitution
/// invariant of Lemma 2 holds: whenever a discarded L could close a k-cycle
/// with some completion set, an accepted L' closes one with the same
/// completion.
///
/// Three interchangeable implementations:
///
///  * prune_representative — production, a plain in-place function (no
///    object per execution; make_pruner wraps it as a Pruner for the tests
///    and benches that compare selectors). The literal algorithm
///    manipulates 𝒳 = all (k-t)-subsets of I (exponential). Observing that after
///    accepting F the surviving 𝒳 is exactly {X : X hits every member of F},
///    a candidate L is accepted iff F has a hitting set of size <= k-t inside
///    I \ L (fake IDs pad any smaller hitting set up to the exact size k-t).
///    Decided by bounded-depth branch-and-bound — polynomial per candidate
///    for fixed k, and *bit-identical* to the literal algorithm when run in
///    the same candidate order (property-tested against ReferencePruner).
///
///  * ReferencePruner — Instruction 15 verbatim: materializes 𝒳 including
///    the k-t fake IDs {-1..-(k-t)} and removes covered subsets. Exponential;
///    guarded by a size check; exists as executable specification.
///
///  * PassThroughPruner — S ← R (the naive append-and-forward the paper
///    rules out). Used by the baseline tester and the ablation benches; caps
///    the family size and raises an overflow flag instead of eating the
///    machine.
///
/// The `fake_ids` switch exists to reproduce the paper's §3.3 walkthrough:
/// with it off, a node whose candidate pool I is too small to build any
/// (k-t)-subset forwards nothing and C9 detection collapses (bench f2).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/sequence.hpp"

namespace decycle::core {

enum class PruningMode {
  kRepresentative,  ///< fast exact implementation (default)
  kReference,       ///< literal Instruction 15 (tests/spec only)
  kNaive,           ///< no pruning (baseline)
};

[[nodiscard]] const char* pruning_mode_name(PruningMode mode) noexcept;

class Pruner {
 public:
  struct Result {
    std::vector<IdSeq> accepted;
    bool overflow = false;  ///< naive cap hit: family truncated
  };

  virtual ~Pruner() = default;

  /// Selects the forwarded sub-family. \p candidates must be canonicalized
  /// (sorted, deduped, free of the executing node's ID) and all of length
  /// t-1, with 2 <= t <= k/2. Iteration order is the candidates' order, so
  /// all implementations make identical accept/reject decisions.
  [[nodiscard]] virtual Result select(std::span<const IdSeq> candidates, unsigned t) = 0;
};

struct PrunerConfig {
  unsigned k = 5;
  bool fake_ids = true;          ///< Instruction 14 on/off (ablation)
  std::size_t naive_cap = 1u << 18;  ///< PassThroughPruner family bound
  std::size_t reference_subset_cap = 2'000'000;  ///< |𝒳| guard for the reference
};

[[nodiscard]] std::unique_ptr<Pruner> make_pruner(PruningMode mode, const PrunerConfig& config);

/// The production selector in place: keeps, in candidate order, exactly the
/// members of \p family that make_pruner(kRepresentative, {k, fake_ids})
/// would accept and erases the rest. Same preconditions as Pruner::select.
/// Allocation-free when fake_ids is set.
void prune_representative(std::vector<IdSeq>& family, unsigned k, unsigned t, bool fake_ids);

/// Lemma 3 bound on |S| at paper round t: (k-t+1)^(t-1).
[[nodiscard]] std::uint64_t lemma3_bound(unsigned k, unsigned t) noexcept;

}  // namespace decycle::core
