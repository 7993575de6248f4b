#include "core/detect_state.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace decycle::core {

EdgeDetectState::EdgeDetectState(const DetectParams& params, NodeId my_id, NodeId u, NodeId v)
    : params_(params), my_id_(my_id), u_(u), v_(v) {
  DECYCLE_CHECK_MSG(params.k >= 3, "k must be at least 3");
  DECYCLE_CHECK_MSG(u != v, "edge endpoints must differ");
  sent_counts_.resize(half() + 1, 0);
}

void EdgeDetectState::trace(TraceEvent::Kind kind, std::uint64_t round,
                            const IdSeq& sequence) const {
  if (params_.trace != nullptr) {
    params_.trace->record(TraceEvent{kind, round, my_id_, sequence});
  }
}

std::span<const IdSeq> EdgeDetectState::seed(std::vector<IdSeq>& out) {
  out.clear();
  if (my_id_ == u_ || my_id_ == v_) {
    out.emplace_back().push_back(my_id_);
    trace(TraceEvent::Kind::kSeed, 0, out.back());
    sent_counts_[0] = 1;
  }
  return out;
}

void EdgeDetectState::prune(std::vector<IdSeq>& seqs, unsigned t) {
  if (params_.pruning == PruningMode::kRepresentative) {
    prune_representative(seqs, params_.k, t, params_.fake_ids);
    return;
  }
  // The reference and naive selectors are specification and baseline
  // code, off the production path; they keep the Pruner interface.
  PrunerConfig cfg;
  cfg.k = params_.k;
  cfg.fake_ids = params_.fake_ids;
  cfg.naive_cap = params_.naive_cap;
  Pruner::Result selected = make_pruner(params_.pruning, cfg)->select(seqs, t);
  overflow_ = overflow_ || selected.overflow;
  seqs = std::move(selected.accepted);
}

std::span<const IdSeq> EdgeDetectState::step(std::uint64_t g, std::vector<IdSeq>& seqs) {
  DECYCLE_CHECK_MSG(g >= 1 && g <= half(), "phase round out of range");

  // Instruction 11-12: R is a *set* of sequences of length g, with every
  // sequence containing this node's own ID removed.
  std::erase_if(seqs, [&](const IdSeq& s) { return seq_contains(s, my_id_); });
  for (const IdSeq& s : seqs) {
    DECYCLE_CHECK_MSG(s.size() == g, "received sequence length does not match round");
  }
  canonicalize(seqs);
  for (const IdSeq& s : seqs) trace(TraceEvent::Kind::kReceive, g, s);

  if (g == half()) {
    final_check(seqs);
    if (pair_) {
      const auto cycle = witness_cycle_ids();
      trace(TraceEvent::Kind::kReject, g, IdSeq(std::span<const NodeId>(cycle)));
    }
    seqs.clear();
    return seqs;
  }
  if (seqs.empty()) return seqs;

  const auto t = static_cast<unsigned>(g + 1);  // paper round index
  if (params_.trace != nullptr) {
    const std::vector<IdSeq> candidates = seqs;  // tracing only
    prune(seqs, t);
    for (const IdSeq& s : candidates) {
      const bool kept = std::find(seqs.begin(), seqs.end(), s) != seqs.end();
      trace(kept ? TraceEvent::Kind::kKeep : TraceEvent::Kind::kDrop, g, s);
    }
  } else {
    prune(seqs, t);
  }

  // Instruction 24: append own ID to every kept sequence.
  for (IdSeq& s : seqs) s.push_back(my_id_);
  for (const IdSeq& s : seqs) trace(TraceEvent::Kind::kSend, g, s);

  if (params_.k % 2 == 0 && g == half() - 1) {
    last_sent_.assign(seqs.begin(), seqs.end());  // S feeds the even-k final check (erratum E-A)
  }
  sent_counts_[g] = std::max(sent_counts_[g], seqs.size());
  return seqs;
}

void EdgeDetectState::final_check(std::span<const IdSeq> received) {
  // Erratum E-B (DESIGN.md §2): received sequences containing my own ID were
  // already filtered by step(); the pair structure below (odd: two received;
  // even: one own S member x one received) is what Lemma 2's proof actually
  // certifies, and each hit reconstructs a genuine k-cycle.
  const unsigned k = params_.k;
  if (k % 2 == 1) {
    for (std::size_t i = 0; i < received.size() && !pair_; ++i) {
      for (std::size_t j = i + 1; j < received.size() && !pair_; ++j) {
        if (!seqs_disjoint(received[i], received[j])) continue;
        DECYCLE_CHECK(union_size(received[i], received[j], my_id_) == k);
        pair_ = std::make_unique<FinalPair>(FinalPair{received[i], received[j]});
      }
    }
    return;
  }
  for (const IdSeq& own : last_sent_) {
    for (const IdSeq& recv : received) {
      if (!seqs_disjoint(own, recv)) continue;
      DECYCLE_CHECK(union_size(own, recv, my_id_) == k);
      pair_ = std::make_unique<FinalPair>(FinalPair{own, recv});
      return;
    }
  }
}

std::vector<NodeId> EdgeDetectState::witness_cycle_ids() const {
  std::vector<NodeId> cycle;
  if (!pair_) return cycle;
  const unsigned k = params_.k;
  cycle.reserve(k);
  // Odd k: first-path, this node, reversed second-path.
  // Even k: first already ends with this node's ID; append reversed second.
  for (const NodeId id : pair_->first) cycle.push_back(id);
  if (k % 2 == 1) cycle.push_back(my_id_);
  for (std::size_t i = pair_->second.size(); i > 0; --i) {
    cycle.push_back(pair_->second[i - 1]);
  }
  DECYCLE_CHECK(cycle.size() == k);
  return cycle;
}

}  // namespace decycle::core
