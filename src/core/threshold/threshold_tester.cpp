#include "core/threshold/threshold_tester.hpp"

#include <algorithm>
#include <utility>

#include "core/wire.hpp"
#include "util/check.hpp"

namespace decycle::core::threshold {

namespace {
// Message tags (this family's own wire namespace).
constexpr std::uint64_t kTagRank = 1;
constexpr std::uint64_t kTagBundle = 3;

/// The calling thread's pool of bundle buffers. An execution borrows one
/// when its first sequences of a round arrive and gives it back, emptied,
/// once the round is done, so `pending` owns no memory between rounds
/// (cached sessions keep the programs alive after the run) and a warmed
/// thread decodes without allocating.
std::vector<std::vector<IdSeq>>& spare_buffers() {
  thread_local std::vector<std::vector<IdSeq>> spare;
  return spare;
}

std::vector<IdSeq>& borrow(std::vector<IdSeq>& pending) {
  std::vector<std::vector<IdSeq>>& spare = spare_buffers();
  if (pending.capacity() == 0 && !spare.empty()) {
    pending = std::move(spare.back());
    spare.pop_back();
  }
  return pending;
}

void give_back(std::vector<IdSeq>& pending) {
  if (pending.capacity() == 0) return;
  pending.clear();
  spare_buffers().push_back(std::move(pending));
}
}  // namespace

ThresholdProgram::ThresholdProgram(const DetectParams& params, const BudgetSchedule& budget,
                                   std::size_t max_tracked, std::size_t sweeps,
                                   std::uint64_t seed, std::uint64_t n, NodeId my_id)
    : params_(params),
      budget_(budget),
      max_tracked_(max_tracked),
      sweeps_(sweeps),
      seed_(seed),
      rank_range_(rank_range_for(n)),
      my_id_(my_id),
      half_(params.k / 2),
      sweep_len_(static_cast<std::uint64_t>(params.k / 2) + 2),
      max_sent_by_round_(half_ + 1, 0) {
  DECYCLE_CHECK_MSG(sweeps_ >= 1, "threshold tester needs at least one sweep");
}

void ThresholdProgram::on_round(congest::Context& ctx,
                                std::span<const congest::Envelope> inbox) {
  const std::uint64_t round = ctx.round();
  const std::uint64_t sweep = round / sweep_len_;
  const std::uint64_t phase = round % sweep_len_;
  if (sweep >= sweeps_) return;

  if (phase == 0) {
    start_sweep(ctx, sweep);
  } else if (phase == 1) {
    seed_executions(ctx, inbox);
  } else {
    bundle_round(ctx, inbox, phase - 1);
  }
}

void ThresholdProgram::start_sweep(congest::Context& ctx, std::size_t sweep) {
  tracked_.clear();
  port_rank_.assign(ctx.degree(), kRankMissing);

  // Same rank protocol as Phase 1 of the tester: the smaller-ID endpoint
  // owns the edge, draws its rank from a per-(seed, sweep, node) stream in
  // port order, and ships it across.
  util::Rng rng = util::Rng(seed_).fork(sweep).fork(my_id_);
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    const NodeId other = ctx.neighbor_id(port);
    if (my_id_ < other) {
      const std::uint64_t rank = draw_rank(rng, rank_range_);
      port_rank_[port] = rank;
      congest::MessageWriter w;
      w.put_u64(kTagRank);
      w.put_u64(rank);
      ctx.send(port, w.finish());
    }
  }
  // Every node runs the seeding phase even without inbound rank mail.
  ctx.request_wakeup_at(ctx.round() + 1);
}

void ThresholdProgram::seed_executions(congest::Context& ctx,
                                       std::span<const congest::Envelope> inbox) {
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagRank, "unexpected message in threshold rank round");
    port_rank_[env.port] = r.get_u64();
  }
  const std::uint64_t sweep = ctx.round() / sweep_len_;
  if (sweep + 1 < sweeps_) {
    ctx.request_wakeup_at((sweep + 1) * sweep_len_);  // next sweep's rank phase
  }
  if (ctx.degree() == 0) return;  // isolated node: nothing to seed

  // Every incident edge with a known rank is a candidate execution; this
  // node is an endpoint of each, so each seeds {(my_id)}. A missing rank
  // (owner's rank message lost) leaves the owner side to seed alone —
  // exactly the tester's fault posture.
  thread_local std::vector<EdgePriority> candidates;
  candidates.clear();
  for (std::uint32_t port = 0; port < ctx.degree(); ++port) {
    if (port_rank_[port] == kRankMissing) continue;
    const NodeId other = ctx.neighbor_id(port);
    candidates.push_back(
        EdgePriority{port_rank_[port], std::min(my_id_, other), std::max(my_id_, other)});
  }
  std::sort(candidates.begin(), candidates.end());

  const std::size_t cap =
      max_tracked_ == 0 ? candidates.size() : std::min(candidates.size(), max_tracked_);
  stats_.seed_capped += candidates.size() - cap;

  tracked_.reserve(cap);
  for (std::size_t i = 0; i < cap; ++i) {
    Execution& ex = tracked_.emplace_back(Execution{
        candidates[i], EdgeDetectState(params_, my_id_, candidates[i].u, candidates[i].v), {}});
    DECYCLE_CHECK(!ex.state.seed(borrow(ex.pending)).empty());  // always an endpoint
    ++stats_.seeded_executions;
  }
  stats_.peak_tracked = std::max(stats_.peak_tracked, tracked_.size());
  broadcast_bundles(ctx, 0);
  for (Execution& ex : tracked_) give_back(ex.pending);
}

void ThresholdProgram::deliver(const EdgePriority& ep, congest::MessageReader& r) {
  const auto pos = [&] {
    return std::lower_bound(tracked_.begin(), tracked_.end(), ep,
                            [](const Execution& e, const EdgePriority& p) { return e.ep < p; });
  };
  auto it = pos();
  if (it != tracked_.end() && it->ep == ep) {
    read_sequences(r, borrow(it->pending));
    return;
  }
  if (max_tracked_ != 0 && tracked_.size() >= max_tracked_) {
    if (!(ep < tracked_.back().ep)) {
      // Lower priority than everything tracked: counted, never built.
      stats_.discarded_sequences += skip_sequences(r);
      return;
    }
    // Evict the worst tracked execution; sequences it had already
    // accumulated this round are squeezed out too and must show up in the
    // discard counter (the "counted, never silently" contract).
    stats_.discarded_sequences += tracked_.back().pending.size();
    give_back(tracked_.back().pending);
    tracked_.pop_back();
    ++stats_.evictions;
    it = pos();
  }
  it = tracked_.insert(it, Execution{ep, EdgeDetectState(params_, my_id_, ep.u, ep.v), {}});
  read_sequences(r, borrow(it->pending));
  stats_.peak_tracked = std::max(stats_.peak_tracked, tracked_.size());
}

void ThresholdProgram::bundle_round(congest::Context& ctx,
                                    std::span<const congest::Envelope> inbox, std::uint64_t g) {
  if (g > half_) return;

  // Intake: route every execution's sequences, adopting or evicting under
  // the tracking cap. Envelope order (by port) and wire order make every
  // adoption decision deterministic.
  for (const congest::Envelope& env : inbox) {
    congest::MessageReader r(env.payload);
    const std::uint64_t tag = r.get_u64();
    DECYCLE_CHECK_MSG(tag == kTagBundle, "unexpected message in threshold bundle round");
    const std::uint64_t count = r.get_u64();
    for (std::uint64_t i = 0; i < count; ++i) {
      EdgePriority ep;
      ep.rank = r.get_u64();
      ep.u = r.get_u64();
      ep.v = r.get_u64();
      deliver(ep, r);
    }
  }

  // Step every execution that received traffic; tracked_ is stable here.
  // Each step leaves the execution's outgoing bundle in its `pending`.
  for (Execution& ex : tracked_) {
    if (ex.pending.empty()) continue;
    (void)ex.state.step(g, ex.pending);
    overflow_ = overflow_ || ex.state.overflowed();
    if (g == half_ && ex.state.rejected() && witness_ids_.empty()) {
      witness_ids_ = ex.state.witness_cycle_ids();
    }
  }
  if (g < half_) broadcast_bundles(ctx, g);  // the final check sends nothing
  for (Execution& ex : tracked_) give_back(ex.pending);
}

void ThresholdProgram::broadcast_bundles(congest::Context& ctx, std::uint64_t g) {
  // Per-link budget: keep sequences in priority order (tracked_ is sorted
  // by execution priority), truncate the rest. One merged message per link
  // keeps the CONGEST one-slot discipline.
  const std::size_t cap = budget_.at(g);
  const std::size_t unlimited = ~std::size_t{0};
  std::size_t remaining = cap == 0 ? unlimited : cap;
  std::size_t kept_execs = 0;
  std::size_t kept_seqs = 0;
  for (const Execution& ex : tracked_) {
    const std::size_t keep = std::min(ex.pending.size(), remaining);
    remaining -= keep;
    stats_.budget_truncated += ex.pending.size() - keep;
    if (keep != 0) ++kept_execs;
    kept_seqs += keep;
  }

  if (kept_seqs != 0) {
    congest::MessageWriter w;
    w.put_u64(kTagBundle);
    w.put_u64(kept_execs);
    remaining = cap == 0 ? unlimited : cap;  // replay the same cut
    for (const Execution& ex : tracked_) {
      const std::size_t keep = std::min(ex.pending.size(), remaining);
      remaining -= keep;
      if (keep == 0) continue;
      w.put_u64(ex.ep.rank);
      w.put_u64(ex.ep.u);
      w.put_u64(ex.ep.v);
      write_sequences(w, std::span<const IdSeq>(ex.pending.data(), keep));
    }
    max_sent_by_round_[g] = std::max(max_sent_by_round_[g], kept_seqs);
    ctx.send_all(w.finish());
  }
}

const DetectorCapabilities& ThresholdDetector::capabilities() const noexcept {
  static constexpr DetectorCapabilities caps{
      .min_k = 3,
      .max_k = 64,
      .uses_threshold_knobs = true,
      .summary = "threshold family: Phase 2 for every edge in one sweep, congestion "
                 "bounded by budget/track caps"};
  return caps;
}

std::span<const CounterDef> ThresholdDetector::counters() const noexcept {
  // Names and order are the JSONL contract for algo=threshold cells.
  static constexpr CounterDef defs[] = {
      {"seeded_total", CounterKind::kSum},
      {"seed_capped_total", CounterKind::kSum},
      {"evictions_total", CounterKind::kSum},
      {"discarded_seqs_total", CounterKind::kSum},
      {"budget_truncated_total", CounterKind::kSum},
      {"peak_tracked", CounterKind::kMax},
  };
  return defs;
}

Verdict ThresholdDetector::run(congest::Simulator& sim, const DetectorOptions& options) const {
  DECYCLE_CHECK_MSG(options.k >= 3, "k must be at least 3");
  const graph::Graph& g = sim.graph();
  const graph::IdAssignment& ids = sim.ids();

  Verdict verdict;
  const std::size_t sweeps = options.repetitions != 0 ? options.repetitions : 1;
  verdict.repetitions = sweeps;

  DetectParams params = options.detect;
  params.k = options.k;

  sim.reset([&](graph::Vertex vert) {
    return std::make_unique<ThresholdProgram>(params, options.budget, options.max_tracked,
                                              sweeps, options.seed, g.num_vertices(),
                                              ids.id_of(vert));
  });

  // Same shape as the tester's bound: sweeps full windows of ⌊k/2⌋+2
  // rounds (the last activity is the final-check round at offset
  // sweep_len-1), plus delivery slack.
  verdict.stats = sim.run(
      simulator_options(options, sweeps * (static_cast<std::uint64_t>(options.k / 2) + 2) + 4));
  verdict.truncated = !verdict.stats.halted;

  ThresholdStats total;
  sim.for_each_program<ThresholdProgram>([&](graph::Vertex, const ThresholdProgram& prog) {
    verdict.overflow = verdict.overflow || prog.overflowed();
    for (const std::size_t count : prog.max_sent_by_round()) {
      verdict.max_bundle_sequences = std::max(verdict.max_bundle_sequences, count);
    }
    const ThresholdStats& st = prog.stats();
    total.seeded_executions += st.seeded_executions;
    total.seed_capped += st.seed_capped;
    total.evictions += st.evictions;
    total.discarded_sequences += st.discarded_sequences;
    total.budget_truncated += st.budget_truncated;
    total.peak_tracked = std::max(total.peak_tracked, st.peak_tracked);
    if (prog.rejected()) {
      verdict.accepted = false;
      verdict.rejecting_nodes += 1;
      if (verdict.witness.empty()) {
        verdict.witness = witness_vertices(sim, options, prog.witness_ids());
      }
    }
  });
  verdict.counters = {total.seeded_executions, total.seed_capped,         total.evictions,
                      total.discarded_sequences, total.budget_truncated, total.peak_tracked};
  return verdict;
}

}  // namespace decycle::core::threshold
