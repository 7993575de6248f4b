#include "core/cycle_detector.hpp"

#include <algorithm>

#include "core/wire.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::core {

namespace {
/// Seed-stream tag for the target edge drawn when DetectorOptions::edge is
/// absent — the stream lab edge_checker cells have always used.
constexpr std::uint64_t kEdgeTag = 0x656467655f5f5f31ULL;  // "edge___1"
}  // namespace

void EdgeCheckProgram::on_round(congest::Context& ctx, std::span<const congest::Envelope> inbox) {
  const std::uint64_t g = ctx.round();
  std::vector<IdSeq>& seqs = thread_bundle_buffer();
  std::span<const IdSeq> to_send;
  if (g == 0) {
    to_send = state_.seed(seqs);
  } else if (g <= state_.half()) {
    seqs.clear();
    for (const congest::Envelope& env : inbox) {
      congest::MessageReader r(env.payload);
      read_sequences(r, seqs);
    }
    to_send = state_.step(g, seqs);
  }
  if (!to_send.empty()) {
    congest::MessageWriter w;
    write_sequences(w, to_send);
    ctx.send_all(w.finish());
  }
}

const DetectorCapabilities& EdgeCheckerDetector::capabilities() const noexcept {
  static constexpr DetectorCapabilities caps{
      .min_k = 3,
      .max_k = 64,
      .has_repetitions = false,
      .draws_edge = true,
      .summary = "deterministic single-edge checker (Phase 2 in isolation): "
                 "is there a Ck through the target edge?"};
  return caps;
}

Verdict EdgeCheckerDetector::run(congest::Simulator& sim, const DetectorOptions& options) const {
  const graph::Graph& g = sim.graph();
  const graph::IdAssignment& ids = sim.ids();
  graph::Edge target;
  if (options.edge.has_value()) {
    target = *options.edge;
    DECYCLE_CHECK_MSG(g.has_edge(target.first, target.second),
                      "edge to check is not in the graph");
  } else {
    DECYCLE_CHECK_MSG(g.num_edges() > 0,
                      "edge_checker ran on an edgeless instance — nothing to draw a "
                      "target edge from");
    util::Rng erng(util::splitmix64(options.seed ^ kEdgeTag));
    target = g.edge(static_cast<graph::EdgeId>(erng.next_below(g.num_edges())));
  }
  const NodeId u = ids.id_of(target.first);
  const NodeId v = ids.id_of(target.second);
  DetectParams params = options.detect;
  params.k = options.k;

  sim.reset([&](graph::Vertex vert) {
    return std::make_unique<EdgeCheckProgram>(params, ids.id_of(vert), u, v);
  });
  // ⌊k/2⌋+1 rounds suffice; the cap leaves a margin for safety.
  Verdict verdict;
  verdict.stats = sim.run(simulator_options(options, params.k + 2));
  verdict.truncated = !verdict.stats.halted;

  sim.for_each_program<EdgeCheckProgram>([&](graph::Vertex, const EdgeCheckProgram& prog) {
    const EdgeDetectState& state = prog.state();
    verdict.overflow = verdict.overflow || state.overflowed();
    for (const std::size_t count : state.sent_counts()) {
      verdict.max_bundle_sequences = std::max(verdict.max_bundle_sequences, count);
    }
    if (verdict.accepted && state.rejected()) {
      verdict.accepted = false;
      verdict.rejecting_nodes = 1;
      verdict.witness = witness_vertices(sim, options, state.witness_cycle_ids());
    }
  });
  return verdict;
}

}  // namespace decycle::core
