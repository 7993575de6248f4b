#include "core/cycle_detector.hpp"

#include "core/wire.hpp"
#include "core/witness.hpp"
#include "util/check.hpp"

namespace decycle::core {

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

EdgeDetectionResult detect_cycle_through_edge(const graph::Graph& g,
                                              const graph::IdAssignment& ids, graph::Edge e,
                                              const EdgeDetectionOptions& options) {
  // Validate before paying the O(m) reverse-port-table construction.
  DECYCLE_CHECK_MSG(g.has_edge(e.first, e.second), "edge to check is not in the graph");
  congest::Simulator sim(g, ids);
  return detect_cycle_through_edge(sim, e, options);
}

EdgeDetectionResult detect_cycle_through_edge(congest::Simulator& sim, graph::Edge e,
                                              const EdgeDetectionOptions& options) {
  const graph::Graph& g = sim.graph();
  const graph::IdAssignment& ids = sim.ids();
  DECYCLE_CHECK_MSG(g.has_edge(e.first, e.second), "edge to check is not in the graph");
  const NodeId u = ids.id_of(e.first);
  const NodeId v = ids.id_of(e.second);
  DetectParams params = options.detect;

  sim.reset([&](graph::Vertex vert) {
    return std::make_unique<EdgeCheckProgram>(params, ids.id_of(vert), u, v);
  });

  congest::Simulator::Options sim_options;
  sim_options.pool = options.pool;
  sim_options.record_rounds = options.record_rounds;
  sim_options.drop = options.drop;
  sim_options.delivery = options.delivery;
  sim_options.max_rounds = params.k + 2;  // ⌊k/2⌋+1 rounds suffice; margin for safety
  EdgeDetectionResult result;
  result.stats = sim.run(sim_options);

  result.max_bundle_by_round.assign(params.k / 2 + 1, 0);
  sim.for_each_program<EdgeCheckProgram>([&](graph::Vertex vert, const EdgeCheckProgram& prog) {
    const EdgeDetectState& state = prog.state();
    result.overflow = result.overflow || state.overflowed();
    const auto counts = state.sent_counts();
    for (std::size_t round = 0; round < counts.size(); ++round) {
      result.max_bundle_sequences = std::max(result.max_bundle_sequences, counts[round]);
      result.max_bundle_by_round[round] = std::max(result.max_bundle_by_round[round], counts[round]);
    }
    if (!result.found && state.rejected()) {
      result.found = true;
      result.rejecting_vertex = vert;
      const auto cycle_ids = state.witness_cycle_ids();
      if (options.validate_witness) {
        result.witness = validated_witness_vertices(g, ids, cycle_ids);
      } else {
        for (const NodeId id : cycle_ids) result.witness.push_back(ids.vertex_of(id));
      }
    }
  });
  return result;
}

}  // namespace decycle::core
