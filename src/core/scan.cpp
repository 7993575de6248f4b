#include "core/scan.hpp"

#include <utility>

#include "engine/lanes.hpp"

namespace decycle::core {

ScanResult exhaustive_ck_scan(const graph::Graph& g, const graph::IdAssignment& ids,
                              const ScanOptions& options) {
  ScanResult out;
  const std::uint64_t rounds_per_edge = options.detect.k / 2 + 1;

  // Each edge is one edge_checker run on a Simulator reset for it: one
  // O(m) reverse-port table per lane instead of one per edge, and the
  // reset contract keeps every run bit-identical to a fresh build.
  const Detector& checker = DetectorRegistry::builtin().require("edge_checker");
  DetectorOptions edge_opt;
  edge_opt.k = options.detect.k;
  edge_opt.detect = options.detect;

  if (options.pool == nullptr || options.stop_at_first) {
    congest::Simulator sim(g, ids);
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
      edge_opt.edge = g.edge(e);
      Verdict verdict = checker.run(sim, edge_opt);
      ++out.edges_checked;
      out.schedule_rounds += rounds_per_edge;
      out.total_messages += verdict.stats.total_messages;
      out.total_bits += verdict.stats.total_bits;
      if (!verdict.accepted) {
        if (!out.found) out.witness = std::move(verdict.witness);  // keep the first edge's witness
        out.found = true;
        if (options.stop_at_first) return out;
      }
    }
    return out;
  }

  // Parallel evaluation of independent executions (full sweep only, so the
  // reported counts do not depend on completion order): contiguous lanes of
  // edges, one Simulator each, tallied per lane and reduced in lane order.
  struct LaneTally {
    std::size_t messages = 0;
    std::uint64_t bits = 0;
    bool found = false;
    std::vector<graph::Vertex> witness;  ///< the lane's smallest hit edge's
  };
  std::vector<LaneTally> tallies(engine::lane_count(options.pool, g.num_edges()));
  engine::for_lanes(options.pool, g.num_edges(), nullptr,
                    [&](std::size_t lane, std::size_t begin, std::size_t end) {
                      congest::Simulator sim(g, ids);
                      DetectorOptions lane_opt = edge_opt;
                      LaneTally& tally = tallies[lane];
                      for (std::size_t e = begin; e < end; ++e) {
                        lane_opt.edge = g.edge(static_cast<graph::EdgeId>(e));
                        Verdict verdict = checker.run(sim, lane_opt);
                        tally.messages += verdict.stats.total_messages;
                        tally.bits += verdict.stats.total_bits;
                        if (!verdict.accepted && !tally.found) {
                          tally.found = true;
                          tally.witness = std::move(verdict.witness);
                        }
                      }
                    });
  out.edges_checked = g.num_edges();
  out.schedule_rounds = rounds_per_edge * g.num_edges();
  for (LaneTally& tally : tallies) {
    out.total_messages += tally.messages;
    out.total_bits += tally.bits;
    // Deterministic tie-break: lanes are contiguous and ascending, so the
    // first lane with a hit holds the smallest edge id's witness.
    if (tally.found && !out.found) {
      out.found = true;
      out.witness = std::move(tally.witness);
    }
  }
  return out;
}

}  // namespace decycle::core
