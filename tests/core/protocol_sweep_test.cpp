/// Parameterized whole-protocol sweeps driving EdgeDetectState manually
/// (no simulator), so every bundle is inspectable. The bare k-cycle is the
/// paper's own worked example (§3.3): each node forwards exactly one
/// sequence per round, both directions meet at the antipode, and the final
/// check fires there and nowhere else.
#include <gtest/gtest.h>

#include <optional>

#include "core/detect_state.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"

namespace decycle::core {
namespace {

struct SweepOutcome {
  bool detected = false;
  std::size_t rejecting_nodes = 0;
  std::size_t max_bundle = 0;
  std::vector<NodeId> witness;
};

/// Simulates Phase 2 for edge {u, v} on graph g with all-to-all neighbor
/// broadcast, mirroring EdgeCheckProgram but in-process.
SweepOutcome run_manual(const graph::Graph& g, unsigned k, graph::Vertex u, graph::Vertex v,
                        const DetectParams& base) {
  DetectParams params = base;
  params.k = k;
  std::vector<EdgeDetectState> states;
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    states.emplace_back(params, x + 1, u + 1, v + 1);  // 1-based IDs as in the paper
  }
  std::vector<std::vector<IdSeq>> outgoing(g.num_vertices());
  SweepOutcome out;
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    (void)states[x].seed(outgoing[x]);
    out.max_bundle = std::max(out.max_bundle, outgoing[x].size());
  }
  for (unsigned round = 1; round <= k / 2; ++round) {
    std::vector<std::vector<IdSeq>> next(g.num_vertices());
    for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
      std::vector<IdSeq> received;
      for (const graph::Vertex nb : g.neighbors(x)) {
        received.insert(received.end(), outgoing[nb].begin(), outgoing[nb].end());
      }
      if (received.empty()) continue;
      (void)states[x].step(round, received);  // leaves the bundle to forward
      next[x] = std::move(received);
      out.max_bundle = std::max(out.max_bundle, next[x].size());
    }
    outgoing = std::move(next);
  }
  for (graph::Vertex x = 0; x < g.num_vertices(); ++x) {
    if (states[x].rejected()) {
      ++out.rejecting_nodes;
      if (!out.detected) out.witness = states[x].witness_cycle_ids();
      out.detected = true;
    }
  }
  return out;
}

class BareCycleSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(BareCycleSweep, DetectsAtTheAntipode) {
  const unsigned k = GetParam();
  const graph::Graph g = graph::cycle(k);
  const SweepOutcome out = run_manual(g, k, 0, k - 1, DetectParams{});
  EXPECT_TRUE(out.detected);
  // Odd k: exactly one antipodal node; even k: the two endpoints of the
  // antipodal edge.
  EXPECT_EQ(out.rejecting_nodes, k % 2 == 1 ? 1u : 2u);
  // On a bare cycle each node relays exactly one sequence per round.
  EXPECT_EQ(out.max_bundle, 1u);
  EXPECT_EQ(out.witness.size(), k);
}

TEST_P(BareCycleSweep, WrongEdgeLengthMissesCleanly) {
  const unsigned k = GetParam();
  if (k + 1 > 12) return;
  const graph::Graph g = graph::cycle(k + 1);  // cycle one longer than target
  const SweepOutcome out = run_manual(g, k, 0, k, DetectParams{});
  EXPECT_FALSE(out.detected);
}

TEST_P(BareCycleSweep, NaivePruningAgreesOnSparseInstances) {
  const unsigned k = GetParam();
  DetectParams naive;
  naive.pruning = PruningMode::kNaive;
  const SweepOutcome out = run_manual(graph::cycle(k), k, 0, k - 1, naive);
  EXPECT_TRUE(out.detected);
  EXPECT_EQ(out.max_bundle, 1u);
}

INSTANTIATE_TEST_SUITE_P(AllK, BareCycleSweep,
                         ::testing::Values(3u, 4u, 5u, 6u, 7u, 8u, 9u, 10u, 11u, 12u));

class ChordedCycleSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(ChordedCycleSweep, ChordsDoNotBreakSubgraphDetection) {
  // Ck plus a chord still contains the Ck; Algorithm 1 must keep finding it
  // (the paper's §4 point is only that it cannot *distinguish* chordedness).
  const unsigned k = GetParam();
  graph::GraphBuilder b;
  for (unsigned i = 0; i < k; ++i) {
    b.add_edge(i, (i + 1) % k);
  }
  b.add_edge(0, k / 2);  // a chord
  const graph::Graph g = b.build();
  const SweepOutcome out = run_manual(g, k, 0, k - 1, DetectParams{});
  EXPECT_TRUE(out.detected) << "k=" << k;
  EXPECT_TRUE(graph::has_cycle(g, k));
}

INSTANTIATE_TEST_SUITE_P(AllK, ChordedCycleSweep, ::testing::Values(6u, 7u, 8u, 9u, 10u));

}  // namespace
}  // namespace decycle::core
