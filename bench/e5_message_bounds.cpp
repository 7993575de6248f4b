/// \file e5_message_bounds.cpp
/// \brief Experiment T5 — Lemma 3: bundle sizes stay within (k-t+1)^(t-1).
///
/// The core of the paper: pruning caps the number of sequences a node
/// forwards at paper-round t by (k-t+1)^(t-1), independent of degree or of
/// how many cycles cross the node. We hammer the checker with the densest
/// small instances (complete bipartite, complete, layered packings) and
/// record the per-round maxima across all nodes; the naive
/// append-and-forward baseline on the same instances shows what the bound
/// is protecting against.
#include <algorithm>
#include <iostream>
#include <vector>

#include "core/cycle_detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "harness/claims.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

using namespace decycle;

/// Runs the single-edge checker for \p g's first edge and returns the max
/// bundle size per phase round g (index 0 = seeds) across all nodes, read
/// from the EdgeCheckPrograms the run leaves in the simulator. Reports the
/// naive pruner hitting its cap through \p overflow when given.
std::vector<std::size_t> bundle_maxima(const graph::Graph& g, const core::DetectorOptions& opt,
                                       bool* overflow = nullptr) {
  const graph::IdAssignment ids = graph::IdAssignment::identity(g.num_vertices());
  congest::Simulator sim(g, ids);
  core::DetectorOptions edge_opt = opt;
  edge_opt.edge = g.edge(0);
  const core::Verdict verdict =
      core::DetectorRegistry::builtin().require("edge_checker").run(sim, edge_opt);
  if (overflow != nullptr) *overflow = verdict.overflow;
  std::vector<std::size_t> maxima(opt.k / 2 + 1, 0);
  sim.for_each_program<core::EdgeCheckProgram>([&](graph::Vertex, const core::EdgeCheckProgram& p) {
    const auto counts = p.state().sent_counts();
    for (std::size_t round = 0; round < counts.size(); ++round) {
      maxima[round] = std::max(maxima[round], counts[round]);
    }
  });
  return maxima;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  args.reject_unknown();

  harness::ClaimSet claims("E5 message bounds (Lemma 3)");
  util::Table table({"instance", "k", "round t", "pruned max |S|", "bound (k-t+1)^(t-1)",
                     "naive max |S|", "claim"});

  struct Instance {
    std::string name;
    graph::Graph g;
  };
  util::Rng rng(3);
  std::vector<Instance> instances;
  instances.push_back({"K(10,10)", graph::complete_bipartite(10, 10)});
  instances.push_back({"K14", graph::complete(14)});
  instances.push_back({"layered C5 s=11 g=5", graph::layered_instance(5, 11, 5, rng).graph});
  instances.push_back({"layered C7 s=11 g=4", graph::layered_instance(7, 11, 4, rng).graph});

  for (const auto& inst : instances) {
    for (const unsigned k : {4u, 6u, 8u, 10u}) {
      core::DetectorOptions opt;
      opt.k = k;
      const std::vector<std::size_t> pruned = bundle_maxima(inst.g, opt);

      core::DetectorOptions naive_opt = opt;
      naive_opt.detect.pruning = core::PruningMode::kNaive;
      naive_opt.detect.naive_cap = 200000;
      bool naive_overflow = false;
      const std::vector<std::size_t> naive = bundle_maxima(inst.g, naive_opt, &naive_overflow);

      for (unsigned g_round = 1; g_round < pruned.size(); ++g_round) {
        const unsigned t = g_round + 1;  // paper round index
        if (t > k / 2) break;
        const std::uint64_t bound = core::lemma3_bound(k, t);
        const std::size_t measured = pruned[g_round];
        const std::size_t naive_measured = g_round < naive.size() ? naive[g_round] : 0;
        const bool holds = measured <= bound;
        claims.check("bundle bound " + inst.name + " k=" + std::to_string(k) +
                         " t=" + std::to_string(t),
                     holds);
        std::string naive_text = std::to_string(naive_measured);
        if (naive_overflow) naive_text += " (capped)";
        table.row()
            .cell(inst.name)
            .cell(static_cast<std::uint64_t>(k))
            .cell(static_cast<std::uint64_t>(t))
            .cell(static_cast<std::uint64_t>(measured))
            .cell(bound)
            .cell(naive_text)
            .cell_ok(holds);
      }
    }
  }

  table.print(std::cout, "T5: max sequences per message vs Lemma 3 bound (naive for contrast)");
  return claims.summarize();
}
