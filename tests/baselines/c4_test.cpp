#include "baselines/c4_tester.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using graph::Graph;
using graph::IdAssignment;

const core::Detector& detector() { return core::DetectorRegistry::builtin().require("c4"); }

TEST(C4Frst, FindsC4InFourCycle) {
  const Graph g = graph::cycle(4);
  const IdAssignment ids = IdAssignment::identity(4);
  core::DetectorOptions opt;
  opt.k = 4;
  opt.repetitions = 16;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.witness.size(), 4u);
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
}

TEST(C4Frst, SoundOnC4FreeGraphs) {
  util::Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::high_girth_graph(40, 60, 4, rng);  // girth > 4
    const IdAssignment ids = IdAssignment::identity(g.num_vertices());
    core::DetectorOptions opt;
    opt.k = 4;
    opt.repetitions = 64;
    opt.seed = 50 + static_cast<std::uint64_t>(trial);
    EXPECT_TRUE(detector().run_fresh(g, ids, opt).accepted);
  }
}

TEST(C4Frst, TriangleFreeButC4RichDetected) {
  const Graph g = graph::complete_bipartite(6, 6);  // many C4s, no triangles
  const IdAssignment ids = IdAssignment::identity(12);
  core::DetectorOptions opt;
  opt.k = 4;
  opt.repetitions = 64;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_FALSE(verdict.accepted);
}

TEST(C4Frst, DetectsPlantedC4s) {
  util::Rng rng(5);
  graph::PlantedOptions popt;
  popt.k = 4;
  popt.num_cycles = 8;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
  core::DetectorOptions opt;
  opt.k = 4;
  opt.repetitions = 128;
  const auto verdict = detector().run_fresh(inst.graph, ids, opt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
}

TEST(C4Frst, OneRoundPerIteration) {
  const Graph g = graph::cycle(4);
  const IdAssignment ids = IdAssignment::identity(4);
  core::DetectorOptions opt;
  opt.k = 4;
  opt.repetitions = 10;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_LE(verdict.stats.rounds_executed, 12u);
}

}  // namespace
}  // namespace decycle::baselines
