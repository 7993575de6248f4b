#include "baselines/triangle_chs.hpp"

#include <gtest/gtest.h>

#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/subgraph.hpp"
#include "util/rng.hpp"

namespace decycle::baselines {
namespace {

using graph::Graph;
using graph::IdAssignment;

const core::Detector& detector() { return core::DetectorRegistry::builtin().require("triangle"); }

TEST(TriangleChs, FindsTriangleInK3) {
  const Graph g = graph::complete(3);
  const IdAssignment ids = IdAssignment::identity(3);
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = 8;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_EQ(verdict.witness.size(), 3u);
  EXPECT_TRUE(graph::validate_cycle(g, verdict.witness));
}

TEST(TriangleChs, SoundOnTriangleFreeGraphs) {
  util::Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::random_bipartite(15, 15, 60, rng);  // bipartite: no triangles
    const IdAssignment ids = IdAssignment::identity(g.num_vertices());
    core::DetectorOptions opt;
    opt.k = 3;
    opt.repetitions = 64;
    opt.seed = 100 + static_cast<std::uint64_t>(trial);
    EXPECT_TRUE(detector().run_fresh(g, ids, opt).accepted);
  }
}

TEST(TriangleChs, DetectsDenseTriangleInstances) {
  const Graph g = graph::complete(12);
  const IdAssignment ids = IdAssignment::identity(12);
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = 32;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_FALSE(verdict.accepted);
}

TEST(TriangleChs, DetectsPlantedTrianglesWithEnoughIterations) {
  util::Rng rng(4);
  graph::PlantedOptions popt;
  popt.k = 3;
  popt.num_cycles = 10;
  const auto inst = graph::planted_cycles_instance(popt, rng);
  const IdAssignment ids = IdAssignment::identity(inst.graph.num_vertices());
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = 128;  // planted nodes have degree <= 3: detection is easy
  const auto verdict = detector().run_fresh(inst.graph, ids, opt);
  EXPECT_FALSE(verdict.accepted);
  EXPECT_TRUE(graph::validate_cycle(inst.graph, verdict.witness));
}

TEST(TriangleChs, RoundsScaleWithIterations) {
  const Graph g = graph::complete(4);
  const IdAssignment ids = IdAssignment::identity(4);
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = 10;
  const auto verdict = detector().run_fresh(g, ids, opt);
  EXPECT_LE(verdict.stats.rounds_executed, 12u);
}

TEST(TriangleChs, HandlesLowDegreeGraphs) {
  const Graph g = graph::path(6);  // degrees < 2 at the ends
  const IdAssignment ids = IdAssignment::identity(6);
  core::DetectorOptions opt;
  opt.k = 3;
  opt.repetitions = 16;
  EXPECT_TRUE(detector().run_fresh(g, ids, opt).accepted);
}

}  // namespace
}  // namespace decycle::baselines
