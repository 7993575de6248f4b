/// Heap-allocation ceilings for whole Phase-2 detector runs.
///
/// The simulator's delivery path is allocation-free (simulator_test): a
/// payload is written once into the sender chunk's slab and received as a
/// view. The Phase-2 programs decode straight into per-thread buffers and
/// prune them in place, so a warmed, reused Simulator runs a whole `tester`
/// or `threshold` query with a few allocations per node (port tables,
/// instrumentation vectors, witnesses), not per message or per sequence.
///
/// Workload: gnm n=2000 m=7000, quadratic IDs, k=5, eps=0.5, seed 3 (the
/// tester runs 17 repetitions, 595k messages; the threshold family one
/// sweep at the default budget 16 and tracking cap 8, 35k messages).
/// Before the payload slab and in-place decoding, the same runs made
/// 897,083 (`tester`) and 442,896 (`threshold`) heap allocations. Each
/// ceiling sits at most 1.25x above the count measured after the change
/// (4,921 and 9,749), which is far more than 4x below those figures.
#include <gtest/gtest.h>

#include <cstdint>

#include "congest/simulator.hpp"
#include "core/detector.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "support/alloc_probe.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace decycle::core {
namespace {

/// Allocations of the second of two identical runs on one Simulator.
std::uint64_t warm_run_allocations(const char* algo, util::ThreadPool* pool) {
  util::Rng rng(20260417);
  const graph::Graph g = graph::erdos_renyi_gnm(2000, 7000, rng);
  const graph::IdAssignment ids = graph::IdAssignment::random_quadratic(g.num_vertices(), rng);
  congest::Simulator sim(g, ids);
  DetectorOptions opt;
  opt.k = 5;
  opt.epsilon = 0.5;
  opt.seed = 3;
  opt.pool = pool;
  const Detector& d = DetectorRegistry::builtin().require(algo);
  const Verdict warm = d.run(sim, opt);
  const std::uint64_t before = testsupport::allocation_count();
  const Verdict steady = d.run(sim, opt);
  const std::uint64_t after = testsupport::allocation_count();
  EXPECT_EQ(steady.stats.total_messages, warm.stats.total_messages);
  EXPECT_EQ(steady.witness, warm.witness);
  return after - before;
}

constexpr std::uint64_t kTesterCeiling = 6'000;
constexpr std::uint64_t kThresholdCeiling = 12'000;

TEST(PhaseTwoAlloc, TesterRunStaysUnderCeiling) {
  ASSERT_TRUE(testsupport::allocation_probe_active());
  util::ThreadPool pool(3);
  EXPECT_LE(warm_run_allocations("tester", nullptr), kTesterCeiling) << "serial";
  EXPECT_LE(warm_run_allocations("tester", &pool), kTesterCeiling) << "pooled";
}

TEST(PhaseTwoAlloc, ThresholdRunStaysUnderCeiling) {
  ASSERT_TRUE(testsupport::allocation_probe_active());
  util::ThreadPool pool(3);
  EXPECT_LE(warm_run_allocations("threshold", nullptr), kThresholdCeiling) << "serial";
  EXPECT_LE(warm_run_allocations("threshold", &pool), kThresholdCeiling) << "pooled";
}

}  // namespace
}  // namespace decycle::core
