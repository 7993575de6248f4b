/// Verdict pins for the Phase-2 detectors on mid-sized graphs.
///
/// The ci/golden documents run n=24 instances at budget=8 track=4, so their
/// bundles stay tiny and k=6 (the even-k E-A final check) never runs. These
/// pins cover what they miss: n=2000 `gnm` and `planted` graphs under
/// quadratic IDs, `tester` k=4/5/6, `threshold` k=5 at the default budget
/// and tracking cap (merged bundles well over 24 bytes) and `edge_checker`
/// k=5. Every case runs on one reused Simulator per graph, serially and on a
/// thread pool, and must reproduce the recorded verdict byte for byte:
/// accept/reject, witness, rejecting nodes, the four RunStats totals,
/// the largest bundle and the detector's counters.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/simulator.hpp"
#include "core/detector.hpp"
#include "graph/far_generators.hpp"
#include "graph/generators.hpp"
#include "graph/ids.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace decycle::core {
namespace {

struct PinCase {
  const char* algo;
  unsigned k;
  std::uint64_t seed;
  const char* expected;
};

std::string digest(const Verdict& v) {
  std::ostringstream out;
  out << "acc=" << v.accepted << " rej=" << v.rejecting_nodes << " wit=";
  for (std::size_t i = 0; i < v.witness.size(); ++i) out << (i ? "," : "") << v.witness[i];
  out << " msgs=" << v.stats.total_messages << " bits=" << v.stats.total_bits
      << " mlb=" << v.stats.max_link_bits << " rounds=" << v.stats.rounds_executed
      << " bundle=" << v.max_bundle_sequences << " ctr=";
  for (std::size_t i = 0; i < v.counters.size(); ++i) out << (i ? "," : "") << v.counters[i];
  return out.str();
}

void check_pins(const graph::Graph& g, const graph::IdAssignment& ids,
                const std::vector<PinCase>& cases) {
  congest::Simulator sim(g, ids);
  util::ThreadPool pool(3);
  for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
    for (const PinCase& c : cases) {
      DetectorOptions opt;
      opt.k = c.k;
      opt.epsilon = 0.5;
      opt.seed = c.seed;
      opt.pool = p;
      const Verdict v = DetectorRegistry::builtin().require(c.algo).run(sim, opt);
      EXPECT_EQ(digest(v), c.expected)
          << c.algo << " k=" << c.k << " seed=" << c.seed << (p ? " pooled" : " serial");
    }
  }
}

// Recorded before the zero-allocation message path landed; any change here
// is a behaviour change, not a refactor.
const std::vector<PinCase> kGnmPins = {
    {"tester", 4, 1,
     "acc=0 rej=78 wit=157,2,340,633"
     " msgs=595000 bits=87590440 mlb=272 rounds=68 bundle=2 ctr=58680,403414"},
    {"tester", 5, 1,
     "acc=0 rej=297 wit=754,799,2,1909,1460"
     " msgs=595000 bits=87590440 mlb=272 rounds=68 bundle=2 ctr=58680,403414"},
    {"tester", 6, 1,
     "acc=0 rej=555 wit=937,1026,1,1531,484,562"
     " msgs=828693 bits=136172568 mlb=408 rounds=85 bundle=3 ctr=86812,592739"},
    {"threshold", 5, 1,
     "acc=0 rej=131 wit=823,332,8,280,393"
     " msgs=35000 bits=35284368 mlb=1592 rounds=4 bundle=9 ctr=12762,1238,48363,175538,0,8"},
    {"edge_checker", 5, 1,
     "acc=0 rej=1 wit=841,1427,164,762,679"
     " msgs=241 bits=17496 mlb=80 rounds=3 bundle=1 ctr="},
    {"tester", 4, 7,
     "acc=0 rej=89 wit=958,9,235,103"
     " msgs=595000 bits=87509848 mlb=272 rounds=68 bundle=2 ctr=58647,403392"},
    {"tester", 5, 7,
     "acc=0 rej=256 wit=504,546,8,280,445"
     " msgs=595000 bits=87509848 mlb=272 rounds=68 bundle=2 ctr=58647,403392"},
    {"tester", 6, 7,
     "acc=0 rej=569 wit=1674,1589,4,1557,748,1038"
     " msgs=828595 bits=136011664 mlb=432 rounds=85 bundle=3 ctr=86909,592828"},
    {"threshold", 5, 7,
     "acc=0 rej=156 wit=669,231,0,1874,428"
     " msgs=35000 bits=35234344 mlb=1568 rounds=4 bundle=9 ctr=12762,1238,48220,175429,0,8"},
    {"edge_checker", 5, 7,
     "acc=1 rej=0 wit="
     " msgs=143 bits=9096 mlb=80 rounds=3 bundle=1 ctr="},
};

const std::vector<PinCase> kPlantedPins = {
    {"tester", 4, 1,
     "acc=1 rej=0 wit="
     " msgs=178415 bits=26608576 mlb=208 rounds=68 bundle=1 ctr=39777,67145"},
    {"tester", 5, 1,
     "acc=0 rej=252 wit=685,128,11,802,539"
     " msgs=178415 bits=26608576 mlb=208 rounds=68 bundle=1 ctr=39777,67145"},
    {"tester", 6, 1,
     "acc=1 rej=0 wit="
     " msgs=236665 bits=38972904 mlb=336 rounds=85 bundle=2 ctr=55767,88488"},
    {"threshold", 5, 1,
     "acc=0 rej=179 wit=156,1822,33,1080,533"
     " msgs=10495 bits=6899056 mlb=1584 rounds=4 bundle=8 ctr=4198,0,5392,10523,0,8"},
    {"edge_checker", 5, 1,
     "acc=1 rej=0 wit="
     " msgs=24 bits=1672 mlb=80 rounds=3 bundle=1 ctr="},
    {"tester", 4, 7,
     "acc=1 rej=0 wit="
     " msgs=178415 bits=26598600 mlb=208 rounds=68 bundle=1 ctr=39594,66913"},
    {"tester", 5, 7,
     "acc=0 rej=262 wit=777,1910,23,1788,270"
     " msgs=178415 bits=26598600 mlb=208 rounds=68 bundle=1 ctr=39594,66913"},
    {"tester", 6, 7,
     "acc=1 rej=0 wit="
     " msgs=236342 bits=38890680 mlb=344 rounds=85 bundle=2 ctr=55183,87705"},
    {"threshold", 5, 7,
     "acc=0 rej=200 wit=439,885,29,359,1709"
     " msgs=10495 bits=6898264 mlb=1592 rounds=4 bundle=8 ctr=4198,0,5403,10432,0,8"},
    {"edge_checker", 5, 7,
     "acc=1 rej=0 wit="
     " msgs=28 bits=1728 mlb=80 rounds=3 bundle=1 ctr="},
};

TEST(PhaseTwoPin, GnmVerdictsMatchRecorded) {
  util::Rng rng(20260417);
  const graph::Graph g = graph::erdos_renyi_gnm(2000, 7000, rng);
  const graph::IdAssignment ids = graph::IdAssignment::random_quadratic(g.num_vertices(), rng);
  check_pins(g, ids, kGnmPins);
}

TEST(PhaseTwoPin, PlantedVerdictsMatchRecorded) {
  util::Rng rng(7041);
  graph::PlantedOptions popt;
  popt.k = 5;
  popt.num_cycles = 100;
  popt.padding_leaves = 1500;
  const graph::FarInstance inst = graph::planted_cycles_instance(popt, rng);
  const graph::IdAssignment ids =
      graph::IdAssignment::random_quadratic(inst.graph.num_vertices(), rng);
  check_pins(inst.graph, ids, kPlantedPins);
}

}  // namespace
}  // namespace decycle::core
