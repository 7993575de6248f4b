#include "core/detect_state.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace decycle::core {
namespace {

DetectParams params_for(unsigned k) {
  DetectParams p;
  p.k = k;
  return p;
}

/// The round-0 bundle of \p state, by value.
std::vector<IdSeq> seed(EdgeDetectState& state) {
  std::vector<IdSeq> out;
  (void)state.seed(out);
  return out;
}

/// Feeds \p received to \p state; returns the bundle step() leaves behind.
std::vector<IdSeq> step(EdgeDetectState& state, std::uint64_t g, std::vector<IdSeq> received) {
  (void)state.step(g, received);
  return received;
}

TEST(DetectState, SeedOnlyAtEndpoints) {
  EdgeDetectState endpoint(params_for(5), /*my=*/1, /*u=*/1, /*v=*/2);
  const auto seeds = seed(endpoint);
  ASSERT_EQ(seeds.size(), 1u);
  EXPECT_EQ(seeds[0], IdSeq{1});

  EdgeDetectState bystander(params_for(5), 7, 1, 2);
  EXPECT_TRUE(seed(bystander).empty());
}

TEST(DetectState, TriangleFinalCheckAtCommonNeighbor) {
  // k=3: node 3 adjacent to both endpoints receives (1) and (2) at round 1.
  EdgeDetectState w(params_for(3), 3, 1, 2);
  EXPECT_EQ(w.half(), 1u);
  auto out = step(w, 1, {IdSeq{1}, IdSeq{2}});
  EXPECT_TRUE(out.empty());
  ASSERT_TRUE(w.rejected());
  const auto cycle = w.witness_cycle_ids();
  EXPECT_EQ(cycle, (std::vector<NodeId>{1, 3, 2}));
}

TEST(DetectState, TriangleSingleSeedAccepts) {
  EdgeDetectState w(params_for(3), 3, 1, 2);
  (void)step(w, 1, {IdSeq{1}});
  EXPECT_FALSE(w.rejected());
}

TEST(DetectState, C5MiddleRoundAppendsOwnId) {
  // Figure 1: x receives (u)=(1) and (v)=(2) at round 1 and must forward
  // BOTH (u,x) and (v,x) — the pruning keeps them because each still has a
  // disjoint completion.
  EdgeDetectState x(params_for(5), 10, 1, 2);
  auto out = step(x, 1, {IdSeq{1}, IdSeq{2}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (IdSeq{1, 10}));
  EXPECT_EQ(out[1], (IdSeq{2, 10}));
  EXPECT_EQ(x.sent_counts()[1], 2u);
}

TEST(DetectState, C5DetectionAtAntipodalNode) {
  // Figure 1's node z receives (u,x) and (v,y) at round 2.
  EdgeDetectState z(params_for(5), 30, 1, 2);
  (void)step(z, 2, {IdSeq{1, 10}, IdSeq{2, 20}});
  ASSERT_TRUE(z.rejected());
  EXPECT_EQ(z.witness_cycle_ids(), (std::vector<NodeId>{1, 10, 30, 20, 2}));
}

TEST(DetectState, C5OverlappingHalvesAccepted) {
  // Halves sharing an internal node do not certify a C5.
  EdgeDetectState z(params_for(5), 30, 1, 2);
  (void)step(z, 2, {IdSeq{1, 10}, IdSeq{2, 10}});
  EXPECT_FALSE(z.rejected());
}

TEST(DetectState, ReceivedContainingOwnIdFiltered) {
  EdgeDetectState z(params_for(5), 30, 1, 2);
  (void)step(z, 2, {IdSeq{1, 30}, IdSeq{2, 20}});  // first contains myid
  EXPECT_FALSE(z.rejected());
}

TEST(DetectState, EvenKPairsOwnSWithReceived) {
  // k=4 antipodal-edge detection: node 30 sent (2,30) at round 1 and
  // receives (1,40) at round 2.
  EdgeDetectState w(params_for(4), 30, 1, 2);
  auto sent = step(w, 1, {IdSeq{2}});
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0], (IdSeq{2, 30}));
  (void)step(w, 2, {IdSeq{1, 40}});
  ASSERT_TRUE(w.rejected());
  EXPECT_EQ(w.witness_cycle_ids(), (std::vector<NodeId>{2, 30, 40, 1}));
}

TEST(DetectState, EvenKTwoReceivedHalvesDoNotFire) {
  // Erratum E-B(ii): two received sequences overlapping in one vertex reach
  // union size k but are NOT a cycle; the A×B pairing must ignore them.
  EdgeDetectState w(params_for(6), 99, 1, 2);
  (void)step(w, 3, {IdSeq{1, 5, 10}, IdSeq{2, 5, 20}});  // share node 5
  EXPECT_FALSE(w.rejected());
  // Also fully disjoint received pairs (union k+1 with myid) must not fire.
  EdgeDetectState w2(params_for(6), 99, 1, 2);
  (void)step(w2, 3, {IdSeq{1, 5, 10}, IdSeq{2, 6, 20}});
  EXPECT_FALSE(w2.rejected());
}

TEST(DetectState, EvenKOwnSOverlappingReceivedDoesNotFire) {
  EdgeDetectState w(params_for(4), 30, 1, 2);
  (void)step(w, 1, {IdSeq{2}});       // S = {(2,30)}
  (void)step(w, 2, {IdSeq{2, 40}});   // shares node 2's... endpoint 2 is in S
  EXPECT_FALSE(w.rejected());
}

TEST(DetectState, WrongLengthThrows) {
  EdgeDetectState w(params_for(5), 3, 1, 2);
  EXPECT_THROW((void)step(w, 1, {IdSeq{1, 2}}), util::CheckError);
}

TEST(DetectState, RoundOutOfRangeThrows) {
  EdgeDetectState w(params_for(5), 3, 1, 2);
  EXPECT_THROW((void)step(w, 0, {}), util::CheckError);
  EXPECT_THROW((void)step(w, 3, {}), util::CheckError);  // half(5)=2
}

TEST(DetectState, DuplicateReceiptsCollapse) {
  EdgeDetectState x(params_for(5), 10, 1, 2);
  const auto out = step(x, 1, {IdSeq{1}, IdSeq{1}, IdSeq{1}});
  EXPECT_EQ(out.size(), 1u);
}

TEST(DetectState, EmptyRoundSendsNothing) {
  EdgeDetectState x(params_for(7), 10, 1, 2);
  EXPECT_TRUE(step(x, 1, {}).empty());
  EXPECT_TRUE(step(x, 2, {}).empty());
}

TEST(DetectState, NaiveOverflowFlag) {
  DetectParams p = params_for(7);
  p.pruning = PruningMode::kNaive;
  p.naive_cap = 2;
  EdgeDetectState x(p, 10, 1, 2);
  (void)step(x, 1, {IdSeq{1}, IdSeq{2}});  // fine: exactly 2
  EXPECT_FALSE(x.overflowed());
  std::vector<IdSeq> many;
  for (NodeId id = 100; id < 110; ++id) many.push_back(IdSeq{1, id});
  (void)step(x, 2, std::move(many));
  EXPECT_TRUE(x.overflowed());
}

TEST(DetectState, MidPhaseJoinAfterSwitch) {
  // A node that switches edges can start receiving at g=2 without g=1 state;
  // it must still prune and forward correctly.
  EdgeDetectState x(params_for(7), 50, 1, 2);
  const auto out = step(x, 2, {IdSeq{1, 10}, IdSeq{2, 20}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], (IdSeq{1, 10, 50}));
}

TEST(DetectState, OddKWitnessOrderIsCyclic) {
  // k=7 detection: halves (1,a,b) and (2,c,d) at node w.
  EdgeDetectState w(params_for(7), 9, 1, 2);
  (void)step(w, 3, {IdSeq{1, 5, 6}, IdSeq{2, 7, 8}});
  ASSERT_TRUE(w.rejected());
  EXPECT_EQ(w.witness_cycle_ids(), (std::vector<NodeId>{1, 5, 6, 9, 8, 7, 2}));
}

TEST(DetectState, SentCountsRecorded) {
  EdgeDetectState u(params_for(6), 1, 1, 2);
  (void)seed(u);
  EXPECT_EQ(u.sent_counts()[0], 1u);
  (void)step(u, 1, {IdSeq{2}});
  EXPECT_EQ(u.sent_counts()[1], 1u);
}

TEST(DetectState, StepTurnsTheCallerBufferIntoTheBundle) {
  // The caller's buffer is consumed and reused in place: the returned view
  // is the buffer itself, so a program that keeps one buffer per thread
  // decodes, prunes and broadcasts without allocating.
  EdgeDetectState x(params_for(5), 10, 1, 2);
  std::vector<IdSeq> buffer{IdSeq{2}, IdSeq{1}, IdSeq{10}};
  const auto out = x.step(1, buffer);
  EXPECT_EQ(out.data(), buffer.data());
  ASSERT_EQ(buffer.size(), 2u);  // own-ID sequence filtered, rest canonicalized
  EXPECT_EQ(buffer[0], (IdSeq{1, 10}));
  EXPECT_EQ(buffer[1], (IdSeq{2, 10}));

  std::vector<IdSeq> seeds{IdSeq{7, 7}};
  EdgeDetectState endpoint(params_for(5), 1, 1, 2);
  EXPECT_EQ(endpoint.seed(seeds).size(), 1u);
  EXPECT_EQ(seeds, (std::vector<IdSeq>{IdSeq{1}}));  // replaced, not appended
}

TEST(DetectState, RejectsBadParams) {
  EXPECT_THROW(EdgeDetectState(params_for(2), 1, 1, 2), util::CheckError);
  EXPECT_THROW(EdgeDetectState(params_for(5), 1, 2, 2), util::CheckError);
}

}  // namespace
}  // namespace decycle::core
