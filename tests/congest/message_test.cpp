#include "congest/message.hpp"

#include <gtest/gtest.h>

#include "core/wire.hpp"
#include "util/check.hpp"

namespace decycle::congest {
namespace {

TEST(Message, EmptyByDefault) {
  const Message m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.bit_size(), 0u);
}

TEST(Codec, RoundTripsSmallValues) {
  MessageWriter w;
  w.put_u64(0).put_u64(1).put_u64(127);
  const Message m = w.finish();
  EXPECT_EQ(m.byte_size(), 3u);  // each fits one varint byte
  MessageReader r(m);
  EXPECT_EQ(r.get_u64(), 0u);
  EXPECT_EQ(r.get_u64(), 1u);
  EXPECT_EQ(r.get_u64(), 127u);
  EXPECT_TRUE(r.at_end());
}

TEST(Codec, RoundTripsBoundaryValues) {
  const std::vector<std::uint64_t> values{127, 128, 16383, 16384, (1ULL << 32),
                                          ~std::uint64_t{0}};
  MessageWriter w;
  for (const auto v : values) w.put_u64(v);
  const Message m = w.finish();
  MessageReader r(m);
  for (const auto v : values) EXPECT_EQ(r.get_u64(), v);
}

TEST(Codec, VarintSizeGrowsLogarithmically) {
  MessageWriter small;
  small.put_u64(100);
  MessageWriter large;
  large.put_u64(1ULL << 40);
  EXPECT_EQ(small.finish().byte_size(), 1u);
  EXPECT_EQ(large.finish().byte_size(), 6u);  // ceil(41/7)
}

TEST(Codec, UnderflowThrows) {
  MessageWriter w;
  w.put_u64(5);
  const Message m = w.finish();
  MessageReader r(m);
  (void)r.get_u64();
  EXPECT_THROW((void)r.get_u64(), util::CheckError);
}

TEST(Codec, U32OverflowThrows) {
  MessageWriter w;
  w.put_u64(1ULL << 40);
  const Message m = w.finish();
  MessageReader r(m);
  EXPECT_THROW((void)r.get_u32(), util::CheckError);
}

TEST(Codec, U32RoundTrip) {
  MessageWriter w;
  w.put_u32(0xffffffffU);
  const Message m = w.finish();
  MessageReader r(m);
  EXPECT_EQ(r.get_u32(), 0xffffffffU);
}

TEST(Codec, MalformedVarintThrows) {
  // 11 continuation bytes exceed the 64-bit budget.
  std::vector<std::uint8_t> bytes(11, 0x80);
  const Message m(std::move(bytes));
  MessageReader r(m);
  EXPECT_THROW((void)r.get_u64(), util::CheckError);

  // A 10th byte above 1 sets bits past 63: it used to wrap silently
  // (80x9 02 decoded to 0, ffx9 7f to 2^64-1).
  std::vector<std::uint8_t> wraps_to_zero(9, 0x80);
  wraps_to_zero.push_back(0x02);
  std::vector<std::uint8_t> wraps_to_max(9, 0xff);
  wraps_to_max.push_back(0x7f);
  for (const auto& malformed : {wraps_to_zero, wraps_to_max}) {
    const Message bad(malformed);
    MessageReader rb(bad);
    EXPECT_THROW((void)rb.get_u64(), util::CheckError);
  }

  // The largest legal encoding still decodes: ffx9 01 is 2^64-1.
  std::vector<std::uint8_t> max_legal(9, 0xff);
  max_legal.push_back(0x01);
  const Message ok(max_legal);
  MessageReader rok(ok);
  EXPECT_EQ(rok.get_u64(), ~std::uint64_t{0});
  EXPECT_TRUE(rok.at_end());
}

TEST(Codec, ReaderDecodesAPayloadView) {
  MessageWriter w;
  w.put_u64(300).put_u64(7);
  const Message m = w.finish();
  const Payload view = m.bytes();
  MessageReader r(view);
  EXPECT_EQ(r.get_u64(), 300u);
  EXPECT_EQ(r.get_u64(), 7u);
  EXPECT_TRUE(r.at_end());
}

TEST(WireFormat, SequencesRoundTrip) {
  std::vector<core::IdSeq> seqs;
  seqs.push_back(core::IdSeq{1, 2, 3});
  seqs.push_back(core::IdSeq{900000, 5});
  seqs.push_back(core::IdSeq{});
  MessageWriter w;
  core::write_sequences(w, seqs);
  const Message m = w.finish();
  MessageReader r(m);
  std::vector<core::IdSeq> back;
  core::read_sequences(r, back);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[0], seqs[0]);
  EXPECT_EQ(back[1], seqs[1]);
  EXPECT_TRUE(back[2].empty());
  EXPECT_TRUE(r.at_end());
}

TEST(WireFormat, EmptyBundle) {
  MessageWriter w;
  core::write_sequences(w, {});
  const Message m = w.finish();
  MessageReader r(m);
  std::vector<core::IdSeq> back;
  core::read_sequences(r, back);
  EXPECT_TRUE(back.empty());
}

TEST(WireFormat, ReadAppendsAndSkipCounts) {
  const std::vector<core::IdSeq> first{core::IdSeq{1, 2}};
  const std::vector<core::IdSeq> second{core::IdSeq{3}, core::IdSeq{4, 5, 6}};
  MessageWriter w;
  core::write_sequences(w, first);
  core::write_sequences(w, second);
  core::write_sequences(w, first);
  const Message m = w.finish();
  MessageReader r(m);
  std::vector<core::IdSeq> back{core::IdSeq{9}};  // existing entries are kept
  core::read_sequences(r, back);
  EXPECT_EQ(core::skip_sequences(r), 2u);
  core::read_sequences(r, back);
  EXPECT_EQ(back, (std::vector<core::IdSeq>{core::IdSeq{9}, core::IdSeq{1, 2}, core::IdSeq{1, 2}}));
  EXPECT_TRUE(r.at_end());
}

TEST(WireFormat, BitSizeTracksIdMagnitude) {
  std::vector<core::IdSeq> small_ids{core::IdSeq{1, 2, 3, 4}};
  std::vector<core::IdSeq> big_ids{core::IdSeq{1ULL << 40, 1ULL << 41, 1ULL << 42, 1ULL << 43}};
  MessageWriter ws, wb;
  core::write_sequences(ws, small_ids);
  core::write_sequences(wb, big_ids);
  EXPECT_LT(ws.finish().bit_size(), wb.finish().bit_size());
}

}  // namespace
}  // namespace decycle::congest
