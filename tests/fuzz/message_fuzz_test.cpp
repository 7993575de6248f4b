/// Randomized round-trip fuzzing of the varint message codec.
///
/// The codec carries every bit the simulator accounts for, so it must be
/// exact on the edge cases a structured unit test tends to miss: the 7-bit
/// group boundaries, the sign-bit values (2^63), max-u64, empty messages,
/// inline-to-heap spill boundaries of the small-buffer storage, and
/// truncated or malformed buffers, which must throw instead of fabricating
/// values.
#include <gtest/gtest.h>

#include <vector>

#include "congest/message.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::congest {
namespace {

std::vector<std::uint64_t> decode_all(const Message& m) {
  MessageReader r(m);
  std::vector<std::uint64_t> out;
  while (!r.at_end()) out.push_back(r.get_u64());
  return out;
}

TEST(MessageFuzz, EdgeValuesRoundTrip) {
  std::vector<std::uint64_t> values{0, 1, 127, 128, (1ULL << 14) - 1, 1ULL << 14,
                                    (1ULL << 21) - 1, 1ULL << 31, 1ULL << 32,
                                    (1ULL << 63) - 1, 1ULL << 63, ~std::uint64_t{0}};
  // Every boundary value alone...
  for (const auto v : values) {
    MessageWriter w;
    w.put_u64(v);
    const Message m = w.finish();
    const auto back = decode_all(m);
    ASSERT_EQ(back.size(), 1u) << v;
    EXPECT_EQ(back[0], v) << v;
  }
  // ...and all of them in one message (forces a heap spill too).
  MessageWriter w;
  for (const auto v : values) w.put_u64(v);
  const Message m = w.finish();
  EXPECT_EQ(decode_all(m), values);
}

TEST(MessageFuzz, RandomSequencesRoundTrip) {
  util::Rng rng(0xc0dec);
  for (int iter = 0; iter < 500; ++iter) {
    const std::size_t len = rng.next_below(12);
    std::vector<std::uint64_t> values;
    MessageWriter w;
    for (std::size_t i = 0; i < len; ++i) {
      // Mix magnitudes so every varint byte-length appears.
      const unsigned bits = static_cast<unsigned>(rng.next_below(65));
      const std::uint64_t v =
          bits == 0 ? 0 : rng() >> (64 - bits);
      values.push_back(v);
      w.put_u64(v);
    }
    const Message m = w.finish();
    EXPECT_EQ(decode_all(m), values) << "iter " << iter;
  }
}

TEST(MessageFuzz, TruncatedBuffersThrowInsteadOfFabricating) {
  util::Rng rng(0x720);
  for (int iter = 0; iter < 200; ++iter) {
    MessageWriter w;
    const std::size_t len = 1 + rng.next_below(6);
    for (std::size_t i = 0; i < len; ++i) w.put_u64(rng());
    const Message full = w.finish();
    ASSERT_GT(full.byte_size(), 0u);
    // Chop at every prefix; decoding must either stop cleanly at a varint
    // boundary (fewer values) or throw — never read past the end.
    const auto bytes = full.bytes();
    const std::size_t cut = rng.next_below(full.byte_size());
    const Message truncated(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + cut));
    MessageReader r(truncated);
    std::size_t decoded = 0;
    try {
      while (!r.at_end()) {
        (void)r.get_u64();
        ++decoded;
      }
      EXPECT_LE(decoded, len);
    } catch (const util::CheckError&) {
      EXPECT_LT(decoded, len);
    }
  }
}

TEST(MessageFuzz, ContinuationOnlyBuffersThrow) {
  for (std::size_t len = 1; len <= 16; ++len) {
    const Message m(std::vector<std::uint8_t>(len, 0x80));
    MessageReader r(m);
    EXPECT_THROW((void)r.get_u64(), util::CheckError) << len;
  }
}

TEST(MessageFuzz, InlineSpillBoundaryPreservesBytes) {
  // Grow a message one byte at a time across the inline-capacity boundary;
  // contents must be preserved verbatim through the spill and through
  // moves (finish() moves the message out of its writer).
  for (std::size_t len = 0; len <= 2 * Message::kInlineCapacity; ++len) {
    MessageWriter w;
    for (std::size_t i = 0; i < len; ++i) w.put_u64(i % 100);  // 1 byte each
    Message m = w.finish();
    ASSERT_EQ(m.byte_size(), len);
    EXPECT_EQ(m.on_heap(), len > Message::kInlineCapacity) << len;
    const Message moved = std::move(m);
    const auto back = decode_all(moved);
    ASSERT_EQ(back.size(), len);
    for (std::size_t i = 0; i < len; ++i) EXPECT_EQ(back[i], i % 100);
  }
}

}  // namespace
}  // namespace decycle::congest
