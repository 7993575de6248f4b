/// \file message.hpp
/// \brief Wire messages and the varint codec.
///
/// The CONGEST model bounds each link to O(log n) bits per round (paper
/// §2.1). To keep the accounting honest, every message in the simulator is a
/// real byte buffer produced by a codec — algorithms cannot smuggle
/// unbounded state through pointers. Bit sizes feed the per-round link
/// statistics and the bandwidth-normalized round metric (DESIGN.md §3.4).
///
/// Encoding: LEB128-style varints (7 bits per byte), so an ID costs
/// ⌈bits(id)/7⌉ bytes — proportional to log n, as the model assumes.
///
/// Storage: a Message is what a MessageWriter builds and what a program
/// hands to Context::send / send_all; nothing keeps it past that call. The
/// simulator copies the bytes into the sending step chunk's payload slab
/// (once per send_all, whatever the degree), and the receiver sees them as
/// a Payload — a 16-byte view into that slab (DESIGN.md §4.2). A Payload is
/// valid only during the receiving on_round(); a program that wants the
/// bytes later must copy them. Message keeps kInlineCapacity bytes inline
/// and spills larger payloads to the heap while it is being built.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace decycle::congest {

/// A received payload: a view into the sender's step slab, valid during
/// the receiving on_round() only (see the file comment).
using Payload = std::span<const std::uint8_t>;

/// An opaque payload under construction: built by MessageWriter, consumed
/// by Context::send / send_all.
class Message {
 public:
  /// Bytes held inline before spilling to the heap. A Message only lives
  /// on the writer's stack, so this is sized for the bundles the Phase-2
  /// detectors actually broadcast (a default-budget threshold bundle is
  /// ~200 bytes), not for compact storage.
  static constexpr std::size_t kInlineCapacity = 256;

  // User-provided (not defaulted) so `const Message m;` is legal without
  // zero-filling the inline buffer.
  Message() noexcept {}  // NOLINT(modernize-use-equals-default)

  /// Compatibility constructor: copies the bytes into inline or heap
  /// storage as size dictates.
  explicit Message(const std::vector<std::uint8_t>& bytes) { assign(bytes.data(), bytes.size()); }
  explicit Message(std::span<const std::uint8_t> bytes) { assign(bytes.data(), bytes.size()); }

  // Write-once: a Message is moved out of its writer into send(), never
  // copied (the simulator copies the bytes into its slab instead).
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;

  Message(Message&& other) noexcept { steal(other); }
  Message& operator=(Message&& other) noexcept {
    if (this != &other) {
      release();
      steal(other);
    }
    return *this;
  }

  ~Message() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t byte_size() const noexcept { return size_; }
  [[nodiscard]] std::uint64_t bit_size() const noexcept { return std::uint64_t{size_} * 8; }
  [[nodiscard]] std::span<const std::uint8_t> bytes() const noexcept { return {data(), size_}; }
  [[nodiscard]] bool on_heap() const noexcept { return heap_ != nullptr; }

 private:
  friend class MessageWriter;

  [[nodiscard]] std::uint8_t* data() noexcept { return heap_ != nullptr ? heap_ : inline_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return heap_ != nullptr ? heap_ : inline_;
  }

  void assign(const std::uint8_t* src, std::size_t n) {
    reserve(n);
    if (n != 0) std::memcpy(data(), src, n);
    size_ = static_cast<std::uint32_t>(n);
  }

  /// Grows capacity to at least \p want, preserving contents.
  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    const std::size_t new_cap = want > 2 * std::size_t{capacity_} ? want : 2 * capacity_;
    auto* fresh = new std::uint8_t[new_cap];
    if (size_ != 0) std::memcpy(fresh, data(), size_);
    delete[] heap_;
    heap_ = fresh;
    capacity_ = static_cast<std::uint32_t>(new_cap);
  }

  void steal(Message& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = other.heap_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.heap_ = nullptr;
      other.capacity_ = kInlineCapacity;
      other.size_ = 0;
    } else {
      heap_ = nullptr;
      capacity_ = kInlineCapacity;
      size_ = other.size_;
      if (size_ != 0) std::memcpy(inline_, other.inline_, size_);
      other.size_ = 0;
    }
  }

  void release() noexcept {
    delete[] heap_;
    heap_ = nullptr;
    capacity_ = kInlineCapacity;
    size_ = 0;
  }

  std::uint8_t* heap_ = nullptr;  ///< nullptr: payload lives in inline_
  std::uint32_t capacity_ = kInlineCapacity;
  std::uint32_t size_ = 0;
  std::uint8_t inline_[kInlineCapacity];
};

/// Serializes unsigned integers into a Message. Builds directly into the
/// message's (inline-first) storage, so writing a typical payload performs
/// no heap allocation.
class MessageWriter {
 public:
  MessageWriter& put_u64(std::uint64_t value) {
    // Encode to a stack scratch first so the message grows by the exact
    // byte count (a speculative worst-case reserve would spill near-full
    // inline payloads to the heap for nothing).
    std::uint8_t scratch[kMaxVarintBytes];
    std::uint32_t n = 0;
    while (value >= 0x80) {
      scratch[n++] = static_cast<std::uint8_t>(value | 0x80);
      value >>= 7;
    }
    scratch[n++] = static_cast<std::uint8_t>(value);
    msg_.reserve(msg_.size_ + n);
    std::memcpy(msg_.data() + msg_.size_, scratch, n);
    msg_.size_ += n;
    return *this;
  }

  /// Convenience for small counts/tags.
  MessageWriter& put_u32(std::uint32_t value) { return put_u64(value); }

  [[nodiscard]] Message finish() { return std::move(msg_); }

 private:
  static constexpr std::uint32_t kMaxVarintBytes = 10;  ///< ⌈64/7⌉

  Message msg_;
};

/// Deserializes in the same order the writer produced. Holds a view into
/// the bytes, so they must outlive the reader (binding a temporary Message
/// is rejected at compile time).
class MessageReader {
 public:
  explicit MessageReader(Payload bytes) noexcept : bytes_(bytes) {}
  explicit MessageReader(const Message& msg) noexcept : bytes_(msg.bytes()) {}
  explicit MessageReader(Message&&) = delete;

  /// Decodes one varint. Throws CheckError on underflow and on encodings
  /// that do not fit 64 bits: more than 10 bytes, or a 10th byte above 1.
  /// Inline: this is the innermost loop of every Phase-2 intake.
  [[nodiscard]] std::uint64_t get_u64() {
    std::uint64_t value = 0;
    for (unsigned shift = 0;; shift += 7) {
      DECYCLE_CHECK_MSG(pos_ < bytes_.size(), "message underflow");
      const std::uint8_t byte = bytes_[pos_++];
      if (shift == 63) {
        // The 10th byte carries bit 63 only; anything else would wrap.
        DECYCLE_CHECK_MSG(byte <= 1, "varint too long");
        return value | (std::uint64_t{byte} << 63);
      }
      value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return value;
    }
  }

  [[nodiscard]] std::uint32_t get_u32() {
    const std::uint64_t v = get_u64();
    DECYCLE_CHECK_MSG(v <= 0xffffffffULL, "u32 overflow in message");
    return static_cast<std::uint32_t>(v);
  }

  [[nodiscard]] bool at_end() const noexcept { return pos_ == bytes_.size(); }

 private:
  Payload bytes_;
  std::size_t pos_ = 0;
};

}  // namespace decycle::congest
