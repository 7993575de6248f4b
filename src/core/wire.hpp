/// \file wire.hpp
/// \brief Serialization of sequence bundles (shared by detector and tester).
///
/// Bundle layout: varint count, then per sequence varint length followed by
/// the IDs. Fake IDs never travel (Instruction 20 keeps S to existing IDs),
/// so all wire IDs are plain unsigned values.
#pragma once

#include <vector>

#include "congest/message.hpp"
#include "core/sequence.hpp"

namespace decycle::core {

inline void write_sequences(congest::MessageWriter& w, std::span<const IdSeq> seqs) {
  w.put_u64(seqs.size());
  for (const IdSeq& s : seqs) {
    w.put_u64(s.size());
    for (const NodeId id : s) w.put_u64(id);
  }
}

/// The calling thread's reusable bundle buffer. A Phase-2 program decodes
/// its inbox into it, prunes in place and broadcasts from it within one
/// on_round(), so pooled stepping gives every worker thread its own and a
/// warmed thread decodes without allocating. Never hold it across calls.
inline std::vector<IdSeq>& thread_bundle_buffer() {
  thread_local std::vector<IdSeq> buffer;
  return buffer;
}

/// Decodes the bundle at the reader's position and appends its sequences
/// to \p out (existing entries are kept), so callers decode straight into
/// a buffer they reuse.
inline void read_sequences(congest::MessageReader& r, std::vector<IdSeq>& out) {
  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.get_u64();
    IdSeq& s = out.emplace_back();
    for (std::uint64_t j = 0; j < len; ++j) s.push_back(r.get_u64());
  }
}

/// Reads past the bundle at the reader's position without building it;
/// returns its sequence count.
inline std::uint64_t skip_sequences(congest::MessageReader& r) {
  const std::uint64_t count = r.get_u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t len = r.get_u64();
    for (std::uint64_t j = 0; j < len; ++j) (void)r.get_u64();
  }
  return count;
}

}  // namespace decycle::core
