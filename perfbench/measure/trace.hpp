/// \file trace.hpp
/// \brief Spans recorded around calls into the program's modules.
///
/// A span has a name, a start, an end, the span that caused it and the id
/// of the request it belongs to. Spans are kept in memory, one Tracer per
/// thread, and written out when the run ends. A layer's self time is its
/// span's duration minus the time its child spans cover.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct Span {
  const char* name = "";  ///< static storage (a literal or span_name())
  std::uint64_t request = 0;
  std::uint32_t id = 0;
  std::uint32_t parent = 0;  ///< 0 = a root span
  std::uint32_t thread = 0;
  Clock::time_point start;
  Clock::time_point end;
};

/// "<prefix><suffix>" with static storage duration, for span names built at
/// run time (one per detector name). Thread-safe.
[[nodiscard]] const char* span_name(const std::string& prefix, const std::string& suffix);

/// One thread's span recorder. Disabled tracers record nothing.
class Tracer {
 public:
  Tracer(bool enabled, std::uint32_t thread) : enabled_(enabled), thread_(thread) {}

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Renames the open span (e.g. once a lease turns out a hit or a miss).
    void rename(const char* name);

   private:
    Tracer& tracer_;
    std::size_t index_ = 0;
  };

  /// Turns recording on or off; call only with no span open.
  void enable(bool on) noexcept { enabled_ = on; }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  bool enabled_;
  std::uint32_t thread_;
  std::vector<Span> spans_;
  std::vector<std::uint32_t> open_;  ///< ids of the open spans, innermost last
};

/// Self time per span name: calls and the sum of self seconds.
struct LayerTime {
  std::uint64_t calls = 0;
  double self_s = 0.0;
  [[nodiscard]] double mean_s() const { return calls == 0 ? 0.0 : self_s / calls; }
};
[[nodiscard]] std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans);

/// Writes one JSON object per span to \p path (name, request, id, parent,
/// thread, start_ns and end_ns relative to \p origin).
void write_spans(const std::string& path, const std::vector<Span>& spans, Clock::time_point origin);

}  // namespace perfbench
