/// \file stats.hpp
/// \brief Latency-SLO accounting for the serving daemon.
///
/// Every admitted request is timed submit-to-reply and recorded into one
/// window: its tenant's, or the control window for requests that name no
/// tenant. A window is a util::LatencyHistogram (fixed ~8 KiB, exact
/// count/mean/max, quantiles within 1/32) plus a shed counter, so memory
/// grows with the number of tenants, never with the number of requests. The
/// global record merges every window at read time. Queue depth is sampled
/// at admission; sheds are counted per tenant and globally. The JSONL dump —
/// one record per tenant in lexicographic order, then one global record —
/// is what `stats` requests return and what the daemon writes at shutdown,
/// so an SLO regression is a diffable artifact, not a vibe.
///
/// Thread safety: one mutex per ServeStats. Recording is one bucket
/// increment under it; a read walks each window's buckets once, with no
/// sort.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "util/stats.hpp"

namespace decycle::serve {

/// One window's rendered numbers (milliseconds).
struct LatencySnapshot {
  std::uint64_t count = 0;
  std::uint64_t shed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double max_ms = 0.0;
};

struct QueueSnapshot {
  std::uint64_t peak_depth = 0;   ///< max queue depth observed at admission
  std::uint64_t shed_total = 0;   ///< REJECTED overload replies
  std::uint64_t admitted = 0;     ///< requests that entered the queue
};

class ServeStats {
 public:
  /// Records one served request: \p tenant (empty = a control verb, the
  /// control window), latency in milliseconds, and the queue depth seen at
  /// admission.
  void record(std::string_view tenant, double latency_ms, std::size_t depth_at_admit);

  /// Records one shed (REJECTED overload) request.
  void record_shed(std::string_view tenant, std::size_t depth_at_admit);

  [[nodiscard]] LatencySnapshot global() const;
  [[nodiscard]] LatencySnapshot tenant(std::string_view name) const;
  [[nodiscard]] QueueSnapshot queue() const;

  /// One JSONL record per tenant (lexicographic), then a global record
  /// carrying the queue counters; \p extra appends caller fields (engine
  /// session counters, verdict-cache counters) to the global record.
  [[nodiscard]] std::string jsonl(std::string_view extra = {}) const;

 private:
  struct Window {
    util::LatencyHistogram latency;
    std::uint64_t shed = 0;
  };

  Window& window_locked(std::string_view tenant);
  [[nodiscard]] LatencySnapshot global_locked() const;

  mutable std::mutex mutex_;
  Window control_;  ///< requests that name no tenant (control verbs)
  std::map<std::string, Window, std::less<>> tenants_;
  QueueSnapshot queue_;
};

}  // namespace decycle::serve
