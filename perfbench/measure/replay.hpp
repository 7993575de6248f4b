/// \file replay.hpp
/// \brief In-process replay of a serving run, with spans around each layer.
///
/// The replay sends each tenant's recorded request sequence, closed-loop and
/// one thread per tenant (the daemon run's concurrency), through the same
/// module calls the daemon makes: FrameReader, parse_request, SessionPool::
/// purge, IncrementalSession::apply/checkpoint, SessionPool::lease,
/// Detector::run, format_verdict and encode_frame. Its per-tenant reply
/// digests must equal the daemon's — the serving determinism contract.
/// Spans cover the timed requests only; a long stream is sampled with a
/// stride so a run keeps at most a few thousand traced requests per tenant.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {

struct ReplayTenant {
  TenantSpec spec;
  std::vector<std::string> payloads;  ///< every request after create, in order
  std::size_t timed_begin = 0;        ///< index of the first timed request
  std::size_t trace_stride = 1;       ///< trace every stride-th timed request
};

/// Verdict statistics of one detector over the replay's detector runs.
struct AlgoStats {
  std::uint64_t runs = 0;
  std::uint64_t rejections = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t rounds = 0;
  std::uint64_t max_link_bits = 0;  ///< summed per run (divide by runs)
};

struct ReplayResult {
  std::vector<std::uint64_t> digests;  ///< per tenant: create reply + every reply
  std::vector<Span> spans;             ///< every thread's spans
  std::vector<double> timed_query_ms;  ///< in-process latency of timed queries
  std::map<std::string, AlgoStats> algos;
  std::uint64_t dirty_checkpoints = 0;
  Clock::time_point origin;
};

[[nodiscard]] ReplayResult replay(const std::vector<ReplayTenant>& tenants, bool traced);

}  // namespace perfbench
