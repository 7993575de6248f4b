/// \file check.hpp
/// \brief Correctness checks on live replies.
///
/// Every check returns an empty string when the reply is correct and a
/// reason otherwise; the caller counts a non-empty reason as a failed
/// operation. A rejecting query reply must carry a witness that is a simple
/// cycle of exactly k vertices in the tenant's current graph — the paper's
/// 1-sided-error guarantee, checked on live traffic.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "workload.hpp"

namespace perfbench {

struct QueryReply {
  bool accepted = true;
  std::uint64_t rounds = 0;
  std::vector<decycle::graph::Vertex> witness;
};

/// Parses "OK query accepted=.. rejecting=.. reps=.. rounds=.. witness=..";
/// nullopt when the reply does not have that shape.
[[nodiscard]] std::optional<QueryReply> parse_query_reply(std::string_view reply);

/// Checks one reply to \p op against the tenant's current \p graph.
[[nodiscard]] std::string check_reply(const Op& op, std::string_view reply,
                                      const TenantGraph& graph);

/// Checks a create reply: OK, and n/m equal to the benchmark's own rebuild.
[[nodiscard]] std::string check_create_reply(std::string_view reply, const TenantGraph& graph);

/// Compares the per-tenant reply digests of the daemon run and the replay.
[[nodiscard]] std::string check_digests(const std::vector<std::string>& tenants,
                                        const std::vector<std::uint64_t>& daemon,
                                        const std::vector<std::uint64_t>& replay);

}  // namespace perfbench
