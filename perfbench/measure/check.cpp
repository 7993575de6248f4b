#include "check.hpp"

#include <algorithm>
#include <charconv>

#include "common.hpp"

namespace perfbench {

using decycle::graph::Vertex;

namespace {

/// Value of the first " key=" token of \p reply (up to the next space).
std::optional<std::string_view> field(std::string_view reply, std::string_view key) {
  const std::string needle = " " + std::string(key) + "=";
  const std::size_t at = reply.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::string_view value = reply.substr(at + needle.size());
  return value.substr(0, value.find(' '));
}

template <class T>
std::optional<T> number(std::string_view text) {
  T value{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::string clip(std::string_view reply) {
  return std::string(reply.substr(0, std::min<std::size_t>(reply.size(), 160)));
}

std::string check_witness(const QueryReply& q, unsigned k, const TenantGraph& graph) {
  const std::vector<Vertex>& w = q.witness;
  if (w.size() != k) {
    return "witness has " + std::to_string(w.size()) + " vertices, expected k=" + std::to_string(k);
  }
  std::vector<Vertex> sorted = w;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return "witness repeats a vertex (not a simple cycle)";
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    const Vertex u = w[i];
    const Vertex v = w[(i + 1) % w.size()];
    if (!graph.has_edge(u, v)) {
      return "witness edge " + std::to_string(u) + "-" + std::to_string(v) +
             " is not in the tenant's graph";
    }
  }
  return {};
}

}  // namespace

std::optional<QueryReply> parse_query_reply(std::string_view reply) {
  if (reply.rfind("OK query ", 0) != 0) return std::nullopt;
  const auto accepted = field(reply, "accepted");
  const auto rounds = field(reply, "rounds");
  const auto witness = field(reply, "witness");
  if (!accepted || !rounds || !witness || (*accepted != "0" && *accepted != "1")) {
    return std::nullopt;
  }
  QueryReply out;
  out.accepted = *accepted == "1";
  const auto r = number<std::uint64_t>(*rounds);
  if (!r) return std::nullopt;
  out.rounds = *r;
  if (*witness != "-") {
    std::string_view rest = *witness;
    while (!rest.empty()) {
      const std::size_t dash = rest.find('-');
      const auto v = number<Vertex>(rest.substr(0, dash));
      if (!v) return std::nullopt;
      out.witness.push_back(*v);
      if (dash == std::string_view::npos) break;
      rest.remove_prefix(dash + 1);
    }
  }
  return out;
}

std::string check_reply(const Op& op, std::string_view reply, const TenantGraph& graph) {
  if (reply.rfind("ERROR", 0) == 0) return "ERROR reply: " + clip(reply);
  if (reply.rfind("REJECTED", 0) == 0) return "REJECTED reply: " + clip(reply);
  if (op.kind == Op::Kind::kInsert) {
    const auto applied = reply.rfind("OK insert ", 0) == 0 ? field(reply, "applied") : std::nullopt;
    if (!applied || number<std::size_t>(*applied) != op.edges) {
      return "insert reply does not apply the batch: " + clip(reply);
    }
    return {};
  }
  const std::optional<QueryReply> q = parse_query_reply(reply);
  if (!q) return "malformed query reply: " + clip(reply);
  if (q->accepted) {
    return q->witness.empty() ? std::string{} : "accepting reply carries a witness: " + clip(reply);
  }
  if (std::string err = check_witness(*q, op.k, graph); !err.empty()) {
    return err + " (" + op.payload + " -> " + clip(reply) + ")";
  }
  return {};
}

std::string check_create_reply(std::string_view reply, const TenantGraph& graph) {
  if (reply.rfind("OK create ", 0) != 0) return "create failed: " + clip(reply);
  const auto n = field(reply, "n");
  const auto m = field(reply, "m");
  if (!n || !m || number<std::size_t>(*n) != graph.num_vertices() ||
      number<std::size_t>(*m) != graph.num_edges()) {
    return "create reply disagrees with the rebuilt family graph (n=" +
           std::to_string(graph.num_vertices()) + " m=" + std::to_string(graph.num_edges()) +
           "): " + clip(reply);
  }
  return {};
}

std::string check_digests(const std::vector<std::string>& tenants,
                          const std::vector<std::uint64_t>& daemon,
                          const std::vector<std::uint64_t>& replay) {
  if (daemon.size() != replay.size() || daemon.size() != tenants.size()) {
    return "digest count mismatch";
  }
  for (std::size_t i = 0; i < daemon.size(); ++i) {
    if (daemon[i] != replay[i]) {
      return "tenant " + tenants[i] + ": daemon reply digest " + hex64(daemon[i]) +
             " != replay digest " + hex64(replay[i]);
    }
  }
  return {};
}

}  // namespace perfbench
