/// \file workload.hpp
/// \brief The serving workloads' tenants and request streams.
///
/// Every request the daemon sees is generated here from the workload seed.
/// The benchmark keeps its own copy of each tenant's graph (TenantGraph):
/// the family graph rebuilt exactly as the daemon builds it, plus every edge
/// the benchmark inserted. Insert batches are drawn against that copy, so
/// they are duplicate-free, and rejecting replies are checked against it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

enum class Workload : std::uint8_t { kServeMiss, kServeHit, kServeMutate, kLab };

/// Parses a workload name; throws std::invalid_argument naming the known ones.
[[nodiscard]] Workload parse_workload(const std::string& name);

struct TenantSpec {
  std::string name;
  std::string family;
  decycle::graph::Vertex n = 0;
  unsigned k = 5;
  std::uint64_t family_seed = 1;
};

/// The four serving tenants: gnm, regular, cycle and planted at n = 10k
/// (n = 1k in smoke mode), k = 5, fixed family seeds.
[[nodiscard]] std::vector<TenantSpec> serving_tenants(bool smoke);

[[nodiscard]] std::string create_payload(const TenantSpec& t);

/// The benchmark's own copy of one tenant's current graph.
class TenantGraph {
 public:
  explicit TenantGraph(const TenantSpec& spec);

  [[nodiscard]] decycle::graph::Vertex num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return base_.num_edges() + added_.size(); }
  [[nodiscard]] bool has_edge(decycle::graph::Vertex u, decycle::graph::Vertex v) const;
  void add(decycle::graph::Vertex u, decycle::graph::Vertex v);

 private:
  decycle::graph::Vertex n_ = 0;
  decycle::graph::Graph base_;
  std::unordered_set<std::uint64_t> added_;
};

/// One request of a stream.
struct Op {
  enum class Kind : std::uint8_t { kQuery, kInsert } kind = Kind::kQuery;
  std::string payload;
  std::string algo;          ///< query only
  unsigned k = 0;            ///< query only
  std::size_t edges = 0;     ///< insert only: batch size
};

/// The deterministic request stream of one tenant under one workload. Each
/// drawn insert is added to \p graph as it is drawn, and ops are drawn one at
/// a time just before they are sent, so the graph always matches what the
/// daemon holds once the op has been answered.
class Stream {
 public:
  static constexpr std::size_t kHitSetSize = 64;
  static constexpr std::size_t kInsertBatch = 8;

  Stream(Workload workload, std::uint64_t seed, std::size_t tenant_index, std::string tenant,
         TenantGraph& graph);

  /// The next request sent after create and before the timed phase;
  /// nullopt once the warm-up is done.
  [[nodiscard]] std::optional<Op> next_warmup();
  /// The next timed request.
  [[nodiscard]] Op next();

 private:
  [[nodiscard]] Op query(const char* algo, unsigned k, decycle::util::Rng& rng) const;
  [[nodiscard]] Op miss_query();
  [[nodiscard]] Op insert_batch(decycle::util::Rng& rng);

  Workload workload_;
  std::string tenant_;
  TenantGraph& graph_;
  decycle::util::Rng rng_;
  decycle::util::Rng warm_rng_;
  std::vector<Op> hit_set_;
  std::vector<std::pair<const char*, unsigned>> block_;  ///< rest of the current mix block
  std::size_t warm_next_ = 0;
  bool query_next_ = false;  ///< serve_mutate alternates insert, query
};

}  // namespace perfbench
