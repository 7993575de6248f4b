#include "workload.hpp"

#include <iterator>
#include <span>
#include <stdexcept>

#include "lab/scenario.hpp"
#include "util/hash.hpp"

namespace perfbench {

using decycle::graph::Vertex;

namespace {

std::uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

// Seed-stream tags, so timed, warm-up and hit-set draws never share a stream.
constexpr std::uint64_t kTimedTag = 0x74696d6564ULL;  // "timed"
constexpr std::uint64_t kWarmTag = 0x7761726dULL;     // "warm"

}  // namespace

Workload parse_workload(const std::string& name) {
  if (name == "serve_miss") return Workload::kServeMiss;
  if (name == "serve_hit") return Workload::kServeHit;
  if (name == "serve_mutate") return Workload::kServeMutate;
  if (name == "lab_250k") return Workload::kLab;
  throw std::invalid_argument("unknown workload '" + name +
                              "'; known: serve_miss, serve_hit, serve_mutate, lab_250k");
}

std::vector<TenantSpec> serving_tenants(bool smoke) {
  const Vertex n = smoke ? 1000 : 10000;
  return {
      {"t_gnm", "gnm", n, 5, 11},
      {"t_regular", "regular", n, 5, 12},
      {"t_cycle", "cycle", n, 5, 13},
      {"t_planted", "planted", n, 5, 14},
  };
}

std::string create_payload(const TenantSpec& t) {
  return "create tenant=" + t.name + " n=" + std::to_string(t.n) + " family=" + t.family +
         " k=" + std::to_string(t.k) + " seed=" + std::to_string(t.family_seed);
}

TenantGraph::TenantGraph(const TenantSpec& spec) {
  // Exactly the daemon's create path: same cell fields, same seed stream.
  decycle::lab::ScenarioCell cell;
  cell.family = spec.family;
  cell.k = spec.k;
  cell.n = spec.n;
  decycle::util::Rng rng(decycle::util::hash_combine(spec.family_seed, 0x5e54e5e4ULL));
  base_ = decycle::lab::build_topology(cell, rng).graph;
  n_ = base_.num_vertices();
}

bool TenantGraph::has_edge(Vertex u, Vertex v) const {
  if (u >= n_ || v >= n_ || u == v) return false;
  return base_.has_edge(u, v) || added_.contains(edge_key(u, v));
}

void TenantGraph::add(Vertex u, Vertex v) { added_.insert(edge_key(u, v)); }

Stream::Stream(Workload workload, std::uint64_t seed, std::size_t tenant_index,
               std::string tenant, TenantGraph& graph)
    : workload_(workload),
      tenant_(std::move(tenant)),
      graph_(graph),
      rng_(decycle::util::hash_combine(decycle::util::hash_combine(seed, tenant_index), kTimedTag)),
      warm_rng_(decycle::util::hash_combine(decycle::util::hash_combine(seed, tenant_index),
                                            kWarmTag)) {
  if (workload_ == Workload::kServeHit) {
    // 64 distinct cheap queries; the timed phase replays them uniformly.
    static constexpr std::pair<const char*, unsigned> kCheap[] = {
        {"edge_checker", 5}, {"triangle", 3}, {"c4", 4}};
    for (std::size_t i = 0; i < kHitSetSize; ++i) {
      const auto [algo, k] = kCheap[i % 3];
      hit_set_.push_back(query(algo, k, warm_rng_));
    }
  }
}

Op Stream::query(const char* algo, unsigned k, decycle::util::Rng& rng) const {
  Op op;
  op.algo = algo;
  op.k = k;
  op.payload = "query tenant=" + tenant_ + " algo=" + algo + " k=" + std::to_string(k) +
               " eps=0.5 seed=" + std::to_string(rng() >> 1);
  return op;
}

Op Stream::miss_query() {
  // The mix, exact per block of 30 and shuffled by the seed: 80% tester
  // (k = 4, 5, 6 equally), 10% threshold k=5, 10% edge_checker k=5, all at
  // eps=0.5. Every query draws a fresh seed, so every one misses the cache.
  if (block_.empty()) {
    for (unsigned k = 4; k <= 6; ++k) block_.insert(block_.end(), 8, {"tester", k});
    block_.insert(block_.end(), 3, {"threshold", 5});
    block_.insert(block_.end(), 3, {"edge_checker", 5});
    rng_.shuffle(std::span(block_));
  }
  const auto [algo, k] = block_.back();
  block_.pop_back();
  return query(algo, k, rng_);
}

Op Stream::insert_batch(decycle::util::Rng& rng) {
  Op op;
  op.kind = Op::Kind::kInsert;
  op.edges = kInsertBatch;
  op.payload = "insert tenant=" + tenant_ + " edges=";
  const Vertex n = graph_.num_vertices();
  for (std::size_t i = 0; i < kInsertBatch; ++i) {
    Vertex u = 0;
    Vertex v = 0;
    do {
      u = static_cast<Vertex>(rng.next_below(n));
      v = static_cast<Vertex>(rng.next_below(n));
    } while (u == v || graph_.has_edge(u, v));
    graph_.add(u, v);
    if (i != 0) op.payload.push_back(',');
    op.payload += std::to_string(u) + "-" + std::to_string(v);
  }
  return op;
}

std::optional<Op> Stream::next_warmup() {
  const std::size_t j = warm_next_++;
  if (workload_ == Workload::kServeHit) {
    return j < hit_set_.size() ? std::optional(hit_set_[j]) : std::nullopt;
  }
  // One query of each kind in the mix (each after an insert on serve_mutate),
  // so every detector's session and arenas are warm.
  static constexpr std::pair<const char*, unsigned> kMix[] = {
      {"tester", 4}, {"tester", 5}, {"tester", 6}, {"threshold", 5}, {"edge_checker", 5}};
  const std::size_t per_query = workload_ == Workload::kServeMutate ? 2 : 1;
  if (j >= std::size(kMix) * per_query) return std::nullopt;
  if (per_query == 2 && j % 2 == 0) return insert_batch(warm_rng_);
  const auto [algo, k] = kMix[j / per_query];
  return query(algo, k, warm_rng_);
}

Op Stream::next() {
  switch (workload_) {
    case Workload::kServeHit:
      return hit_set_[rng_.next_below(hit_set_.size())];
    case Workload::kServeMutate: {
      const bool is_query = query_next_;
      query_next_ = !query_next_;
      return is_query ? miss_query() : insert_batch(rng_);
    }
    default:
      return miss_query();
  }
}

}  // namespace perfbench
