#include "core/pruning.hpp"

#include <algorithm>
#include <limits>
#include <unordered_set>

#include "core/representative_family.hpp"
#include "util/check.hpp"

namespace decycle::core {

const char* pruning_mode_name(PruningMode mode) noexcept {
  switch (mode) {
    case PruningMode::kRepresentative: return "representative";
    case PruningMode::kReference: return "reference";
    case PruningMode::kNaive: return "naive";
  }
  return "?";
}

std::uint64_t lemma3_bound(unsigned k, unsigned t) noexcept {
  // (k - t + 1)^(t - 1), saturating.
  const std::uint64_t base = k - t + 1;
  std::uint64_t acc = 1;
  for (unsigned i = 1; i < t; ++i) {
    if (acc > std::numeric_limits<std::uint64_t>::max() / base) {
      return std::numeric_limits<std::uint64_t>::max();
    }
    acc *= base;
  }
  return acc;
}

namespace {

void validate_candidates(std::span<const IdSeq> candidates, unsigned t, unsigned k) {
  DECYCLE_CHECK_MSG(t >= 2 && t <= k / 2, "pruning round t out of range");
  for (const IdSeq& c : candidates) {
    DECYCLE_CHECK_MSG(c.size() == t - 1, "candidate sequence has wrong length for round t");
  }
}

class RepresentativePruner final : public Pruner {
 public:
  explicit RepresentativePruner(const PrunerConfig& cfg) : cfg_(cfg) {}

  Result select(std::span<const IdSeq> candidates, unsigned t) override {
    Result out;
    out.accepted.assign(candidates.begin(), candidates.end());
    prune_representative(out.accepted, cfg_.k, t, cfg_.fake_ids);
    return out;
  }

 private:
  PrunerConfig cfg_;
};

/// Signed IDs so the fake IDs {-1, ..., -(k-t)} of Instruction 14 are
/// representable verbatim.
using SignedId = std::int64_t;

class ReferencePruner final : public Pruner {
 public:
  explicit ReferencePruner(const PrunerConfig& cfg) : cfg_(cfg) {}

  Result select(std::span<const IdSeq> candidates, unsigned t) override {
    validate_candidates(candidates, t, cfg_.k);
    const unsigned q = cfg_.k - t;

    // I ← IDs present in R, plus the fake IDs (Instruction 13-14).
    std::vector<SignedId> universe;
    {
      std::unordered_set<NodeId> distinct;
      for (const IdSeq& c : candidates) distinct.insert(c.begin(), c.end());
      universe.reserve(distinct.size() + q);
      for (const NodeId id : distinct) {
        DECYCLE_CHECK_MSG(id <= static_cast<NodeId>(std::numeric_limits<SignedId>::max()),
                          "reference pruner supports IDs < 2^63");
        universe.push_back(static_cast<SignedId>(id));
      }
      if (cfg_.fake_ids) {
        for (unsigned f = 1; f <= q; ++f) universe.push_back(-static_cast<SignedId>(f));
      }
      std::sort(universe.begin(), universe.end());
    }

    Result out;
    if (universe.size() < q) return out;  // 𝒳 empty: nothing can be accepted

    // 𝒳 ← all q-subsets of I (Instruction 15), with a guard against misuse.
    double subsets = 1.0;
    for (unsigned i = 0; i < q; ++i) {
      subsets *= static_cast<double>(universe.size() - i) / static_cast<double>(i + 1);
    }
    DECYCLE_CHECK_MSG(subsets <= static_cast<double>(cfg_.reference_subset_cap),
                      "reference pruner: |X| too large; use RepresentativePruner");

    std::vector<std::vector<SignedId>> pool;
    pool.reserve(static_cast<std::size_t>(subsets) + 1);
    std::vector<std::size_t> idx(q);
    for (unsigned i = 0; i < q; ++i) idx[i] = i;
    while (true) {
      std::vector<SignedId> subset(q);
      for (unsigned i = 0; i < q; ++i) subset[i] = universe[idx[i]];
      pool.push_back(std::move(subset));
      // next combination
      std::size_t pos = q;
      while (pos > 0 && idx[pos - 1] == universe.size() - q + (pos - 1)) --pos;
      if (pos == 0) break;
      ++idx[pos - 1];
      for (std::size_t j = pos; j < q; ++j) idx[j] = idx[j - 1] + 1;
    }

    std::vector<char> alive(pool.size(), 1);
    const auto intersects = [](const std::vector<SignedId>& set, const IdSeq& seq) {
      for (const NodeId raw : seq) {
        const auto id = static_cast<SignedId>(raw);
        if (std::binary_search(set.begin(), set.end(), id)) return true;
      }
      return false;
    };

    // Instructions 17-23: accept L when some surviving X is disjoint from it;
    // then retire every such X.
    for (const IdSeq& candidate : candidates) {
      bool any = false;
      for (std::size_t x = 0; x < pool.size(); ++x) {
        if (!alive[x]) continue;
        if (!intersects(pool[x], candidate)) {
          alive[x] = 0;
          any = true;
        }
      }
      if (any) out.accepted.push_back(candidate);
    }
    return out;
  }

 private:
  PrunerConfig cfg_;
};

class PassThroughPruner final : public Pruner {
 public:
  explicit PassThroughPruner(const PrunerConfig& cfg) : cfg_(cfg) {}

  Result select(std::span<const IdSeq> candidates, unsigned t) override {
    validate_candidates(candidates, t, cfg_.k);
    Result out;
    const std::size_t keep = std::min(candidates.size(), cfg_.naive_cap);
    out.accepted.assign(candidates.begin(), candidates.begin() + static_cast<std::ptrdiff_t>(keep));
    out.overflow = keep < candidates.size();
    return out;
  }

 private:
  PrunerConfig cfg_;
};

}  // namespace

void prune_representative(std::vector<IdSeq>& family, unsigned k, unsigned t, bool fake_ids) {
  validate_candidates(family, t, k);
  const unsigned q = k - t;  // |X| — the completion-set size

  if (!fake_ids) {
    // Without Instruction 14 the completion set must consist of real IDs
    // from I; |I \ L| = |I| - (t-1) must reach q at all, or nothing is
    // accepted. Distinct IDs are counted in a reused per-thread scratch.
    thread_local std::vector<NodeId> ids;
    ids.clear();
    for (const IdSeq& c : family) ids.insert(ids.end(), c.begin(), c.end());
    std::sort(ids.begin(), ids.end());
    const auto universe =
        static_cast<std::size_t>(std::unique(ids.begin(), ids.end()) - ids.begin());
    if (universe < (t - 1) + static_cast<std::size_t>(q)) {
      family.clear();
      return;
    }
  }

  // Accepted candidates are compacted to the front as the scan goes: the
  // accepted prefix [0, kept) is the family F the hitting-set test needs,
  // and the candidate under test always sits at or after it.
  std::size_t kept = 0;
  for (std::size_t i = 0; i < family.size(); ++i) {
    if (!exists_bounded_hitting_set(std::span<const IdSeq>(family.data(), kept), family[i], q)) {
      continue;
    }
    if (kept != i) family[kept] = std::move(family[i]);
    ++kept;
  }
  family.erase(family.begin() + static_cast<std::ptrdiff_t>(kept), family.end());
}

std::unique_ptr<Pruner> make_pruner(PruningMode mode, const PrunerConfig& config) {
  DECYCLE_CHECK_MSG(config.k >= 3, "k must be at least 3");
  switch (mode) {
    case PruningMode::kRepresentative: return std::make_unique<RepresentativePruner>(config);
    case PruningMode::kReference: return std::make_unique<ReferencePruner>(config);
    case PruningMode::kNaive: return std::make_unique<PassThroughPruner>(config);
  }
  DECYCLE_CHECK_MSG(false, "unknown pruning mode");
  return nullptr;
}

}  // namespace decycle::core
