#include "core/census.hpp"

#include <utility>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace decycle::core {

CensusResult cycle_census(const graph::Graph& g, const graph::IdAssignment& ids,
                          const CensusOptions& options) {
  DECYCLE_CHECK_MSG(options.k_min >= 3, "census k_min must be at least 3");
  DECYCLE_CHECK_MSG(options.k_min <= options.k_max, "census range is empty");

  // One Simulator serves every k: the tester resets it with fresh
  // programs, which is bit-identical to a fresh build per k.
  const Detector& tester = DetectorRegistry::builtin().require("tester");
  congest::Simulator sim(g, ids);
  DetectorOptions topt;
  topt.epsilon = options.epsilon;
  topt.repetitions = options.repetitions;
  topt.detect = options.detect;
  topt.pool = options.pool;

  CensusResult out;
  out.entries.reserve(options.k_max - options.k_min + 1);
  for (unsigned k = options.k_min; k <= options.k_max; ++k) {
    topt.k = k;
    topt.seed = util::splitmix64(options.seed ^ util::splitmix64(k));
    Verdict verdict = tester.run(sim, topt);

    CensusEntry entry;
    entry.k = k;
    entry.accepted = verdict.accepted;
    entry.witness = std::move(verdict.witness);
    entry.rounds = verdict.stats.rounds_executed;
    entry.messages = verdict.stats.total_messages;
    entry.bits = verdict.stats.total_bits;
    out.total_rounds += entry.rounds;
    out.total_messages += entry.messages;
    out.entries.push_back(std::move(entry));
  }
  return out;
}

}  // namespace decycle::core
