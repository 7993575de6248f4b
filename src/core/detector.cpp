#include "core/detector.hpp"

#include <memory>

#include "baselines/c4_tester.hpp"
#include "baselines/clique_hcycle.hpp"
#include "baselines/color_coding.hpp"
#include "baselines/triangle_chs.hpp"
#include "core/cycle_detector.hpp"
#include "core/tester.hpp"
#include "core/threshold/threshold_tester.hpp"
#include "core/witness.hpp"
#include "util/check.hpp"

namespace decycle::core {

const congest::CommModel& default_comm_model(const DetectorCapabilities& caps) {
  // Congest first: the historical default, and the choice that keeps every
  // pre-model run_fresh call byte-identical.
  if (supports_model(caps, congest::CommModelKind::kCongest)) return congest::CommModel::congest();
  if (supports_model(caps, congest::CommModelKind::kClique)) return congest::CommModel::clique();
  return congest::CommModel::broadcast();
}

Verdict Detector::run_fresh(const graph::Graph& g, const graph::IdAssignment& ids,
                            const DetectorOptions& options) const {
  congest::Simulator sim(g, ids, default_comm_model(capabilities()));
  return run(sim, options);
}

std::uint64_t Detector::counter(const Verdict& v, std::string_view name) const {
  const std::span<const CounterDef> defs = counters();
  for (std::size_t c = 0; c < defs.size() && c < v.counters.size(); ++c) {
    if (defs[c].name == name) return v.counters[c];
  }
  DECYCLE_CHECK_MSG(false, "detector '" + std::string(this->name()) + "' has no counter '" +
                               std::string(name) + "'");
  return 0;
}

congest::Simulator::Options simulator_options(const DetectorOptions& options,
                                              std::uint64_t max_rounds) {
  return {.max_rounds = max_rounds,
          .record_rounds = options.record_rounds,
          .pool = options.pool,
          .drop = options.drop,
          .delivery = options.delivery};
}

std::vector<graph::Vertex> witness_vertices(const congest::Simulator& sim,
                                            const DetectorOptions& options,
                                            std::span<const graph::NodeId> cycle_ids) {
  if (options.validate_witnesses) {
    return validated_witness_vertices(sim.graph(), sim.ids(), cycle_ids);
  }
  std::vector<graph::Vertex> out;
  out.reserve(cycle_ids.size());
  for (const graph::NodeId id : cycle_ids) out.push_back(sim.ids().vertex_of(id));
  return out;
}

std::string capability_line(const Detector& d) {
  const DetectorCapabilities& caps = d.capabilities();
  std::string out(d.name());
  out += ": k in [" + std::to_string(caps.min_k) + ", " + std::to_string(caps.max_k) + "]";
  std::string knobs = "reps";
  if (caps.uses_epsilon) knobs += ", eps";
  if (caps.uses_threshold_knobs) knobs += ", budget, track";
  if (!caps.has_repetitions) knobs = "none";
  out += "; knobs: " + knobs;
  if (caps.draws_edge) out += "; draws one target edge per run";
  out += caps.distributed ? "; distributed" : "; centralized";
  if (caps.distributed && caps.simulator_reuse) out += ", simulator-reuse";
  out += "; models: " + congest::model_mask_names(caps.models);
  out += " — ";
  out += caps.summary;
  return out;
}

const DetectorRegistry& DetectorRegistry::builtin() {
  // Registration happens here, explicitly and in fixed order, rather than
  // via static self-registration objects: those are silently dropped when
  // the library is linked statically and nothing references their
  // translation unit.
  static const DetectorRegistry registry = [] {
    DetectorRegistry r;
    r.add(std::make_unique<TesterDetector>());
    r.add(std::make_unique<EdgeCheckerDetector>());
    r.add(std::make_unique<threshold::ThresholdDetector>());
    r.add(std::make_unique<baselines::C4Detector>());
    r.add(std::make_unique<baselines::TriangleDetector>());
    r.add(std::make_unique<baselines::ColorCodingDetector>());
    r.add(std::make_unique<baselines::CliqueHCycleDetector>());
    return r;
  }();
  return registry;
}

void DetectorRegistry::add(std::unique_ptr<Detector> detector) {
  DECYCLE_CHECK_MSG(detector != nullptr, "cannot register a null detector");
  const std::string_view name = detector->name();
  DECYCLE_CHECK_MSG(!name.empty(), "detector name must be non-empty");
  DECYCLE_CHECK_MSG(find(name) == nullptr,
                    "detector '" + std::string(name) + "' is already registered");
  DECYCLE_CHECK_MSG(detector->capabilities().min_k <= detector->capabilities().max_k,
                    "detector '" + std::string(name) + "' has an empty k range");
  order_.push_back(detector.get());
  owned_.push_back(std::move(detector));
}

const Detector* DetectorRegistry::find(std::string_view name) const noexcept {
  for (const Detector* d : order_) {
    if (d->name() == name) return d;
  }
  return nullptr;
}

const Detector& DetectorRegistry::require(std::string_view name) const {
  const Detector* d = find(name);
  DECYCLE_CHECK_MSG(d != nullptr, "unknown detection algorithm '" + std::string(name) +
                                      "' (known: " + known_names() + ")");
  return *d;
}

std::string DetectorRegistry::known_names() const {
  std::string out;
  for (const Detector* d : order_) {
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::names_supporting_k(unsigned k) const {
  std::string out;
  for (const Detector* d : order_) {
    const DetectorCapabilities& caps = d->capabilities();
    if (k < caps.min_k || k > caps.max_k) continue;
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::names_supporting_model(congest::CommModelKind kind) const {
  std::string out;
  for (const Detector* d : order_) {
    if (!supports_model(d->capabilities(), kind)) continue;
    if (!out.empty()) out += ", ";
    out += d->name();
  }
  return out;
}

std::string DetectorRegistry::validate_model(const Detector& d,
                                             const congest::CommModel& model) const {
  const DetectorCapabilities& caps = d.capabilities();
  if (supports_model(caps, model.kind())) return {};
  std::string msg = "algorithm '" + std::string(d.name()) + "' runs under models [" +
                    congest::model_mask_names(caps.models) + "], got model '" +
                    std::string(model.name()) + "'";
  const std::string alternatives = names_supporting_model(model.kind());
  msg += alternatives.empty() ? " (no registered algorithm accepts this model)"
                              : " (algorithms accepting model=" + std::string(model.name()) +
                                    ": " + alternatives + ")";
  return msg;
}

std::string DetectorRegistry::validate_k(const Detector& d, unsigned k) const {
  const DetectorCapabilities& caps = d.capabilities();
  if (k >= caps.min_k && k <= caps.max_k) return {};
  std::string msg = "algorithm '" + std::string(d.name()) + "' supports k in [" +
                    std::to_string(caps.min_k) + ", " + std::to_string(caps.max_k) +
                    "], got k=" + std::to_string(k);
  const std::string alternatives = names_supporting_k(k);
  msg += alternatives.empty() ? " (no registered algorithm accepts this k)"
                              : " (algorithms accepting k=" + std::to_string(k) + ": " +
                                    alternatives + ")";
  return msg;
}

}  // namespace decycle::core
