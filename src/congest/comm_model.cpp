#include "congest/comm_model.hpp"

#include <algorithm>

#include "congest/node.hpp"
#include "graph/generators.hpp"
#include "util/check.hpp"

namespace decycle::congest {

std::string_view comm_model_kind_name(CommModelKind kind) noexcept {
  switch (kind) {
    case CommModelKind::kCongest: return "congest";
    case CommModelKind::kBroadcastCongest: return "broadcast";
    case CommModelKind::kClique: return "clique";
  }
  return "congest";
}

std::string model_mask_names(std::uint8_t mask) {
  std::string out;
  for (const CommModelKind kind : {CommModelKind::kCongest, CommModelKind::kBroadcastCongest,
                                   CommModelKind::kClique}) {
    if ((mask & model_bit(kind)) == 0) continue;
    if (!out.empty()) out += ", ";
    out += comm_model_kind_name(kind);
  }
  return out;
}

std::optional<graph::Graph> CommModel::build_links(const graph::Graph&) const {
  return std::nullopt;
}

std::optional<graph::Graph> CliqueModel::build_links(const graph::Graph& input) const {
  return graph::complete(input.num_vertices());
}

const CommModel& CommModel::congest() {
  static const CongestModel model;
  return model;
}

const CommModel& CommModel::broadcast() {
  static const BroadcastCongestModel model;
  return model;
}

const CommModel& CommModel::clique() {
  static const CliqueModel model;
  return model;
}

const CommModel* CommModel::find(std::string_view name) noexcept {
  for (const CommModel* m : {&congest(), &broadcast(), &clique()}) {
    if (m->name() == name) return m;
  }
  return nullptr;
}

const CommModel& CommModel::require(std::string_view name) {
  const CommModel* m = find(name);
  DECYCLE_CHECK_MSG(m != nullptr, "unknown communication model '" + std::string(name) +
                                      "' (known: " + known_names() + ")");
  return *m;
}

std::string CommModel::known_names() {
  std::string out;
  for (const CommModel* m : {&congest(), &broadcast(), &clique()}) {
    if (!out.empty()) out += ", ";
    out += m->name();
  }
  return out;
}

// --- Broadcast-CONGEST send-time enforcement (cold path; see node.hpp) -----

void Context::enforce_broadcast(const Message& msg) const {
  if (bandwidth_bits_ != 0 && msg.bit_size() > bandwidth_bits_) {
    DECYCLE_CHECK_MSG(false, "Broadcast-CONGEST violation: node " + std::to_string(vertex_) +
                                 " sent a " + std::to_string(msg.bit_size()) +
                                 "-bit message in round " + std::to_string(round_) +
                                 ", the model's broadcast budget is B=" +
                                 std::to_string(bandwidth_bits_) + " bits");
  }
  if (out_meta_->size() > step_out_base_) {
    const OutMeta& head = (*out_meta_)[step_out_base_];
    const Payload first(out_slab_->data() + head.offset, head.bytes);
    const auto cur = msg.bytes();
    const bool identical =
        first.size() == cur.size() && std::equal(first.begin(), first.end(), cur.begin());
    DECYCLE_CHECK_MSG(identical,
                      "Broadcast-CONGEST violation: node " + std::to_string(vertex_) +
                          " sent two different messages in round " + std::to_string(round_) +
                          " (the model grants one identical broadcast per node per round)");
  }
}

}  // namespace decycle::congest
