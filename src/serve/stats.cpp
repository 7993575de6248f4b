#include "serve/stats.hpp"

#include <algorithm>

#include "lab/json.hpp"

namespace decycle::serve {

namespace {

LatencySnapshot snapshot(const util::LatencyHistogram& latency, std::uint64_t shed) {
  LatencySnapshot out;
  out.count = latency.count();
  out.shed = shed;
  out.p50_ms = latency.quantile(0.50);
  out.p95_ms = latency.quantile(0.95);
  out.p99_ms = latency.quantile(0.99);
  out.mean_ms = latency.mean();
  out.max_ms = latency.max();
  return out;
}

void write_latency(lab::JsonWriter& json, const LatencySnapshot& snap) {
  json.field("count", snap.count);
  json.field("shed", snap.shed);
  json.field("p50_ms", snap.p50_ms);
  json.field("p95_ms", snap.p95_ms);
  json.field("p99_ms", snap.p99_ms);
  json.field("mean_ms", snap.mean_ms);
  json.field("max_ms", snap.max_ms);
}

}  // namespace

ServeStats::Window& ServeStats::window_locked(std::string_view tenant) {
  if (tenant.empty()) return control_;
  auto it = tenants_.find(tenant);
  if (it == tenants_.end()) it = tenants_.emplace(std::string(tenant), Window{}).first;
  return it->second;
}

void ServeStats::record(std::string_view tenant, double latency_ms, std::size_t depth_at_admit) {
  std::lock_guard lock(mutex_);
  window_locked(tenant).latency.add(latency_ms);
  ++queue_.admitted;
  queue_.peak_depth = std::max<std::uint64_t>(queue_.peak_depth, depth_at_admit);
}

void ServeStats::record_shed(std::string_view tenant, std::size_t depth_at_admit) {
  std::lock_guard lock(mutex_);
  ++window_locked(tenant).shed;
  ++queue_.shed_total;
  queue_.peak_depth = std::max<std::uint64_t>(queue_.peak_depth, depth_at_admit);
}

LatencySnapshot ServeStats::global_locked() const {
  util::LatencyHistogram all = control_.latency;
  for (const auto& [name, window] : tenants_) all.merge(window.latency);
  return snapshot(all, queue_.shed_total);
}

LatencySnapshot ServeStats::global() const {
  std::lock_guard lock(mutex_);
  return global_locked();
}

LatencySnapshot ServeStats::tenant(std::string_view name) const {
  std::lock_guard lock(mutex_);
  const auto it = tenants_.find(name);
  if (it == tenants_.end()) return {};
  return snapshot(it->second.latency, it->second.shed);
}

QueueSnapshot ServeStats::queue() const {
  std::lock_guard lock(mutex_);
  return queue_;
}

std::string ServeStats::jsonl(std::string_view extra) const {
  std::lock_guard lock(mutex_);
  std::string out;
  for (const auto& [name, window] : tenants_) {
    lab::JsonWriter json;
    json.begin_object();
    json.field("record", "tenant");
    json.field("tenant", name);
    write_latency(json, snapshot(window.latency, window.shed));
    json.end_object();
    out += std::move(json).str();
    out.push_back('\n');
  }
  lab::JsonWriter json;
  json.begin_object();
  json.field("record", "global");
  write_latency(json, global_locked());
  json.field("queue_peak_depth", queue_.peak_depth);
  json.field("admitted", queue_.admitted);
  json.field("shed_total", queue_.shed_total);
  json.end_object();
  out += std::move(json).str();
  if (!extra.empty()) {
    // Splice caller fields into the global record: "…}" + ",extra}".
    out.pop_back();
    out.push_back(',');
    out.append(extra);
    out.push_back('}');
  }
  out.push_back('\n');
  return out;
}

}  // namespace decycle::serve
