#include "trace.hpp"

#include <fstream>
#include <mutex>
#include <set>
#include <unordered_map>

namespace perfbench {

const char* span_name(const std::string& prefix, const std::string& suffix) {
  static std::mutex mutex;
  static std::set<std::string> names;  // node-based: c_str() stays valid
  std::lock_guard lock(mutex);
  return names.insert(prefix + suffix).first->c_str();
}

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t request) : tracer_(tracer) {
  if (!tracer_.enabled_) return;
  Span span;
  span.name = name;
  span.request = request;
  span.id = static_cast<std::uint32_t>(tracer_.spans_.size() + 1);
  span.parent = tracer_.open_.empty() ? 0 : tracer_.open_.back();
  span.thread = tracer_.thread_;
  index_ = tracer_.spans_.size();
  tracer_.spans_.push_back(span);
  tracer_.open_.push_back(span.id);
  tracer_.spans_[index_].start = Clock::now();
}

Tracer::Scope::~Scope() {
  if (!tracer_.enabled_) return;
  tracer_.spans_[index_].end = Clock::now();
  tracer_.open_.pop_back();
}

void Tracer::Scope::rename(const char* name) {
  if (tracer_.enabled_) tracer_.spans_[index_].name = name;
}

std::map<std::string, LayerTime> self_times(const std::vector<Span>& spans) {
  // Children of one parent never overlap (each tracer is one thread's call
  // chain), so the covered time is the sum of the children's durations.
  std::unordered_map<std::uint64_t, double> child_s;
  const auto key = [](std::uint32_t thread, std::uint32_t id) {
    return (static_cast<std::uint64_t>(thread) << 32) | id;
  };
  for (const Span& s : spans) {
    if (s.parent != 0) child_s[key(s.thread, s.parent)] += seconds_between(s.start, s.end);
  }
  std::map<std::string, LayerTime> out;
  for (const Span& s : spans) {
    LayerTime& t = out[s.name];
    ++t.calls;
    const auto it = child_s.find(key(s.thread, s.id));
    t.self_s += seconds_between(s.start, s.end) - (it == child_s.end() ? 0.0 : it->second);
  }
  return out;
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 Clock::time_point origin) {
  std::ofstream out(path, std::ios::binary);
  const auto ns = [origin](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin).count();
  };
  for (const Span& s : spans) {
    out << "{\"name\":\"" << s.name << "\",\"request\":" << s.request << ",\"id\":" << s.id
        << ",\"parent\":" << s.parent << ",\"thread\":" << s.thread
        << ",\"start_ns\":" << ns(s.start) << ",\"end_ns\":" << ns(s.end) << "}\n";
  }
}

}  // namespace perfbench
