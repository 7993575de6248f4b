/// \file common.hpp
/// \brief Shared types of perfbench_measure: run configuration, named
/// metrics, order statistics, digests, /proc process accounting and host
/// CPU steal.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One measurement with its unit.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// What one workload run hands back to main(): every metric it measured
/// (main prints the end-to-end or the per-layer set) plus the operation
/// accounting that makes up failed_frac.
struct RunResult {
  Metrics metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< the first few failure reasons
  std::vector<std::string> notes;     ///< human-readable report lines

  void fail(const std::string& reason);
  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        ///< tiny inputs: every workload in about a second
  std::string daemon;        ///< path of the decycle_serve binary
  std::string out_dir;       ///< per-run directory for sockets, logs and spans
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// CPU seconds (user + system), peak resident set and thread count of a
/// process, read from /proc/<pid>/{stat,status}; pid 0 reads this process.
struct ProcSample {
  double cpu_s = 0.0;
  double hwm_mb = 0.0;
  double threads = 0.0;
};
[[nodiscard]] ProcSample sample_proc(pid_t pid);

/// CPU seconds the hypervisor took from this host (steal), summed over CPUs.
[[nodiscard]] double host_steal_s();

/// Share of the host's CPU capacity stolen: \p steal_s over \p seconds.
[[nodiscard]] double steal_share(double steal_s, double seconds);

/// Which of a run's intervals (windows or cells) the metrics pool: those in
/// which under 0.5% of the host's CPU was stolen, or, when fewer than a
/// quarter are that clean, the least-stolen quarter (at least one). CPU steal
/// by other guests slows a run without saying anything about the program.
[[nodiscard]] std::vector<bool> least_stolen(const std::vector<double>& steal_shares);

/// FNV-1a over a sequence of replies (each terminated by a separator byte).
class Digest {
 public:
  void add(std::string_view bytes);
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

[[nodiscard]] std::string hex64(std::uint64_t v);

/// The workloads. Serving ones talk to a spawned decycle_serve; lab_250k
/// calls lab::LabRunner in this process.
[[nodiscard]] RunResult run_serving(const RunConfig& config);
[[nodiscard]] RunResult run_lab(const RunConfig& config);

/// Checker self-tests; returns the number of failed cases.
[[nodiscard]] int run_selftest();

}  // namespace perfbench
