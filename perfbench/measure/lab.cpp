/// \file lab.cpp
/// \brief The lab_250k workload: one lab cell through lab::LabRunner, start
/// to finish, on a 4-thread pool — gnm n=250k, k=5, tester eps=0.5 reps=1,
/// 8 trials. (At n=1M the cell peaks at about 7.5 GB resident, one 1M-vertex
/// Simulator of about 1.9 GB per lane, too much for a shared host.)
///
/// Set-up (timed three times, median reported) is the topology build plus
/// GraphStore::intern. The timed phase runs the cell on a fresh runner, and
/// again while another cell still fits in --seconds; the metrics pool the
/// cells least_stolen() picks. With tracing, the cell's call
/// chain build_topology -> intern -> run_batch is replayed under spans, and
/// the cell is run serially; the serial record must equal the pooled one.
#include "common.hpp"
#include "engine/engine.hpp"
#include "engine/lanes.hpp"
#include "graph/ids.hpp"
#include "lab/runner.hpp"
#include "lab/scenario.hpp"
#include "trace.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace lab = decycle::lab;
namespace engine = decycle::engine;

// LabRunner's seed-stream tags (src/lab/runner.cpp; pinned by the repo's
// seed-stability tests). The replay must derive the same topology and drop
// streams; its totals are cross-checked against the runner's record.
constexpr std::uint64_t kGraphTag = 0x67726170685f5f31ULL;  // "graph__1"
constexpr std::uint64_t kDropTag = 0x64726f705f5f5f31ULL;   // "drop___1"
constexpr std::size_t kThreads = 4;

/// "" when the record is internally sound.
std::string check_cell(const lab::CellResult& r, const lab::ScenarioCell& cell) {
  if (r.trials != cell.trials) return "cell ran " + std::to_string(r.trials) + " trials";
  if (r.truncated_trials != 0) return "trials hit the round cap";
  if (r.overflow_trials != 0) return "trials overflowed the pruning cap";
  if (r.soundness_violation) return "soundness violation";
  if (r.rejections > r.trials || r.rounds_max == 0) return "implausible aggregates";
  return {};
}

/// LabRunner's per-trial query (trial_query in src/lab/runner.cpp).
engine::Query trial_query(const lab::ScenarioCell& cell, std::uint64_t trial_seed) {
  engine::Query q;
  q.detector = cell.algo;
  q.model = cell.model;
  q.options.k = cell.k;
  q.options.epsilon = cell.epsilon;
  q.options.seed = trial_seed;
  q.options.repetitions = cell.repetitions;
  q.options.budget = cell.budget;
  q.options.max_tracked = cell.track;
  q.options.drop = lab::make_drop_filter(cell.adversary,
                                         decycle::util::splitmix64(trial_seed ^ kDropTag));
  q.options.delivery = cell.delivery;
  return q;
}

}  // namespace

RunResult run_lab(const RunConfig& cfg) {
  RunResult res;
  const std::uint64_t n = cfg.smoke ? 20000 : 250000;
  const std::size_t trials = cfg.smoke ? 2 : 8;
  const std::vector<lab::ScenarioCell> cells =
      lab::ScenarioSpec::parse_tokens({"family=gnm", "k=5", "eps=0.5", "n=" + std::to_string(n),
                                       "algo=tester", "reps=1", "trials=" + std::to_string(trials),
                                       "seed=" + std::to_string(cfg.seed)})
          .expand();
  const lab::ScenarioCell& cell = cells.at(0);
  const std::uint64_t cseed = cell.cell_seed();

  // --- set-up: topology build plus pin, three times -------------------------
  std::vector<double> setup_s;
  for (int s = 0; s < 3; ++s) {
    const Clock::time_point t0 = Clock::now();
    decycle::util::Rng rng(decycle::util::splitmix64(cseed ^ kGraphTag));
    lab::BuiltTopology topo = lab::build_topology(cell, rng);
    engine::GraphStore store;
    const auto vertices = topo.graph.num_vertices();
    (void)store.intern("lab", std::move(topo.graph),
                       decycle::graph::IdAssignment::identity(vertices));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // --- the timed phase ------------------------------------------------------
  decycle::util::ThreadPool pool(kThreads);
  struct Cell {
    double seconds = 0.0, cpu_s = 0.0, steal_share = 0.0;
  };
  std::vector<Cell> timed;
  std::string record;
  const Clock::time_point start = Clock::now();
  do {
    // A fresh runner per cell, so every cell starts cold, as a user's does.
    const lab::LabRunner runner(lab::LabOptions{.pool = &pool});
    const double cpu0 = sample_proc(0).cpu_s;
    const double steal0 = host_steal_s();
    const Clock::time_point c0 = Clock::now();
    const lab::CellResult r = runner.run_cell(cell);
    Cell c;
    c.seconds = seconds_between(c0, Clock::now());
    c.cpu_s = sample_proc(0).cpu_s - cpu0;
    c.steal_share = steal_share(host_steal_s() - steal0, c.seconds);
    timed.push_back(c);
    ++res.attempted;
    std::string json = r.to_json(/*include_timing=*/false);
    if (std::string err = check_cell(r, cell); !err.empty()) res.fail(cfg.workload + ": " + err);
    if (record.empty()) record = std::move(json);
    else if (json != record) res.fail(cfg.workload + ": a repeated cell gave a different record");
  } while (seconds_between(start, Clock::now()) + timed.back().seconds <= cfg.seconds);
  const ProcSample proc = sample_proc(0);

  // Pool the cells least_stolen() picks.
  std::vector<double> shares;
  for (const Cell& c : timed) shares.push_back(c.steal_share);
  const std::vector<bool> pooled = least_stolen(shares);
  std::vector<double> cell_s;
  double pooled_s = 0.0, pooled_cpu_s = 0.0;
  std::string cells_note;
  for (std::size_t i = 0; i < timed.size(); ++i) {
    cells_note += " " + std::to_string(timed[i].seconds).substr(0, 5) + (pooled[i] ? "*" : "") +
                  "/" + std::to_string(static_cast<int>(1000 * timed[i].steal_share));
    if (!pooled[i]) continue;
    cell_s.push_back(timed[i].seconds);
    pooled_s += timed[i].seconds;
    pooled_cpu_s += timed[i].cpu_s;
  }
  const double pooled_trials = static_cast<double>(cell_s.size() * trials);
  res.set("qps", pooled_trials / pooled_s, "1/s");
  res.set("query_p50_ms", 1e3 * quantile(cell_s, 0.50), "ms");
  res.set("query_p99_ms", 1e3 * quantile(cell_s, 0.99), "ms");
  res.set("cpu_ms_per_op", 1e3 * pooled_cpu_s / pooled_trials, "ms");
  res.set("peak_rss_mb", proc.hwm_mb, "MB");
  res.set("setup_s", quantile(setup_s, 0.5), "s");
  Digest digest;
  digest.add(record);
  res.notes.push_back("timed phase: " + std::to_string(timed.size()) + " cell(s) of " +
                      std::to_string(trials) + " trials at n=" + std::to_string(n) + " on " +
                      std::to_string(kThreads) + " threads; record digest " +
                      hex64(digest.value()));
  res.notes.push_back("seconds / CPU stolen in 0.1% per cell (* = pooled):" + cells_note);
  if (!cfg.trace) return res;

  // --- traced replay of the cell's call chain -------------------------------
  Tracer tracer(true, 0);
  const Clock::time_point origin = Clock::now();
  std::vector<decycle::core::Verdict> verdicts;
  engine::SessionStats sessions;
  {
    const engine::DetectionEngine eng(engine::EngineOptions{.pool = &pool});
    engine::GraphStore store;
    Tracer::Scope cell_span(tracer, "lab.cell", 1);
    lab::BuiltTopology topo;
    {
      Tracer::Scope s(tracer, "graph.build", 1);
      decycle::util::Rng rng(decycle::util::splitmix64(cseed ^ kGraphTag));
      topo = lab::build_topology(cell, rng);
    }
    engine::PinnedGraphPtr pin;
    {
      Tracer::Scope s(tracer, "graph.pin", 1);
      const auto vertices = topo.graph.num_vertices();
      pin = store.intern("lab", std::move(topo.graph),
                         decycle::graph::IdAssignment::identity(vertices));
    }
    std::vector<engine::Query> queries;
    for (std::size_t i = 0; i < cell.trials; ++i) {
      queries.push_back(trial_query(cell, engine::trial_seed(cseed, i)));
    }
    {
      Tracer::Scope s(tracer, "engine.run_batch", 1);
      verdicts = eng.run_batch(pin, queries);
    }
    sessions = eng.session_stats();
  }
  const double traced_s = seconds_between(tracer.spans().front().start, tracer.spans().front().end);
  write_spans(cfg.out_dir + "/spans-" + cfg.workload + ".jsonl", tracer.spans(), origin);
  const std::map<std::string, LayerTime> layers = self_times(tracer.spans());

  std::uint64_t rejections = 0, messages = 0, bits = 0, rounds = 0, max_link = 0;
  for (const decycle::core::Verdict& v : verdicts) {
    rejections += v.accepted ? 0 : 1;
    messages += v.stats.total_messages;
    bits += v.stats.total_bits;
    rounds += v.stats.rounds_executed;
    max_link += v.stats.max_link_bits;
  }
  const double t = static_cast<double>(verdicts.size());
  const double run_batch_s = layers.at("engine.run_batch").self_s;
  res.set("graph.build_s", layers.at("graph.build").self_s, "s");
  res.set("graph.pin_s", layers.at("graph.pin").self_s, "s");
  res.set("engine.run_batch_s", run_batch_s, "s");
  res.set("engine.session_hit_ratio",
          static_cast<double>(sessions.hits) / static_cast<double>(sessions.hits + sessions.misses),
          "ratio");
  res.set("core.reject_frac.tester", static_cast<double>(rejections) / t, "ratio");
  res.set("congest.messages.tester", static_cast<double>(messages) / t, "count");
  res.set("congest.bits.tester", static_cast<double>(bits) / t, "bit");
  res.set("congest.rounds.tester", static_cast<double>(rounds) / t, "count");
  res.set("congest.max_link_bits.tester", static_cast<double>(max_link) / t, "bit");
  res.set("congest.msgs_per_s.tester", static_cast<double>(messages) / run_batch_s, "1/s");
  res.set("trace.overhead_frac", traced_s / quantile(cell_s, 0.5) - 1.0, "ratio");

  // The replay must reproduce the runner's totals.
  lab::CellResult serial;
  {
    const lab::LabRunner serial_runner(lab::LabOptions{.pool = nullptr});
    serial = serial_runner.run_cell(cell);
  }
  res.attempted += 2;
  if (serial.rejections != rejections || serial.messages_total != messages ||
      serial.bits_total != bits || serial.rounds_total != rounds) {
    res.fail(cfg.workload + ": the traced replay's totals differ from the runner's record");
  }
  // The serial run's record must equal the pooled one.
  Digest serial_digest;
  serial_digest.add(serial.to_json(false));
  if (serial_digest.value() != digest.value()) {
    res.fail(cfg.workload + ": pooled record digest " + hex64(digest.value()) + " != serial " +
             hex64(serial_digest.value()));
  }
  res.notes.push_back("traced replay: cell " + std::to_string(traced_s) + " s vs untraced p50 " +
                      std::to_string(quantile(cell_s, 0.5)) + " s; serial record digest " +
                      hex64(serial_digest.value()));
  return res;
}

}  // namespace perfbench
