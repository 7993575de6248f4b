/// \file serve_client.cpp
/// \brief The serving workloads: a freshly spawned decycle_serve driven over
/// its AF_UNIX socket by one thread polling one connection per tenant.
///
/// Phases of one run:
///   1. set-up, three times: spawn the daemon, wait for its socket, create
///      the tenants and send the warm-up requests. The first two daemons are
///      shut down; set-up time is the median of the three.
///   2. the timed phase: every connection runs closed-loop (it sends its next
///      request only after the reply arrives) until the deadline. Daemon CPU
///      is the /proc/<pid>/stat delta over this phase only.
///   3. the `stats` verb and /proc counters, then shutdown.
///   4. with tracing, the in-process replay of the recorded streams (replay.hpp);
///      its per-tenant reply digests must equal the daemon's.
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "check.hpp"
#include "common.hpp"
#include "replay.hpp"
#include "serve/protocol.hpp"
#include "trace.hpp"
#include "workload.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kSetups = 3;
constexpr double kReplyTimeoutS = 60.0;
constexpr std::size_t kTracedPerTenant = 4000;  ///< traced replay requests per tenant (about)
constexpr std::size_t kWindows = 80;
constexpr double kSampleS = 0.05;  ///< daemon CPU and host steal sampling period

/// The spawned daemon. Destruction kills and reaps it if it still runs.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::string& socket, const std::string& log) {
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    const std::string socket_arg = "--socket=" + socket;
    char* argv[] = {const_cast<char*>(exe.c_str()), const_cast<char*>(socket_arg.c_str()),
                    const_cast<char*>("--workers=4"), nullptr};
    const int rc = posix_spawn(&pid_, exe.c_str(), &actions, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }

  /// Waits for the daemon to exit; kills it after \p timeout_s. True when it
  /// exited by itself with status 0.
  bool wait(double timeout_s) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    int status = 0;
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
    return false;
  }

 private:
  pid_t pid_ = -1;
};

/// One client connection: whole-frame blocking writes, poll-driven reads.
class Connection {
 public:
  explicit Connection(int fd) : fd_(fd) {}
  ~Connection() {
    if (fd_ >= 0) ::close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void send(std::string_view payload) {
    const std::string frame = decycle::serve::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to the daemon failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads what is available and appends every complete reply to \p out.
  void receive(std::vector<std::string>& out) {
    char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) return;
    if (n <= 0) throw std::runtime_error("the daemon closed a connection");
    reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    for (;;) {
      std::string payload;
      const auto status = reader_.next(payload);
      if (status == decycle::serve::FrameReader::Status::kNeedMore) return;
      if (status == decycle::serve::FrameReader::Status::kError) {
        throw std::runtime_error("garbled reply frame: " + reader_.error());
      }
      out.push_back(std::move(payload));
    }
  }

  /// Sends \p payload and blocks for its reply.
  std::string call(std::string_view payload) {
    send(payload);
    std::vector<std::string> replies;
    while (replies.empty()) {
      pollfd pfd{fd_, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, static_cast<int>(kReplyTimeoutS * 1000));
      if (ready == 0) throw std::runtime_error("the daemon stopped answering");
      if (ready > 0) receive(replies);
    }
    return std::move(replies.front());
  }

 private:
  int fd_;
  decycle::serve::FrameReader reader_;
};

int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One tenant's connection, stream and bookkeeping.
struct Lane {
  TenantSpec spec;
  std::unique_ptr<TenantGraph> graph;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Connection> conn;
  Digest digest;
  std::vector<std::string> log;  ///< payloads after create, for the traced replay
  std::unordered_map<std::string, std::string> warm_replies;  ///< serve_hit oracle
  // The request in flight.
  Op op;
  Clock::time_point sent;
  bool busy = false;
};

/// Runs every lane closed-loop: \p next(i) yields lane i's next request or
/// nullopt to stop it; \p on_reply(i, reply, seconds) sees each reply.
/// With \p record, each lane's payloads are appended to its log.
template <class Next, class OnReply>
void drive(std::vector<Lane>& lanes, bool record, Next&& next, OnReply&& on_reply) {
  const auto send_next = [&](std::size_t i) {
    std::optional<Op> op = next(i);
    lanes[i].busy = op.has_value();
    if (!op) return;
    lanes[i].op = std::move(*op);
    if (record) lanes[i].log.push_back(lanes[i].op.payload);
    lanes[i].sent = Clock::now();
    lanes[i].conn->send(lanes[i].op.payload);
  };
  for (std::size_t i = 0; i < lanes.size(); ++i) send_next(i);
  std::vector<pollfd> pfds;
  std::vector<std::size_t> owner;
  std::vector<std::string> replies;
  for (;;) {
    pfds.clear();
    owner.clear();
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      if (!lanes[i].busy) continue;
      pfds.push_back(pollfd{lanes[i].conn->fd(), POLLIN, 0});
      owner.push_back(i);
    }
    if (pfds.empty()) return;
    const int ready = ::poll(pfds.data(), pfds.size(), static_cast<int>(kReplyTimeoutS * 1000));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) throw std::runtime_error("the daemon stopped answering");
    for (std::size_t p = 0; p < pfds.size(); ++p) {
      if (pfds[p].revents == 0) continue;
      const std::size_t i = owner[p];
      replies.clear();
      lanes[i].conn->receive(replies);
      for (std::string& reply : replies) {
        const double latency = seconds_between(lanes[i].sent, Clock::now());
        on_reply(i, reply, latency);
        lanes[i].digest.add(reply);
        send_next(i);
      }
    }
  }
}

/// A number field of the `stats` verb's global record.
double stats_field(const std::string& stats, const std::string& key) {
  const std::size_t global = stats.find("\"record\":\"global\"");
  if (global == std::string::npos) throw std::runtime_error("stats reply has no global record");
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = stats.find(needle, global);
  if (at == std::string::npos) throw std::runtime_error("stats reply has no field " + key);
  const char* first = stats.data() + at + needle.size();
  double value = 0.0;
  std::from_chars(first, stats.data() + stats.size(), value);
  return value;
}

struct DaemonStats {
  double verdict_hits = 0, verdict_misses = 0, session_hits = 0, session_misses = 0,
         session_purges = 0;
  std::string raw;
};

DaemonStats read_stats(Connection& conn) {
  DaemonStats s;
  s.raw = conn.call("stats");
  if (s.raw.rfind("OK stats", 0) != 0) throw std::runtime_error("stats verb failed: " + s.raw);
  s.verdict_hits = stats_field(s.raw, "verdict_hits");
  s.verdict_misses = stats_field(s.raw, "verdict_misses");
  s.session_hits = stats_field(s.raw, "session_hits");
  s.session_misses = stats_field(s.raw, "session_misses");
  s.session_purges = stats_field(s.raw, "session_purges");
  return s;
}

void shutdown_daemon(std::vector<Lane>& lanes, Daemon& daemon, RunResult& res) {
  const std::string reply = lanes.front().conn->call("shutdown");
  if (reply != "OK shutdown") res.fail("shutdown verb failed: " + reply);
  for (Lane& lane : lanes) lane.conn.reset();
  if (!daemon.wait(20.0)) res.fail("the daemon did not exit cleanly after shutdown");
}

double ratio(double part, double whole) { return whole > 0 ? part / whole : 0.0; }

/// One answered timed request.
struct Completion {
  double at_s = 0.0;  ///< reply time since the timed phase began
  double latency_ms = 0.0;
  bool ok = false;
  bool query = false;
};

/// The timed phase cut into kWindows equal windows (a quarter second each at
/// 20 s); the metrics pool the windows least_stolen() picks. The cache-hit
/// path waits on several thread wake-ups per request, so CPU steal cuts its
/// throughput several-fold (on a shared 4-vCPU VM a second with a quarter of
/// the CPU stolen ran at a quarter of the throughput) and its p99 more. Short
/// windows find the clean stretches between bursts of steal. On a quiet host
/// every window is pooled and the figures are whole-run figures.
struct Windows {
  std::size_t queries = 0;  ///< answered queries in the pooled windows
  double qps = 0.0, p50_ms = 0.0, p99_ms = 0.0, cpu_ms_per_op = 0.0;
  std::vector<double> qps_per_window;
  std::vector<double> steal_per_window;  ///< share of the host's CPU stolen
  std::vector<bool> pooled;
  [[nodiscard]] std::string describe() const {
    std::string out;
    for (std::size_t i = 0; i < qps_per_window.size(); ++i) {
      out += " " + std::to_string(static_cast<long>(qps_per_window[i])) + (pooled[i] ? "*" : "") +
             "/" + std::to_string(static_cast<int>(1000 * steal_per_window[i]));
    }
    return out;
  }
};

/// A time series sampled during the timed phase: (seconds since start, value).
using Series = std::vector<std::pair<double, double>>;

/// The series' value at \p t, interpolated between samples.
double value_at(const Series& series, double t) {
  const auto hi = std::lower_bound(series.begin(), series.end(), std::pair{t, -1.0});
  if (hi == series.begin()) return series.front().second;
  if (hi == series.end()) return series.back().second;
  const auto lo = hi - 1;
  const double span = hi->first - lo->first;
  return span <= 0 ? hi->second : lo->second + (hi->second - lo->second) * (t - lo->first) / span;
}

Windows windowed(const std::vector<Completion>& done, const Series& cpu, const Series& steal,
                 double wall_s) {
  const double width = wall_s / static_cast<double>(kWindows);
  const auto delta = [width](const Series& series, std::size_t i) {
    return value_at(series, width * static_cast<double>(i + 1)) -
           value_at(series, width * static_cast<double>(i));
  };
  Windows out;
  std::vector<double> ok(kWindows, 0.0);
  for (const Completion& c : done) {
    if (c.ok) ok[std::min(kWindows - 1, static_cast<std::size_t>(c.at_s / width))] += 1;
  }
  for (std::size_t i = 0; i < kWindows; ++i) {
    out.qps_per_window.push_back(ratio(ok[i], width));
    out.steal_per_window.push_back(steal_share(delta(steal, i), width));
  }
  out.pooled = least_stolen(out.steal_per_window);
  std::vector<double> latency;
  double ops = 0.0, answered = 0.0, cpu_s = 0.0, seconds = 0.0;
  for (const Completion& c : done) {
    if (!out.pooled[std::min(kWindows - 1, static_cast<std::size_t>(c.at_s / width))]) continue;
    ops += 1;
    answered += c.ok ? 1 : 0;
    if (c.ok && c.query) latency.push_back(c.latency_ms);
  }
  for (std::size_t i = 0; i < kWindows; ++i) {
    if (!out.pooled[i]) continue;
    cpu_s += delta(cpu, i);
    seconds += width;
  }
  out.queries = latency.size();
  out.qps = ratio(answered, seconds);
  out.p50_ms = quantile(latency, 0.50);
  out.p99_ms = quantile(latency, 0.99);
  out.cpu_ms_per_op = ratio(1e3 * cpu_s, ops);
  return out;
}

}  // namespace

RunResult run_serving(const RunConfig& cfg) {
  const Workload workload = parse_workload(cfg.workload);
  const std::vector<TenantSpec> specs = serving_tenants(cfg.smoke);
  RunResult res;

  // Checks one reply; failures count, and each is also a missed latency
  // limit (the caller drops it from the latency sample).
  const auto check = [&](Lane& lane, const std::string& reply) {
    ++res.attempted;
    std::string err = check_reply(lane.op, reply, *lane.graph);
    if (err.empty() && workload == Workload::kServeHit) {
      const auto it = lane.warm_replies.find(lane.op.payload);
      if (it == lane.warm_replies.end()) {
        lane.warm_replies.emplace(lane.op.payload, reply);
      } else if (it->second != reply) {
        err = "cached reply differs from the warm-up reply for " + lane.op.payload;
      }
    }
    if (!err.empty()) res.fail(lane.spec.name + ": " + err);
    return err.empty();
  };

  // --- set-up, three times; the last daemon is measured ---------------------
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  std::vector<Lane> lanes;
  for (int s = 0; s < kSetups; ++s) {
    if (daemon) shutdown_daemon(lanes, *daemon, res);
    lanes.clear();
    daemon.reset();
    const std::string socket = cfg.out_dir + "/serve-" + std::to_string(s) + ".sock";
    const std::string log = cfg.out_dir + "/daemon-" + std::to_string(s) + ".log";
    const Clock::time_point t0 = Clock::now();
    daemon = std::make_unique<Daemon>(cfg.daemon, socket, log);
    int fd = -1;
    while ((fd = connect_socket(socket)) < 0) {
      if (seconds_between(t0, Clock::now()) > 30.0) {
        throw std::runtime_error("the daemon's socket never became ready (see " + log + ")");
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
    lanes.resize(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      Lane& lane = lanes[i];
      lane.spec = specs[i];
      lane.graph = std::make_unique<TenantGraph>(specs[i]);
      lane.stream = std::make_unique<Stream>(workload, cfg.seed, i, specs[i].name, *lane.graph);
      lane.conn = std::make_unique<Connection>(i == 0 ? fd : connect_socket(socket));
      if (lane.conn->fd() < 0) throw std::runtime_error("cannot connect to " + socket);
    }
    // Creates, concurrently over the connections.
    for (Lane& lane : lanes) lane.conn->send(create_payload(lane.spec));
    for (Lane& lane : lanes) {
      std::vector<std::string> replies;
      while (replies.empty()) lane.conn->receive(replies);
      ++res.attempted;
      if (std::string err = check_create_reply(replies.front(), *lane.graph); !err.empty()) {
        res.fail(lane.spec.name + ": " + err);
      }
      lane.digest.add(replies.front());
    }
    // Warm-up: closed-loop like the timed phase, outside every timed metric.
    drive(
        lanes, cfg.trace, [&](std::size_t i) { return lanes[i].stream->next_warmup(); },
        [&](std::size_t i, const std::string& reply, double) { check(lanes[i], reply); });
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  // --- the timed phase ------------------------------------------------------
  std::vector<std::size_t> timed_begin;
  for (const Lane& lane : lanes) timed_begin.push_back(lane.log.size());
  const DaemonStats before = read_stats(*lanes.front().conn);
  std::vector<Completion> done;
  Series cpu_at{{0.0, sample_proc(daemon->pid()).cpu_s}};
  Series steal_at{{0.0, host_steal_s()}};
  std::vector<double> insert_ms;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start +
      std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(cfg.seconds));
  drive(
      lanes, cfg.trace,
      [&](std::size_t i) -> std::optional<Op> {
        if (Clock::now() >= deadline) return std::nullopt;
        return lanes[i].stream->next();
      },
      [&](std::size_t i, const std::string& reply, double latency_s) {
        const double at = seconds_between(start, Clock::now());
        if (at - cpu_at.back().first >= kSampleS) {
          cpu_at.emplace_back(at, sample_proc(daemon->pid()).cpu_s);
          steal_at.emplace_back(at, host_steal_s());
        }
        const bool ok = check(lanes[i], reply);
        const bool query = lanes[i].op.kind == Op::Kind::kQuery;
        done.push_back(Completion{at, 1e3 * latency_s, ok, query});
        if (ok && !query) insert_ms.push_back(1e3 * latency_s);
      });
  const double wall_s = done.empty() ? 0.0 : done.back().at_s;
  const ProcSample proc_after = sample_proc(daemon->pid());
  cpu_at.emplace_back(wall_s, proc_after.cpu_s);
  steal_at.emplace_back(wall_s, host_steal_s());
  const double steal_s = steal_at.back().second - steal_at.front().second;
  const DaemonStats after = read_stats(*lanes.front().conn);

  const double d_verdict_hits = after.verdict_hits - before.verdict_hits;
  const double d_verdict_misses = after.verdict_misses - before.verdict_misses;
  if (workload == Workload::kServeHit && d_verdict_misses != 0) {
    res.fail("serve_hit: " + std::to_string(d_verdict_misses) + " timed queries missed the cache");
  }
  if (workload != Workload::kServeHit && d_verdict_hits != 0) {
    res.fail(cfg.workload + ": " + std::to_string(d_verdict_hits) + " timed queries hit the cache");
  }
  const Windows w = windowed(done, cpu_at, steal_at, wall_s);
  if (w.queries == 0) res.fail("the timed phase answered no query");

  const double query_p50 = w.p50_ms;
  const double daemon_p50 = stats_field(after.raw, "p50_ms");
  res.set("qps", w.qps, "1/s");
  res.set("query_p50_ms", query_p50, "ms");
  res.set("query_p99_ms", w.p99_ms, "ms");
  res.set("cpu_ms_per_op", w.cpu_ms_per_op, "ms");
  res.set("peak_rss_mb", proc_after.hwm_mb, "MB");
  res.set("setup_s", quantile(setup_s, 0.5), "s");
  res.set("insert_p50_ms", quantile(insert_ms, 0.50), "ms");
  res.set("insert_p99_ms", quantile(insert_ms, 0.99), "ms");
  res.set("serve.verdict_hit_ratio", ratio(d_verdict_hits, d_verdict_hits + d_verdict_misses),
          "ratio");
  res.set("serve.queue_peak_depth", stats_field(after.raw, "queue_peak_depth"), "count");
  res.set("serve.shed_total", stats_field(after.raw, "shed_total"), "count");
  res.set("serve.daemon_p50_ms", daemon_p50, "ms");
  // The daemon's p50 covers every request it served, so compare it with the
  // client's p50 over every timed request.
  std::vector<double> all_ms;
  for (const Completion& c : done) all_ms.push_back(c.latency_ms);
  res.set("serve.transport_p50_us", 1e3 * (quantile(all_ms, 0.5) - daemon_p50), "us");
  res.set("serve.daemon_threads", proc_after.threads, "count");
  const double d_session_hits = after.session_hits - before.session_hits;
  res.set("engine.session_hit_ratio",
          ratio(d_session_hits, d_session_hits + after.session_misses - before.session_misses),
          "ratio");
  res.set("engine.session_purges", after.session_purges - before.session_purges, "count");
  res.notes.push_back("timed phase: " + std::to_string(done.size()) + " requests over " +
                      std::to_string(wall_s) +
                      " s; 4 closed-loop connections, daemon --workers=4; host steal " +
                      std::to_string(steal_s) + " CPU-s");
  res.notes.push_back("requests/s / CPU stolen in 0.1% per window (* = pooled, " +
                      std::to_string(w.queries) + " queries):" + w.describe());

  std::vector<std::uint64_t> daemon_digests;
  std::vector<ReplayTenant> recorded;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < lanes.size(); ++i) {
    daemon_digests.push_back(lanes[i].digest.value());
    const std::size_t timed = lanes[i].log.size() - timed_begin[i];
    recorded.push_back(ReplayTenant{lanes[i].spec, std::move(lanes[i].log), timed_begin[i],
                                    std::max<std::size_t>(1, timed / kTracedPerTenant)});
    names.push_back(lanes[i].spec.name);
  }
  shutdown_daemon(lanes, *daemon, res);
  daemon.reset();

  if (!cfg.trace) return res;

  // --- traced replay --------------------------------------------------------
  const ReplayResult rep = replay(recorded, /*traced=*/true);
  ++res.attempted;
  if (std::string err = check_digests(names, daemon_digests, rep.digests); !err.empty()) {
    res.fail("determinism: " + err);
  }
  write_spans(cfg.out_dir + "/spans-" + cfg.workload + ".jsonl", rep.spans, rep.origin);
  const std::map<std::string, LayerTime> layers = self_times(rep.spans);
  const auto mean = [&](const std::string& name, double scale) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : scale * it->second.mean_s();
  };
  const auto total = [&](const std::string& name) {
    const auto it = layers.find(name);
    return it == layers.end() ? 0.0 : it->second.self_s;
  };
  const double requests = static_cast<double>(layers.count("serve.request") != 0
                                                  ? layers.at("serve.request").calls
                                                  : 0);
  res.set("serve.stack_ms", query_p50 - quantile(rep.timed_query_ms, 0.5), "ms");
  res.set("protocol.parse_us", mean("protocol.parse", 1e6), "us");
  res.set("protocol.frame_us", ratio(1e6 * total("protocol.frame"), requests), "us");
  res.set("protocol.format_us", mean("protocol.format", 1e6), "us");
  res.set("engine.lease_hit_us", mean("engine.lease_hit", 1e6), "us");
  res.set("engine.lease_miss_ms", mean("engine.lease_miss", 1e3), "ms");
  res.set("engine.purge_ms", mean("engine.purge", 1e3), "ms");
  res.set("graph.checkpoint_ms", mean("graph.checkpoint", 1e3), "ms");
  res.set("incremental.apply_us", mean("incremental.apply", 1e6), "us");
  for (const auto& [algo, a] : rep.algos) {
    const double runs = static_cast<double>(a.runs);
    const double run_ms = mean("core.run." + algo, 1e3);
    res.set("core.run_ms." + algo, run_ms, "ms");
    res.set("core.reject_frac." + algo, ratio(static_cast<double>(a.rejections), runs), "ratio");
    res.set("congest.messages." + algo, ratio(static_cast<double>(a.messages), runs), "count");
    res.set("congest.bits." + algo, ratio(static_cast<double>(a.bits), runs), "bit");
    res.set("congest.rounds." + algo, ratio(static_cast<double>(a.rounds), runs), "count");
    res.set("congest.max_link_bits." + algo, ratio(static_cast<double>(a.max_link_bits), runs),
            "bit");
    res.set("congest.msgs_per_s." + algo,
            ratio(static_cast<double>(a.messages) / std::max(runs, 1.0), run_ms / 1e3), "1/s");
  }
  res.notes.push_back("traced replay: " + std::to_string(rep.spans.size()) + " spans, " +
                      std::to_string(rep.dirty_checkpoints) +
                      " checkpoints after a mutation; spans in " + cfg.out_dir);
  return res;
}

}  // namespace perfbench
