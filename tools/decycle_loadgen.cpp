/// \file decycle_loadgen.cpp
/// \brief Closed-loop load generator / determinism checker for decycle_serve.
///
/// Drives the seeded mixed read/mutate workload (serve/loadgen.hpp) either
/// against an in-process Server or over an AF_UNIX socket, and prints the
/// per-tenant + aggregate JSONL report. Every digest in the report is a
/// pure function of (seed, tenants, ops, axes) — the serving determinism
/// contract made checkable from the command line.
///
/// In-process (spawns its own server; the test/CI path):
///   decycle_loadgen --in-process --tenants=8 --ops=64 --workers=8
///   decycle_loadgen --check-determinism --tenants=6 --ops=32
///
/// Against a running daemon:
///   decycle_loadgen --socket=/tmp/decycle.sock --tenants=4 --ops=64
///   decycle_loadgen --socket=/tmp/decycle.sock --shutdown
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --in-process        run against an internal Server (default if no --socket)
///   --socket=PATH       connect to a daemon instead
///   --check-determinism run the workload twice in-process (--workers=1 vs
///                       the configured --workers) and exit 1 unless the
///                       reports match digest-for-digest
///   --tenants=N --ops=N --n=N --threads=N   workload shape (defaults 4/64/64/2)
///   --mutate=F --checkpoints=F              op-mix ratios (defaults 0.25/0.05)
///   --seed=S            workload seed (default 1)
///   --algos=a,b --ks=3,5 --eps=0.25,0.5 --reps=N   query axes
///   --workers=N         in-process server workers (default 8)
///   --queue-capacity=N --tenant-cap=N --cache=N    in-process server knobs
///   --out=FILE          write the JSONL report here (stdout always gets it)
///   --stats             also fetch and print the server's stats dump
///   --shutdown          (socket mode) send `shutdown` and exit
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "serve/loadgen.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Blocking request/reply client over one AF_UNIX connection.
class SocketClient final : public decycle::serve::Client {
 public:
  explicit SocketClient(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    DECYCLE_CHECK_MSG(path.size() < sizeof(addr.sun_path), "--socket path too long");
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    DECYCLE_CHECK_MSG(fd_ >= 0, "socket() failed");
    DECYCLE_CHECK_MSG(::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0,
                      "connect() failed on " + path + " (is decycle_serve running?)");
  }

  ~SocketClient() override {
    if (fd_ >= 0) ::close(fd_);
  }

  [[nodiscard]] std::string call(const std::string& payload) override {
    const std::string frame = decycle::serve::encode_frame(payload);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      DECYCLE_CHECK_MSG(n > 0, "send() failed (daemon gone?)");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      std::string reply;
      const auto status = reader_.next(reply);
      if (status == decycle::serve::FrameReader::Status::kFrame) return reply;
      DECYCLE_CHECK_MSG(status == decycle::serve::FrameReader::Status::kNeedMore,
                        "garbled reply stream: " + reader_.error());
      char buf[4096];
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      DECYCLE_CHECK_MSG(n > 0, "connection closed mid-reply");
      reader_.feed(std::string_view(buf, static_cast<std::size_t>(n)));
    }
  }

 private:
  int fd_ = -1;
  decycle::serve::FrameReader reader_;
};

decycle::serve::LoadgenSpec parse_spec(const decycle::util::Args& args) {
  decycle::serve::LoadgenSpec spec;
  spec.tenants = args.get_u64("tenants", spec.tenants);
  spec.client_threads = args.get_u64("threads", 2);
  spec.n = static_cast<decycle::graph::Vertex>(args.get_u64("n", spec.n));
  spec.ops_per_tenant = args.get_u64("ops", spec.ops_per_tenant);
  spec.mutate_ratio = args.get_double("mutate", spec.mutate_ratio);
  spec.checkpoint_ratio = args.get_double("checkpoints", spec.checkpoint_ratio);
  spec.seed = args.get_u64("seed", spec.seed);
  spec.repetitions = args.get_u64("reps", spec.repetitions);
  if (const std::string csv = args.get_string("algos", ""); !csv.empty()) {
    spec.algos = split_csv(csv);
  }
  if (const std::string csv = args.get_string("ks", ""); !csv.empty()) {
    spec.ks.clear();
    for (const std::string& k : split_csv(csv)) {
      spec.ks.push_back(static_cast<unsigned>(std::stoul(k)));
    }
  }
  if (const std::string csv = args.get_string("eps", ""); !csv.empty()) {
    spec.epsilons.clear();
    for (const std::string& e : split_csv(csv)) spec.epsilons.push_back(std::stod(e));
  }
  return spec;
}

decycle::serve::ServerOptions parse_server_options(const decycle::util::Args& args) {
  decycle::serve::ServerOptions options;
  options.workers = args.get_u64("workers", 8);
  options.queue_capacity = args.get_u64("queue-capacity", options.queue_capacity);
  options.tenant_inflight_cap = args.get_u64("tenant-cap", options.tenant_inflight_cap);
  options.verdict_cache_capacity = args.get_u64("cache", options.verdict_cache_capacity);
  return options;
}

decycle::serve::LoadgenReport run_in_process(const decycle::serve::LoadgenSpec& spec,
                                             decycle::serve::ServerOptions options,
                                             bool print_stats) {
  decycle::serve::Server server(std::move(options));
  server.start();
  const decycle::serve::LoadgenReport report = decycle::serve::run_loadgen(
      spec, [&server] { return std::make_unique<decycle::serve::InProcessClient>(server); });
  if (print_stats) std::cout << server.stats_jsonl();
  server.stop();
  return report;
}

bool reports_match(const decycle::serve::LoadgenReport& a,
                   const decycle::serve::LoadgenReport& b) {
  if (a.aggregate_digest != b.aggregate_digest || a.tenants.size() != b.tenants.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const auto& ta = a.tenants[i];
    const auto& tb = b.tenants[i];
    if (ta.reply_digest != tb.reply_digest || ta.verdict_multiset != tb.verdict_multiset ||
        ta.final_hash != tb.final_hash || ta.queries != tb.queries ||
        ta.accepted != tb.accepted || ta.errors != tb.errors) {
      return false;
    }
  }
  return true;
}

void write_report(const decycle::serve::LoadgenReport& report, const std::string& out_path) {
  const std::string jsonl = report.jsonl();
  std::cout << jsonl;
  if (!out_path.empty()) {
    std::ofstream out(out_path, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open --out file: " + out_path);
    out << jsonl;
  }
}

int run(const decycle::util::Args& args) {
  using namespace decycle;

  const std::string socket_path = args.get_string("socket", "");
  const bool check_determinism = args.get_bool("check-determinism", false);
  const bool want_stats = args.get_bool("stats", false);
  const bool want_shutdown = args.get_bool("shutdown", false);
  const std::string out_path = args.get_string("out", "");
  (void)args.get_bool("in-process", false);  // accepted for explicitness
  const serve::LoadgenSpec spec = parse_spec(args);
  serve::ServerOptions options = parse_server_options(args);
  args.reject_unknown();

  if (want_shutdown) {
    DECYCLE_CHECK_MSG(!socket_path.empty(), "--shutdown requires --socket=PATH");
    SocketClient client(socket_path);
    std::cout << client.call("shutdown") << "\n";
    return 0;
  }

  if (check_determinism) {
    DECYCLE_CHECK_MSG(socket_path.empty(),
                      "--check-determinism is in-process only (it owns the worker count)");
    serve::ServerOptions single = options;
    single.workers = 1;
    const serve::LoadgenReport base = run_in_process(spec, std::move(single), false);
    const serve::LoadgenReport wide = run_in_process(spec, std::move(options), false);
    write_report(wide, out_path);
    if (!reports_match(base, wide)) {
      std::cerr << "decycle_loadgen: DETERMINISM MISMATCH between workers=1 and workers="
                << parse_server_options(args).workers << "\n--- workers=1 ---\n"
                << base.jsonl();
      return 1;
    }
    std::cerr << "decycle_loadgen: deterministic across worker counts (aggregate_digest="
              << wide.aggregate_digest << ")\n";
    return 0;
  }

  serve::LoadgenReport report;
  if (socket_path.empty()) {
    report = run_in_process(spec, std::move(options), want_stats);
  } else {
    report = serve::run_loadgen(
        spec, [&socket_path] { return std::make_unique<SocketClient>(socket_path); });
    if (want_stats) {
      SocketClient client(socket_path);
      std::cout << client.call("stats") << "\n";
    }
  }
  write_report(report, out_path);
  return report.total_errors > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace decycle;
  try {
    return run(util::Args(argc, argv));
  } catch (const util::CheckError& e) {
    std::cerr << "decycle_loadgen: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "decycle_loadgen: " << e.what() << "\n";
    return 3;
  }
}
