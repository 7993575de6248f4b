/// \file decycle_incr.cpp
/// \brief Incremental cycle-detection CLI: stream generator, replay, and
/// insertion-prefix differential.
///
/// Generate mode — draw a duplicate-free insert stream and write the plain-
/// text replay file (stream.hpp format, stdout when --out is omitted):
///   decycle_incr --gen --n=1000 --inserts=2000 --seed=7 --out=stream.txt
///   decycle_incr --gen --n=64 --directed=1 --acyclic=1
///
/// Replay mode — stream the file through the matching incremental detector
/// (ForestConnectivity, or DagLevels for directed streams) and report
/// throughput:
///   decycle_incr --replay=stream.txt
///
/// Differential mode — replay insertion prefixes pinning the incremental
/// verdicts against the BFS/DFS oracle and batch detectors through the
/// IncrementalSession bridge (differential.hpp); exits 1 on any mismatch
/// and writes the failing prefix as a replayable stream file when
/// --repro-dir is given:
///   decycle_incr --replay=stream.txt --differential --prefixes=50
///                --repro-dir=incr_repros
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --gen            generate a stream (requires --n; --inserts --seed
///                    --directed --acyclic optional; --out=FILE or stdout)
///   --replay=FILE    replay a stream file ("-" reads stdin)
///   --differential   cross-check insertion prefixes instead of timing
///   --prefixes=N     cap checked prefixes (0 = every insert, default)
///   --detectors=a,b  registry detectors to pin (default threshold,edge_checker)
///   --max-k=K        longest cycle forwarded to oracle/detectors (default
///                    10 — exact-regime C_k scans grow exponentially in k)
///   --repro-dir=DIR  write the failing prefix stream into DIR
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "incremental/differential.hpp"
#include "incremental/incremental.hpp"
#include "incremental/stream.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"

namespace {

/// util::Args insists on --key=value; this CLI also accepts the
/// conventional "--key value" spelling, like decycle_soak.
std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::istringstream in(csv);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

decycle::incremental::InsertStream load_stream(const std::string& path) {
  if (path == "-") return decycle::incremental::read_stream(std::cin);
  std::ifstream in(path, std::ios::binary);
  DECYCLE_CHECK_MSG(in.good(), "cannot open --replay file: " + path);
  return decycle::incremental::read_stream(in);
}

int generate(const decycle::util::Args& args) {
  using namespace decycle;
  incremental::StreamSpec spec;
  DECYCLE_CHECK_MSG(args.has("n"), "--gen requires --n");
  spec.n = static_cast<graph::Vertex>(args.get_u64("n", 0));
  spec.inserts = args.get_u64("inserts", 2 * static_cast<std::size_t>(spec.n));
  spec.directed = args.get_bool("directed", false);
  spec.acyclic = args.get_bool("acyclic", false);
  spec.seed = args.get_u64("seed", 1);
  const std::string out_path = args.get_string("out", "");
  args.reject_unknown();

  const incremental::InsertStream stream = incremental::generate_stream(spec);
  if (out_path.empty()) {
    incremental::write_stream(std::cout, stream);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open --out file: " + out_path);
    incremental::write_stream(out, stream);
    out.flush();
    DECYCLE_CHECK_MSG(out.good(), "failed writing --out file (disk full?): " + out_path);
  }
  std::cerr << "decycle_incr: generated n=" << stream.n << " directed=" << stream.directed
            << " inserts=" << stream.inserts.size() << " seed=" << stream.seed << "\n";
  return 0;
}

int replay_timed(const decycle::incremental::InsertStream& stream) {
  using namespace decycle;
  using Clock = std::chrono::steady_clock;
  std::uint64_t closures = 0;
  std::size_t applied = 0;
  const Clock::time_point start = Clock::now();
  if (stream.directed) {
    incremental::DagLevels dag(stream.n);
    for (const auto& [u, v] : stream.inserts) {
      ++applied;
      if (dag.insert(u, v).closed_cycle) {
        ++closures;
        break;  // DagLevels' contract ends at the first directed cycle
      }
    }
  } else {
    incremental::ForestConnectivity fc(stream.n);
    for (const auto& [u, v] : stream.inserts) {
      ++applied;
      closures += fc.insert_fast(u, v) ? 1 : 0;
    }
  }
  const double seconds = std::chrono::duration<double>(Clock::now() - start).count();
  const double rate = seconds > 0.0 ? static_cast<double>(applied) / seconds : 0.0;
  std::cout << "replay: n=" << stream.n << " directed=" << stream.directed
            << " inserts=" << applied << "/" << stream.inserts.size()
            << " closures=" << closures << " inserts_per_sec=" << static_cast<std::uint64_t>(rate)
            << "\n";
  return 0;
}

int replay_differential(const decycle::incremental::InsertStream& stream,
                        const decycle::util::Args& args) {
  using namespace decycle;
  incremental::PrefixCheckOptions opts;
  opts.max_prefixes = args.get_u64("prefixes", 0);
  opts.max_query_k = static_cast<unsigned>(args.get_u64("max-k", opts.max_query_k));
  const std::string detectors_csv = args.get_string("detectors", "");
  if (!detectors_csv.empty()) opts.detectors = split_csv(detectors_csv);
  const std::string repro_dir = args.get_string("repro-dir", "");
  args.reject_unknown();

  const incremental::PrefixCheckReport report = incremental::check_stream_prefixes(stream, opts);
  std::cout << "differential: prefixes_checked=" << report.prefixes_checked
            << " closures=" << report.closures << " oracle_queries=" << report.oracle_queries
            << " batch_queries=" << report.batch_queries
            << " mismatches=" << report.mismatches.size() << "\n";
  for (const incremental::PrefixMismatch& m : report.mismatches) {
    std::cerr << "  mismatch prefix=" << m.prefix << ": " << m.detail << "\n";
  }
  if (report.failed() && !repro_dir.empty()) {
    // The failing prefix travels as a replayable stream: same header, the
    // first (prefix+1) inserts.
    std::filesystem::create_directories(repro_dir);
    const incremental::PrefixMismatch& first = report.mismatches.front();
    incremental::InsertStream repro = stream;
    repro.inserts.resize(std::min(repro.inserts.size(), first.prefix + 1));
    const std::string path =
        repro_dir + "/incr_repro_p" + std::to_string(first.prefix) + ".txt";
    std::ofstream out(path, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open repro file: " + path);
    incremental::write_stream(out, repro);
    std::cerr << "  repro=" << path << "\n";
  }
  return report.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace decycle;
  try {
    const util::Args args(argc, argv);

    if (args.get_bool("gen", false)) {
      return generate(args);
    }
    const std::string replay_path = args.get_string("replay", "");
    DECYCLE_CHECK_MSG(!replay_path.empty(),
                      "decycle_incr needs a mode: --gen or --replay=FILE (see file header)");
    const incremental::InsertStream stream = load_stream(replay_path);
    if (args.get_bool("differential", false)) {
      return replay_differential(stream, args);
    }
    args.reject_unknown();
    return replay_timed(stream);
  } catch (const util::CheckError& e) {
    std::cerr << "decycle_incr: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "decycle_incr: " << e.what() << "\n";
    return 3;
  }
}
