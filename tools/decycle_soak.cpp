/// \file decycle_soak.cpp
/// \brief Differential soak campaign CLI.
///
/// Walks the randomized soak instance space, runs every capability-
/// compatible detector of the built-in registry on each instance, cross-
/// checks all verdicts against the DFS oracle (soundness, exact-regime
/// completeness), shrinks every mismatch to a minimal repro file, and emits
/// a JSONL campaign log. Output is byte-identical for any --threads value;
/// a campaign is fully replayable from its --seed.
///
/// Campaign mode (one of --instances / --seconds required):
///   decycle_soak --instances=500 --seed=1 --threads=8 --repro-dir=repros
///   decycle_soak --seconds=120 --seed=42 --out=soak.jsonl
///
/// Replay mode:
///   decycle_soak --repro=repros/soak_repro_i17_tester.txt
/// exits 0 when the recorded mismatch still reproduces, 1 when it does not.
///
/// Serve mode (--serve): the same drawn instances are loaded into an
/// in-process decycle_serve server (empty create + incremental inserts) and
/// every capability-compatible detector is queried through the client path,
/// cross-checked byte-for-byte against a direct engine run — the serving
/// stack's differential. --serve-repro=FILE replays one recorded divergence.
///
/// Flags (both --key=value and "--key value" forms are accepted):
///   --instances=N   stop after N instances
///   --seconds=S     stop after ~S wall-clock seconds (batch granularity)
///   --seed=S        campaign seed (default 1)
///   --threads=N     instance-level worker threads (0 = serial, default)
///   --out=FILE      write the JSONL log to FILE instead of stdout
///   --repro-dir=DIR write one shrunk repro file per mismatch into DIR
///   --shrink=0|1    shrink mismatches before reporting (default 1)
///   --max-k=K --max-n=N  upper bounds of the drawn instance space
///   --progress      per-batch progress lines on stderr
///   --repro=FILE    replay a repro file instead of running a campaign
///   --serve         run the serve differential campaign instead
///   --serve-workers=N  server worker threads in --serve mode (default 4)
///   --serve-repro=FILE replay a serve repro file
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "soak/campaign.hpp"
#include "soak/repro.hpp"
#include "soak/serve_campaign.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/thread_pool.hpp"

namespace {

/// util::Args insists on --key=value; the soak CLI also accepts the
/// conventional "--key value" spelling (the ISSUE and CI scripts use both).
/// A bare --flag followed by a token that is not itself a flag is joined.
int replay(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DECYCLE_CHECK_MSG(in.good(), "cannot open --repro file: " + path);
  const decycle::soak::ReproCase repro = decycle::soak::read_repro(in);
  const decycle::soak::ReplayResult result = decycle::soak::replay_repro(repro);
  std::cout << "repro: detector=" << repro.detector
            << " recorded=" << decycle::soak::mismatch_kind_name(repro.kind)
            << " observed=" << decycle::soak::mismatch_kind_name(result.observed)
            << " vertices=" << repro.graph.num_vertices()
            << " edges=" << repro.graph.num_edges() << "\n";
  if (!result.detail.empty()) std::cout << "detail: " << result.detail << "\n";
  std::cout << (result.reproduced ? "REPRODUCED" : "DID NOT REPRODUCE") << "\n";
  return result.reproduced ? 0 : 1;
}

int replay_serve(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  DECYCLE_CHECK_MSG(in.good(), "cannot open --serve-repro file: " + path);
  const decycle::soak::ServeRepro repro = decycle::soak::read_serve_repro(in);
  const decycle::soak::ServeReplayResult result = decycle::soak::replay_serve_repro(repro);
  std::cout << "serve repro: requests=" << repro.requests.size() << "\n";
  std::cout << "served: " << result.served << "\n";
  std::cout << "direct: " << result.direct << "\n";
  std::cout << (result.reproduced ? "REPRODUCED" : "DID NOT REPRODUCE") << "\n";
  return result.reproduced ? 0 : 1;
}

int run_serve(const decycle::util::Args& args) {
  using namespace decycle;
  DECYCLE_CHECK_MSG(!args.has("threads"),
                    "--threads does not apply to --serve mode (use --serve-workers "
                    "for the server's worker pool)");
  DECYCLE_CHECK_MSG(!args.has("shrink"),
                    "--shrink does not apply to --serve mode (serve repros are "
                    "request transcripts, not graphs)");
  soak::ServeCampaignOptions opts;
  opts.seed = args.get_u64("seed", 1);
  opts.instances = args.get_u64("instances", 0);
  opts.seconds = args.get_double("seconds", 0.0);
  opts.repro_dir = args.get_string("repro-dir", "");
  opts.space.max_k = static_cast<unsigned>(args.get_u64("max-k", opts.space.max_k));
  opts.space.max_n = static_cast<graph::Vertex>(args.get_u64("max-n", opts.space.max_n));
  opts.server.workers = args.get_u64("serve-workers", opts.server.workers);
  const std::string out_path = args.get_string("out", "");
  if (args.get_bool("progress", false)) opts.progress = &std::cerr;
  args.reject_unknown();

  if (!opts.repro_dir.empty()) {
    std::filesystem::create_directories(opts.repro_dir);
  }
  const soak::ServeCampaignSummary summary = soak::run_serve_campaign(opts);

  if (out_path.empty()) {
    std::cout << summary.jsonl;
  } else {
    std::ofstream out(out_path, std::ios::binary);
    DECYCLE_CHECK_MSG(out.good(), "cannot open --out file: " + out_path);
    out << summary.jsonl;
    out.flush();
    DECYCLE_CHECK_MSG(out.good(), "failed writing --out file (disk full?): " + out_path);
  }

  std::cerr << "decycle_soak --serve: " << summary.instances << " instances, "
            << summary.queries << " queries cross-checked, " << summary.edges_inserted
            << " edges inserted, " << summary.mismatches.size() << " mismatches\n";
  for (const soak::ServeMismatch& m : summary.mismatches) {
    std::cerr << "  mismatch instance=" << m.instance_index << " request='" << m.request
              << "'" << (m.repro_path.empty() ? "" : " repro=" + m.repro_path) << "\n";
    std::cerr << "    served: " << m.served << "\n";
    std::cerr << "    direct: " << m.direct << "\n";
  }
  return summary.failed() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace decycle;
  try {
    const util::Args args(argc, argv);

    const std::string repro_path = args.get_string("repro", "");
    if (!repro_path.empty()) {
      args.reject_unknown();
      return replay(repro_path);
    }
    const std::string serve_repro_path = args.get_string("serve-repro", "");
    if (!serve_repro_path.empty()) {
      args.reject_unknown();
      return replay_serve(serve_repro_path);
    }
    if (args.get_bool("serve", false)) {
      return run_serve(args);
    }

    soak::CampaignOptions opts;
    opts.seed = args.get_u64("seed", 1);
    opts.instances = args.get_u64("instances", 0);
    opts.seconds = args.get_double("seconds", 0.0);
    opts.shrink = args.get_bool("shrink", true);
    opts.repro_dir = args.get_string("repro-dir", "");
    opts.space.max_k = static_cast<unsigned>(args.get_u64("max-k", opts.space.max_k));
    opts.space.max_n =
        static_cast<graph::Vertex>(args.get_u64("max-n", opts.space.max_n));
    const std::uint64_t threads = args.get_u64("threads", 0);
    const std::string out_path = args.get_string("out", "");
    const bool progress = args.get_bool("progress", false);
    args.reject_unknown();

    if (!opts.repro_dir.empty()) {
      std::filesystem::create_directories(opts.repro_dir);
    }
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    opts.pool = pool.get();
    if (progress) opts.progress = &std::cerr;

    const soak::CampaignSummary summary = soak::run_campaign(opts);

    if (out_path.empty()) {
      std::cout << summary.jsonl;
    } else {
      std::ofstream out(out_path, std::ios::binary);
      DECYCLE_CHECK_MSG(out.good(), "cannot open --out file: " + out_path);
      out << summary.jsonl;
      out.flush();
      DECYCLE_CHECK_MSG(out.good(), "failed writing --out file (disk full?): " + out_path);
    }

    std::cerr << "decycle_soak: " << summary.instances << " instances, "
              << summary.detector_runs << " detector runs, " << summary.mismatches.size()
              << " mismatches, far audit " << summary.far_rejections << "/"
              << summary.far_trials << "\n";
    for (const soak::MismatchRecord& m : summary.mismatches) {
      std::cerr << "  mismatch instance=" << m.instance_index << " detector="
                << m.repro.detector << " kind=" << soak::mismatch_kind_name(m.repro.kind)
                << " shrunk to " << m.repro.graph.num_vertices() << "v/"
                << m.repro.graph.num_edges() << "e"
                << (m.repro_path.empty() ? "" : " repro=" + m.repro_path) << "\n";
    }
    if (summary.completeness_violation) {
      std::cerr << "  completeness violation: certified-far amplified rejection rate "
                   "below 2/3\n";
    }
    return summary.failed() ? 1 : 0;
  } catch (const util::CheckError& e) {
    std::cerr << "decycle_soak: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "decycle_soak: " << e.what() << "\n";
    return 3;
  }
}
