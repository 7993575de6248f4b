/// \file m10_serve_micro.cpp
/// \brief Micro-benchmark M10 — serving-layer latency SLOs and throughput.
///
/// Gates the PR 10 serving daemon (serve::Server) end to end — parse,
/// admission, worker queue, verdict cache, reply formatting — at
/// n ∈ {10k, 100k} on the cycle family with edge_checker k=5 queries:
///
///   * miss path ("cold"): every query unique, so each one is a verdict-
///     cache miss that runs the detector on a cached engine session — the
///     per-query cost a fresh question actually pays;
///   * hit path ("cached"): closed-loop clients replay a small distinct
///     query set after a warmup pass, so the verdict cache answers from
///     memoized reply bodies — the cost of asking an answered question.
///     Swept over server worker counts {1, 4, 8}; every sweep's reply
///     multiset (commutative FNV fold) must agree with workers=1, and the
///     server's own ServeStats supplies p50/p95/p99.
///
/// Full-mode acceptance (skipped under --smoke): the hit path at n=10k,
/// 8 workers must sustain >= 50k queries/sec with p99 < 5 ms.
///
/// Writes BENCH_serve.json (override with --out=PATH); --smoke shrinks to
/// n=10k and small query counts for CI.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "serve/server.hpp"
#include "serve/stats.hpp"

namespace {

using namespace decycle;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string query_payload(std::uint64_t seed) {
  return "query tenant=bench algo=edge_checker k=5 eps=0.25 seed=" + std::to_string(seed) +
         " reps=1";
}

serve::ServerOptions server_options(std::size_t workers) {
  serve::ServerOptions options;
  options.workers = workers;
  options.queue_capacity = 4096;
  options.tenant_inflight_cap = 4096;  // the bench is one hot tenant by design
  return options;
}

void create_bench_tenant(serve::Server& server, graph::Vertex n, bool& ok) {
  const std::string reply =
      server.call("create tenant=bench n=" + std::to_string(n) + " family=cycle k=5 seed=7");
  if (!serve::is_ok(reply)) {
    std::fprintf(stderr, "FAILED: create: %s\n", reply.c_str());
    ok = false;
  }
}

struct HitRow {
  std::size_t workers = 0;
  double seconds = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  std::uint64_t multiset = 0;  ///< commutative reply fold (cross-check)
};

struct SizeRow {
  graph::Vertex n = 0;
  std::size_t miss_queries = 0;
  double miss_ms_per_query = 0;
  std::size_t hit_queries = 0;
  std::size_t distinct = 0;
  std::vector<HitRow> hits;
};

bool check(bool okay, const char* what) {
  if (!okay) std::fprintf(stderr, "FAILED: %s\n", what);
  return okay;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strncmp(argv[i], "--out=", 6) == 0) out_path = argv[i] + 6;
  }
  bool ok = true;

  const std::vector<graph::Vertex> sizes = smoke ? std::vector<graph::Vertex>{10'000}
                                                 : std::vector<graph::Vertex>{10'000, 100'000};
  const std::vector<std::size_t> worker_counts = {1, 4, 8};
  const std::size_t client_threads = 8;
  const std::size_t distinct = 64;  ///< hit-phase distinct query set

  std::vector<SizeRow> rows;
  for (const graph::Vertex n : sizes) {
    SizeRow row;
    row.n = n;
    row.distinct = distinct;
    row.miss_queries = smoke ? 8 : (n >= 100'000 ? 16 : 64);
    // Total hit-path queries across clients: large enough that queueing and
    // cache-probe costs dominate warmup noise.
    row.hit_queries = smoke ? 2'000 : 20'000;

    // --- Miss path: unique queries, verdict cache can never hit. ---
    {
      serve::Server server(server_options(8));
      server.start();
      create_bench_tenant(server, n, ok);
      (void)server.call(query_payload(999'999));  // warm the engine session
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t q = 0; q < row.miss_queries; ++q) {
        const std::string reply = server.call(query_payload(1'000 + q));
        if (!serve::is_ok(reply)) {
          std::fprintf(stderr, "FAILED: miss query: %s\n", reply.c_str());
          ok = false;
        }
      }
      row.miss_ms_per_query =
          seconds_since(t0) * 1e3 / static_cast<double>(row.miss_queries);
      const serve::Server::CacheStats cache = server.verdict_cache_stats();
      ok &= check(cache.hits == 0, "miss phase saw a verdict-cache hit");
      server.stop();
    }

    // --- Hit path: warm the distinct set, then hammer it closed-loop. ---
    for (const std::size_t workers : worker_counts) {
      serve::Server server(server_options(workers));
      server.start();
      create_bench_tenant(server, n, ok);
      for (std::size_t q = 0; q < distinct; ++q) (void)server.call(query_payload(q));

      const std::size_t per_thread = row.hit_queries / client_threads;
      std::vector<std::uint64_t> folds(client_threads, 0);
      const auto t0 = std::chrono::steady_clock::now();
      {
        std::vector<std::thread> clients;
        clients.reserve(client_threads);
        for (std::size_t c = 0; c < client_threads; ++c) {
          clients.emplace_back([&server, &folds, c, per_thread, distinct] {
            std::uint64_t fold = 0;
            for (std::size_t q = 0; q < per_thread; ++q) {
              const std::string reply =
                  server.call(query_payload((c * per_thread + q) % distinct));
              fold += fnv1a(reply);  // wrapping sum: order-independent
            }
            folds[c] = fold;
          });
        }
        for (std::thread& t : clients) t.join();
      }
      HitRow hit;
      hit.workers = workers;
      hit.seconds = seconds_since(t0);
      hit.qps = hit.seconds > 0
                    ? static_cast<double>(per_thread * client_threads) / hit.seconds
                    : 0;
      for (const std::uint64_t f : folds) hit.multiset += f;
      const serve::LatencySnapshot snap = server.stats().global();
      hit.p50_ms = snap.p50_ms;
      hit.p95_ms = snap.p95_ms;
      hit.p99_ms = snap.p99_ms;
      ok &= check(server.stats().queue().shed_total == 0, "hit phase shed requests");
      server.stop();
      row.hits.push_back(hit);
    }
    for (const HitRow& hit : row.hits) {
      ok &= check(hit.multiset == row.hits.front().multiset,
                  "reply multiset differs across worker counts");
    }

    rows.push_back(row);
    std::printf("n=%-8u miss %8.3f ms/q\n", row.n, row.miss_ms_per_query);
    for (const HitRow& hit : row.hits) {
      std::printf("  cached workers=%zu  %9.1f q/s  p50 %6.3f ms  p95 %6.3f ms  p99 %6.3f ms\n",
                  hit.workers, hit.qps, hit.p50_ms, hit.p95_ms, hit.p99_ms);
    }
  }

  // Headline acceptance: cached 10k-node serving at 8 workers sustains
  // >= 50k q/s with p99 < 5 ms (full mode only — smoke counts are tiny).
  if (!smoke) {
    for (const SizeRow& row : rows) {
      if (row.n != 10'000) continue;
      for (const HitRow& hit : row.hits) {
        if (hit.workers != 8) continue;
        ok &= check(hit.qps >= 50'000.0, "cached 10k serving under 50k queries/sec");
        ok &= check(hit.p99_ms < 5.0, "cached 10k serving p99 >= 5 ms");
      }
    }
  }

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"m10_serve_micro\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f, "  \"hardware_threads\": %u,\n", std::thread::hardware_concurrency());
    std::fprintf(f, "  \"workload\": \"edge_checker k=5 on family=cycle, %zu client threads\",\n",
                 client_threads);
    std::fprintf(f, "  \"sizes\": [\n");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const SizeRow& r = rows[i];
      std::fprintf(f,
                   "    {\"n\": %u, \"miss_queries\": %zu, \"miss_ms_per_query\": %.4f,\n"
                   "     \"hit_queries\": %zu, \"distinct\": %zu,\n     \"cached\": [",
                   r.n, r.miss_queries, r.miss_ms_per_query, r.hit_queries, r.distinct);
      for (std::size_t j = 0; j < r.hits.size(); ++j) {
        const HitRow& h = r.hits[j];
        std::fprintf(f,
                     "%s\n       {\"workers\": %zu, \"seconds\": %.6f, "
                     "\"queries_per_sec\": %.1f, \"p50_ms\": %.4f, \"p95_ms\": %.4f, "
                     "\"p99_ms\": %.4f}",
                     j == 0 ? "" : ",", h.workers, h.seconds, h.qps, h.p50_ms, h.p95_ms,
                     h.p99_ms);
      }
      std::fprintf(f, "\n     ]}%s\n", i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "FAILED: cannot open %s for writing\n", out_path.c_str());
    ok = false;
  }

  return ok ? 0 : 1;
}
