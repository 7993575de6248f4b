#include "replay.hpp"

#include <bit>
#include <exception>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "engine/engine.hpp"
#include "incremental/session.hpp"
#include "lab/scenario.hpp"
#include "serve/protocol.hpp"
#include "util/hash.hpp"

namespace perfbench {

namespace {

namespace serve = decycle::serve;
using decycle::graph::Vertex;

std::uint64_t edge_key(Vertex u, Vertex v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

/// One tenant thread's share of the replay.
struct TenantReplay {
  TenantReplay(bool on, std::uint32_t thread) : traced(on), tracer(false, thread) {}
  bool traced;
  Tracer tracer;  ///< records the timed requests only
  Digest digest;
  std::vector<double> timed_query_ms;
  std::map<std::string, AlgoStats> algos;
  std::uint64_t dirty_checkpoints = 0;
  std::exception_ptr error;
};

std::string insert_reply(std::size_t applied, const decycle::incremental::BatchVerdicts& v) {
  // The daemon's insert reply: applied count, closures, first closing index.
  std::string out = "OK insert applied=" + std::to_string(applied) +
                    " closures=" + std::to_string(v.closures) + " first_closure=";
  for (std::size_t i = 0; i < v.closed.size(); ++i) {
    if (v.closed[i] != 0) return out + std::to_string(i);
  }
  return out + "-";
}

void replay_tenant(decycle::engine::DetectionEngine& engine, const ReplayTenant& t,
                   std::uint64_t request_base, TenantReplay& r) {
  // Create, as the daemon does: family graph from the create seed, every
  // edge streamed through the session, then the first checkpoint.
  decycle::lab::ScenarioCell cell;
  cell.family = t.spec.family;
  cell.k = t.spec.k;
  cell.n = t.spec.n;
  decycle::util::Rng rng(decycle::util::hash_combine(t.spec.family_seed, 0x5e54e5e4ULL));
  const decycle::graph::Graph topology = decycle::lab::build_topology(cell, rng).graph;
  decycle::incremental::IncrementalSession session(engine, t.spec.name, topology.num_vertices());
  std::unordered_set<std::uint64_t> edge_keys;
  {
    std::vector<decycle::incremental::Insert> inserts;
    for (const auto& [u, v] : topology.edges()) {
      inserts.emplace_back(u, v);
      edge_keys.insert(edge_key(u, v));
    }
    (void)session.apply(inserts);
  }
  decycle::engine::PinnedGraphPtr pin = session.checkpoint();
  r.digest.add("OK create tenant=" + t.spec.name + " n=" +
               std::to_string(pin->graph.num_vertices()) +
               " m=" + std::to_string(pin->graph.num_edges()) + " hash=" + hex64(pin->hash));

  std::unordered_map<std::string, std::string> verdict_cache;
  serve::FrameReader reader;
  bool dirty = false;
  for (std::size_t j = 0; j < t.payloads.size(); ++j) {
    const std::uint64_t id = request_base + j;
    const bool timed = j >= t.timed_begin;
    r.tracer.enable(r.traced && timed && (j - t.timed_begin) % t.trace_stride == 0);
    const Clock::time_point start = Clock::now();
    std::string reply;
    {
      Tracer::Scope request_span(r.tracer, "serve.request", id);
      std::string payload;
      {
        Tracer::Scope s(r.tracer, "protocol.frame", id);
        reader.feed(serve::encode_frame(t.payloads[j]));
        if (reader.next(payload) != serve::FrameReader::Status::kFrame) {
          throw std::runtime_error("replay: frame did not decode: " + reader.error());
        }
      }
      serve::Request req;
      {
        Tracer::Scope s(r.tracer, "protocol.parse", id);
        req = serve::parse_request(payload);
      }
      if (req.verb == serve::Verb::kInsert) {
        // The daemon's duplicate guard, then purge and apply.
        for (const auto& [u, v] : req.edges) {
          if (u >= session.num_vertices() || v >= session.num_vertices() ||
              !edge_keys.insert(edge_key(u, v)).second) {
            throw std::runtime_error("replay: insert batch is not duplicate-free: " + payload);
          }
        }
        {
          Tracer::Scope s(r.tracer, "engine.purge", id);
          engine.sessions().purge(pin->hash);
        }
        decycle::incremental::BatchVerdicts verdicts;
        {
          Tracer::Scope s(r.tracer, "incremental.apply", id);
          verdicts = session.apply(req.edges);
        }
        reply = insert_reply(req.edges.size(), verdicts);
        dirty = true;
      } else if (req.verb == serve::Verb::kQuery) {
        {
          Tracer::Scope s(r.tracer, dirty ? "graph.checkpoint" : "graph.checkpoint_clean", id);
          pin = session.checkpoint();
        }
        r.dirty_checkpoints += dirty ? 1 : 0;
        dirty = false;
        const std::uint64_t epoch = pin->epoch.load(std::memory_order_acquire);
        // The daemon's verdict-cache identity.
        const std::string key = hex64(pin->hash) + "/" + std::to_string(epoch) + "/" +
                                std::string(req.model->name()) + "/" +
                                std::string(req.algo->name()) + "/" + std::to_string(req.k) +
                                "/" + hex64(std::bit_cast<std::uint64_t>(req.epsilon)) + "/" +
                                std::to_string(req.seed) + "/" + std::to_string(req.repetitions);
        if (const auto hit = verdict_cache.find(key); hit != verdict_cache.end()) {
          reply = hit->second;
        } else {
          decycle::core::DetectorOptions options;
          options.k = req.k;
          options.epsilon = req.epsilon;
          options.seed = req.seed;
          options.repetitions = req.repetitions;
          const std::string algo(req.algo->name());
          const char* run_span = span_name("core.run.", algo);
          decycle::core::Verdict verdict;
          if (req.algo->capabilities().simulator_reuse) {
            decycle::engine::SessionPool::Lease lease;
            {
              Tracer::Scope s(r.tracer, "engine.lease_hit", id);
              lease = engine.sessions().lease(pin, *req.model, options.delivery);
              if (!lease.cached()) s.rename("engine.lease_miss");
            }
            Tracer::Scope s(r.tracer, run_span, id);
            verdict = req.algo->run(lease.sim(), options);
          } else {
            Tracer::Scope s(r.tracer, run_span, id);
            const decycle::engine::Query query{
                .detector = req.algo, .options = options, .model = req.model};
            verdict = decycle::engine::DetectionEngine::run_uncached(pin->graph, pin->ids, query);
          }
          {
            Tracer::Scope s(r.tracer, "protocol.format", id);
            reply = "OK query " + serve::format_verdict(verdict);
          }
          verdict_cache.emplace(key, reply);
          if (timed) {
            AlgoStats& a = r.algos[algo];
            ++a.runs;
            a.rejections += verdict.accepted ? 0 : 1;
            a.messages += verdict.stats.total_messages;
            a.bits += verdict.stats.total_bits;
            a.rounds += verdict.stats.rounds_executed;
            a.max_link_bits += verdict.stats.max_link_bits;
          }
        }
      } else {
        throw std::runtime_error("replay: unexpected verb in a recorded stream: " + payload);
      }
      Tracer::Scope s(r.tracer, "protocol.frame", id);
      (void)serve::encode_frame(reply);
    }
    if (timed && reply.rfind("OK query ", 0) == 0) {
      r.timed_query_ms.push_back(1e3 * seconds_between(start, Clock::now()));
    }
    r.digest.add(reply);
  }
}

}  // namespace

ReplayResult replay(const std::vector<ReplayTenant>& tenants, bool traced) {
  // One engine for every tenant, as in the daemon: one session pool shared
  // across the tenant threads.
  decycle::engine::DetectionEngine engine(decycle::engine::EngineOptions{
      .pool = nullptr,
      .session_capacity = decycle::engine::SessionPool::kDefaultCapacity,
      .cache_sessions = true});
  ReplayResult out;
  out.origin = Clock::now();
  std::vector<TenantReplay> parts;
  parts.reserve(tenants.size());
  for (std::size_t i = 0; i < tenants.size(); ++i) {
    parts.emplace_back(traced, static_cast<std::uint32_t>(i));
  }
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      threads.emplace_back([&, i] {
        try {
          replay_tenant(engine, tenants[i], static_cast<std::uint64_t>(i) << 40, parts[i]);
        } catch (...) {
          parts[i].error = std::current_exception();
        }
      });
    }
  }
  for (TenantReplay& part : parts) {
    if (part.error) std::rethrow_exception(part.error);
    out.digests.push_back(part.digest.value());
    const std::vector<Span>& spans = part.tracer.spans();
    out.spans.insert(out.spans.end(), spans.begin(), spans.end());
    out.timed_query_ms.insert(out.timed_query_ms.end(), part.timed_query_ms.begin(),
                              part.timed_query_ms.end());
    for (const auto& [name, a] : part.algos) {
      AlgoStats& sum = out.algos[name];
      sum.runs += a.runs;
      sum.rejections += a.rejections;
      sum.messages += a.messages;
      sum.bits += a.bits;
      sum.rounds += a.rounds;
      sum.max_link_bits += a.max_link_bits;
    }
    out.dirty_checkpoints += part.dirty_checkpoints;
  }
  return out;
}

}  // namespace perfbench
