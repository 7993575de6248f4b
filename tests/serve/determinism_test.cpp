/// \file determinism_test.cpp
/// \brief The serving determinism contract: a closed-loop workload observes
/// byte-identical per-tenant verdict multisets and final graph hashes at
/// any worker count, any client thread count, and any verdict-cache state.
#include "serve/loadgen.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "serve/server.hpp"

namespace decycle::serve {
namespace {

LoadgenSpec test_spec() {
  LoadgenSpec spec;
  spec.tenants = 5;
  spec.client_threads = 4;
  spec.n = 24;
  spec.ops_per_tenant = 16;
  spec.seed = 42;
  return spec;
}

LoadgenReport run_with(const LoadgenSpec& spec, ServerOptions options) {
  Server server(std::move(options));
  server.start();
  LoadgenReport report =
      run_loadgen(spec, [&server] { return std::make_unique<InProcessClient>(server); });
  server.stop();
  return report;
}

void expect_reports_equal(const LoadgenReport& a, const LoadgenReport& b) {
  EXPECT_EQ(a.aggregate_digest, b.aggregate_digest);
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t i = 0; i < a.tenants.size(); ++i) {
    const TenantOutcome& ta = a.tenants[i];
    const TenantOutcome& tb = b.tenants[i];
    EXPECT_EQ(ta.verdict_multiset, tb.verdict_multiset) << "tenant " << ta.name;
    EXPECT_EQ(ta.reply_digest, tb.reply_digest) << "tenant " << ta.name;
    EXPECT_EQ(ta.final_hash, tb.final_hash) << "tenant " << ta.name;
    EXPECT_EQ(ta.queries, tb.queries) << "tenant " << ta.name;
    EXPECT_EQ(ta.accepted, tb.accepted) << "tenant " << ta.name;
    EXPECT_EQ(ta.rejected, tb.rejected) << "tenant " << ta.name;
    EXPECT_EQ(ta.edges_inserted, tb.edges_inserted) << "tenant " << ta.name;
    EXPECT_EQ(ta.errors, 0u) << "tenant " << ta.name;
  }
  EXPECT_EQ(a.total_queries, b.total_queries);
  EXPECT_EQ(a.total_accepted, b.total_accepted);
  EXPECT_EQ(a.total_errors, 0u);
  EXPECT_EQ(b.total_errors, 0u);
}

TEST(ServeDeterminism, OneVsEightWorkers) {
  const LoadgenSpec spec = test_spec();
  ServerOptions one;
  one.workers = 1;
  ServerOptions eight;
  eight.workers = 8;
  expect_reports_equal(run_with(spec, one), run_with(spec, eight));
}

TEST(ServeDeterminism, RerunIsReproducible) {
  const LoadgenSpec spec = test_spec();
  ServerOptions options;
  options.workers = 4;
  expect_reports_equal(run_with(spec, options), run_with(spec, options));
}

TEST(ServeDeterminism, ClientThreadCountIsInvisible) {
  LoadgenSpec narrow = test_spec();
  narrow.client_threads = 1;
  LoadgenSpec wide = test_spec();
  wide.client_threads = 5;
  ServerOptions options;
  options.workers = 4;
  expect_reports_equal(run_with(narrow, options), run_with(wide, options));
}

TEST(ServeDeterminism, VerdictCacheIsInvisible) {
  const LoadgenSpec spec = test_spec();
  ServerOptions cached;
  cached.workers = 4;
  ServerOptions uncached;
  uncached.workers = 4;
  uncached.verdict_cache_capacity = 0;
  expect_reports_equal(run_with(spec, cached), run_with(spec, uncached));
}

TEST(ServeDeterminism, SeedChangesTheWorkload) {
  LoadgenSpec spec = test_spec();
  ServerOptions options;
  options.workers = 4;
  const LoadgenReport base = run_with(spec, options);
  spec.seed = 43;
  const LoadgenReport other = run_with(spec, options);
  EXPECT_NE(base.aggregate_digest, other.aggregate_digest);
}

}  // namespace
}  // namespace decycle::serve
