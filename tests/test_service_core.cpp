// Service core (src/service/service.hpp): artifact keys, the artifact
// cache, admission quotas, failure memoization, and the machine-readable
// stats documents (run_stats_json / ServiceCore::stats_json).
#include <gtest/gtest.h>

#include <string>

#include "service/service.hpp"
#include "service/stats_json.hpp"
#include "support/json.hpp"

namespace f90d {
namespace {

using service::ArtifactPtr;
using service::Outcome;
using service::RunSpec;
using service::ServiceCore;
using service::ServiceOptions;

/// Self-initializing irregular program (FORALL index-map setup), so it
/// runs correctly from zero-filled storage — the daemon's init contract.
std::string self_init_source(int n, int p) {
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(PROGRAM SVC
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) U(I) = MOD(I * 7 + 3, N) + 1
      FORALL (I = 1:N) B(I) = I * 2.0
      FORALL (I = 1:N) A(U(I)) = B(I) + 1.0
      END PROGRAM SVC
)",
                n, p);
  return buf;
}

TEST(ServiceKeys, StableAndSensitiveToSourceAndOptions) {
  const std::string src = self_init_source(64, 4);
  RunSpec spec;
  const std::string k = service::artifact_key(src, spec);
  EXPECT_EQ(k.size(), 16u);  // fnv1a hex64
  EXPECT_EQ(k, service::artifact_key(src, spec));

  EXPECT_NE(k, service::artifact_key(self_init_source(65, 4), spec));

  RunSpec grid_spec;
  grid_spec.grid = {2};
  EXPECT_NE(k, service::artifact_key(src, grid_spec));

  RunSpec o0_spec;
  o0_spec.codegen = compile::CodegenOptions::all_off();
  EXPECT_NE(k, service::artifact_key(src, o0_spec));

  // Run-only settings are NOT part of the compile key.
  RunSpec run_spec;
  run_spec.run.native_backend = true;
  run_spec.compile_only = true;
  EXPECT_EQ(k, service::artifact_key(src, run_spec));
}

TEST(ServiceArtifactCache, SecondLookupHitsAndSharesTheArtifact) {
  service::ArtifactCache cache;
  const std::string src = self_init_source(64, 4);
  const ArtifactPtr a = cache.get_or_compile(src, RunSpec{});
  const ArtifactPtr b = cache.get_or_compile(src, RunSpec{});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a.get(), b.get());  // one immutable artifact, shared
  ASSERT_NE(a->compiled, nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ServiceArtifactCache, CompileFailureIsMemoized) {
  service::ArtifactCache cache;
  const std::string bad = "PROGRAM NOPE\n      THIS IS NOT FORTRAN(\n      END\n";
  const ArtifactPtr a = cache.get_or_compile(bad, RunSpec{});
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->compiled, nullptr);
  EXPECT_FALSE(a->error.empty());
  const ArtifactPtr b = cache.get_or_compile(bad, RunSpec{});
  EXPECT_EQ(a.get(), b.get());  // no recompile of a known-bad source
  EXPECT_EQ(cache.stats().hits, 1);
}

TEST(ServiceCoreTest, SubmitRunsAndSecondRequestHitsEverything) {
  ServiceCore core;
  const std::string src = self_init_source(96, 4);
  const Outcome first = core.submit(src, RunSpec{});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.artifact_hit);
  EXPECT_EQ(first.nprocs, 4);
  EXPECT_GT(first.result.real_arrays.at("A").size(), 0u);

  const Outcome second = core.submit(src, RunSpec{});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.artifact_hit);
  // Cross-run sharing: the second run builds no schedules at all.
  EXPECT_EQ(second.result.schedule_misses, 0);
  EXPECT_EQ(second.result.shared_schedule_hits, first.result.schedule_misses);
  EXPECT_EQ(second.result.real_arrays.at("A"),
            first.result.real_arrays.at("A"));
  EXPECT_EQ(core.requests(), 2);
  EXPECT_EQ(core.failures(), 0);
}

TEST(ServiceCoreTest, CompileMsIsZeroOnArtifactHits) {
  ServiceCore core;
  const std::string src = self_init_source(96, 4);
  const Outcome first = core.submit(src, RunSpec{});
  ASSERT_TRUE(first.ok) << first.error;
  EXPECT_FALSE(first.artifact_hit);
  EXPECT_GT(first.compile_ms, 0);
  double v = -1;
  ASSERT_TRUE(json_find_number(service::run_stats_json(first), "compile_ms", v));
  EXPECT_GT(v, 0);

  const Outcome second = core.submit(src, RunSpec{});
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(second.artifact_hit);
  EXPECT_EQ(second.compile_ms, 0);
  const std::string doc = service::run_stats_json(second);
  EXPECT_NE(doc.find("\"artifact_hit\":true"), std::string::npos);
  ASSERT_TRUE(json_find_number(doc, "compile_ms", v));
  EXPECT_EQ(v, 0);
}

TEST(ServiceCoreTest, SourceQuotaRejectsOversizedRequests) {
  ServiceOptions opt;
  opt.max_source_bytes = 16;
  ServiceCore core(opt);
  const Outcome out = core.submit(self_init_source(64, 4), RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_source_bytes"), std::string::npos);
  EXPECT_EQ(core.failures(), 1);
}

TEST(ServiceCoreTest, ProcQuotaRejectsOversizedGrids) {
  ServiceOptions opt;
  opt.max_procs = 2;
  ServiceCore core(opt);
  const Outcome out = core.submit(self_init_source(64, 4), RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("max_procs"), std::string::npos);
}

TEST(ServiceCoreTest, CompileErrorComesBackAsOutcomeNotThrow) {
  ServiceCore core;
  const Outcome out = core.submit("PROGRAM X\n      FORALL (\n      END\n",
                                  RunSpec{});
  EXPECT_FALSE(out.ok);
  EXPECT_FALSE(out.error.empty());
  EXPECT_EQ(core.failures(), 1);
}

TEST(ServiceCoreTest, CompileOnlySkipsTheRun) {
  ServiceCore core;
  RunSpec spec;
  spec.compile_only = true;
  const Outcome out = core.submit(self_init_source(64, 4), spec);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_EQ(out.nprocs, 4);
  ASSERT_NE(out.compiled, nullptr);
  EXPECT_EQ(out.result.real_arrays.count("A"), 0u);
}

TEST(ServiceStats, RunStatsJsonCarriesTheRunCounters) {
  const Outcome out =
      service::compile_and_run(self_init_source(96, 4), RunSpec{});
  ASSERT_TRUE(out.ok);
  const std::string doc = service::run_stats_json(out);
  EXPECT_NE(doc.find("\"ok\":true"), std::string::npos);
  EXPECT_NE(doc.find("\"artifact_key\":\"" + out.key + "\""), std::string::npos);
  double v = 0;
  ASSERT_TRUE(json_find_number(doc, "nprocs", v));
  EXPECT_EQ(static_cast<int>(v), 4);
  ASSERT_TRUE(json_find_number(doc, "misses", v));
  EXPECT_EQ(static_cast<int>(v), out.result.schedule_misses);
  for (const char* key :
       {"machine", "schedule_cache", "plan_cache", "irregular_cache",
        "comm_plan_cache", "bytes_memcpy_fast_path", "pool_reuses", "native",
        "procs"})
    EXPECT_NE(doc.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
}

TEST(ServiceStats, CoreStatsJsonAggregates) {
  ServiceCore core;
  (void)core.submit(self_init_source(96, 4), RunSpec{});
  (void)core.submit(self_init_source(96, 4), RunSpec{});
  const std::string doc = core.stats_json();
  double v = 0;
  ASSERT_TRUE(json_find_number(doc, "requests", v));
  EXPECT_EQ(static_cast<int>(v), 2);
  for (const char* key : {"artifacts", "shared_schedules", "shared_plan_meta"})
    EXPECT_NE(doc.find(std::string("\"") + key + "\""), std::string::npos)
        << key;
}

}  // namespace
}  // namespace f90d
