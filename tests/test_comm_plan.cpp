// Communication-plan layer (exec/comm_plan.hpp), the one path every
// regular pre-communication action runs through: differential sweeps of
// the plan rungs (comm plans cached per statement) against the tree rung
// (comm plans built per execution, generic PARTI executors) that must be
// bit-identical in array contents AND exactly equal in simulated time /
// wire traffic, INTEGER and LOGICAL slabs and out-of-range subscripts on
// every mode, cache hit/miss/invalidation accounting, pooled payload reuse,
// and the redistribution invalidation contract.  The absolute traffic is
// pinned separately by test_golden_traffic.
#include <gtest/gtest.h>

#include "compile/driver.hpp"
#include "support/diag.hpp"
#include "harness.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions comm_on() { return {}; }

/// The tree rung: no execution plans, so no cached comm plans and no
/// compiled PARTI executors.
interp::RunOptions comm_off() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

interp::RunOptions comm_on_native() {
  interp::RunOptions ro;
  ro.native_backend = true;
  return ro;
}

/// The faithfulness contract: identical bits and identical simulated time.
void expect_same_run(const DiffRun& on, const DiffRun& off,
                     const std::string& what) {
  ASSERT_EQ(on.got.size(), off.got.size()) << what;
  for (size_t k = 0; k < on.got.size(); ++k)
    ASSERT_EQ(on.got[k], off.got[k]) << what << " element " << k;
  EXPECT_EQ(on.sim_time, off.sim_time) << what << " sim_seconds";
}

TEST(CommPlanParity, JacobiShiftsAcrossGridsAndDists) {
  for (const auto& [p, q] : {std::pair{2, 2}, {1, 4}, {3, 3}}) {
    for (const char* dist : {"BLOCK", "CYCLIC(2)"}) {
      const std::string what = std::string("jacobi ") + std::to_string(p) +
                               "x" + std::to_string(q) + " " + dist;
      auto off = harness::run_jacobi(16, 3, p, q, dist, comm_off());
      auto on = harness::run_jacobi(16, 3, p, q, dist, comm_on());
      auto nat = harness::run_jacobi(16, 3, p, q, dist, comm_on_native());
      expect_same_run(on, off, what);
      expect_same_run(nat, off, what + " native");
      EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
    }
  }
}

TEST(CommPlanParity, GaussBcastMulticastTransfer) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    const std::string what = std::string("gauss ") + dist;
    auto off = harness::run_gauss(12, 4, dist, comm_off());
    auto on = harness::run_gauss(12, 4, dist, comm_on());
    auto nat = harness::run_gauss(12, 4, dist, comm_on_native());
    expect_same_run(on, off, what);
    expect_same_run(nat, off, what + " native");
    EXPECT_LE(harness::max_abs_diff(off, harness::gauss_defined_region(12)),
              1e-6)
        << what;
  }
}

TEST(CommPlanParity, IrregularGatherScatterExecutors) {
  {
    auto off = harness::run_irregular(32, 2, 4, comm_off());
    auto on = harness::run_irregular(32, 2, 4, comm_on());
    expect_same_run(on, off, "irregular");
    EXPECT_LE(harness::max_abs_diff(off), 1e-9);
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("spmv ") + dist;
    auto off = harness::run_spmv_ell(24, 3, 2, 4, dist, comm_off());
    auto on = harness::run_spmv_ell(24, 3, 2, 4, dist, comm_on());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
  for (const char* dist : {"BLOCK", "INDIRECT(MAP)"}) {
    const std::string what = std::string("particle_bin ") + dist;
    auto off = harness::run_particle_bin(32, 2, 4, dist, comm_off());
    auto on = harness::run_particle_bin(32, 2, 4, dist, comm_on());
    expect_same_run(on, off, what);
    EXPECT_LE(harness::max_abs_diff(off), 1e-9) << what;
  }
}

TEST(CommPlanParity, FftNonCanonicalLhs) {
  auto off = harness::run_fft(16, 3, 4, comm_off());
  auto on = harness::run_fft(16, 3, 4, comm_on());
  expect_same_run(on, off, "fft");
  EXPECT_LE(harness::max_abs_diff(off), 1e-9);
}

TEST(CommPlanParity, WireTrafficIdentical) {
  // Messages and bytes on the simulated wire must not change by a single
  // message or byte — the plans pack the same slabs to the same peers.
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  const std::string src = apps::jacobi_source(16, 2, 2, 4, "BLOCK");
  auto off = harness::run_source(src, init, comm_off());
  auto on = harness::run_source(src, init, comm_on());
  EXPECT_EQ(on.machine.total_messages(), off.machine.total_messages());
  EXPECT_EQ(on.machine.total_bytes(), off.machine.total_bytes());
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);
}

TEST(CommPlanStats, WarmTripsHitTheCache) {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  auto r = harness::run_source(apps::jacobi_source(16, 2, 2, 6, "BLOCK"), init,
                               comm_on());
  // First trip builds (misses), the remaining five reuse: strictly more
  // hits than misses on a six-trip loop.
  EXPECT_GT(r.comm_plan_misses, 0);
  EXPECT_GT(r.comm_plan_hits, r.comm_plan_misses);
  EXPECT_EQ(r.comm_plan_invalidations, 0);
  // Jacobi's boundary slabs along the contiguous dimension coalesce to
  // memcpy runs.
  EXPECT_GT(r.comm_plan_fast_bytes, 0);
  // Steady state recycles pooled payload buffers for every message.
  EXPECT_GT(r.pool_reuses, 0);
}

TEST(CommPlanStats, DisabledRunsCollectNoCommPlanStats) {
  // The tree rung caches nothing: its per-execution comm plans (jacobi's
  // overlap shifts) are not counted, and the irregular gathers/scatters
  // run on the generic PARTI executors.
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", comm_off());
  EXPECT_EQ(r.comm_plan_hits, 0);
  EXPECT_EQ(r.comm_plan_misses, 0);
  EXPECT_EQ(r.comm_plan_invalidations, 0);
  EXPECT_EQ(r.comm_plan_fast_bytes, 0);
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);

  auto irr = harness::run_irregular(32, 2, 4, comm_off());
  EXPECT_GT(irr.schedule_hits, 0);  // PARTI ran, through generic executors
  EXPECT_EQ(irr.comm_plan_hits, 0);
  EXPECT_EQ(irr.comm_plan_misses, 0);
  EXPECT_LE(harness::max_abs_diff(irr), 1e-9);
}

TEST(CommPlanInvalidate, ArrayIntrinsicDropsBoundPlans) {
  // The FORALL's overlap shift bakes A's storage geometry; the CSHIFT
  // assignment rewrites A wholesale between trips, so the redistribution
  // contract must drop the statement's comm plan and rebuild next trip.
  const char* src = R"(PROGRAM SHIFTY
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL B(N)
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 1:N-1) B(I) = A(I+1)
        A = CSHIFT(B, 1)
      END DO
      END PROGRAM SHIFTY
)";
  auto run = [&](const interp::RunOptions& ro) {
    auto compiled = compile::compile_source(src);
    machine::SimMachine m = harness::make_machine(4);
    interp::Init init;
    init.real["A"] = [](std::span<const Index> g) {
      return static_cast<double>(g[0]);
    };
    return interp::run_compiled(compiled, m, init, ro);
  };
  auto on = run(comm_on());
  auto off = run(comm_off());
  EXPECT_GT(on.comm_plan_invalidations, 0);
  ASSERT_EQ(on.real_arrays.at("A").size(), off.real_arrays.at("A").size());
  for (size_t k = 0; k < off.real_arrays.at("A").size(); ++k)
    ASSERT_EQ(on.real_arrays.at("A")[k], off.real_arrays.at("A")[k])
        << "element " << k;
  EXPECT_EQ(on.machine.exec_time, off.machine.exec_time);

  // Oracle: three rounds of B(1:N-1) = A(2:N); A = CSHIFT(B, 1).
  std::vector<double> a(16), b(16, 0.0);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i;
  for (int it = 0; it < 3; ++it) {
    for (int i = 0; i < 15; ++i)
      b[static_cast<size_t>(i)] = a[static_cast<size_t>(i + 1)];
    std::vector<double> sh(16);
    for (int i = 0; i < 16; ++i)
      sh[static_cast<size_t>(i)] = b[static_cast<size_t>((i + 1) % 16)];
    a = sh;
  }
  for (size_t k = 0; k < a.size(); ++k)
    EXPECT_EQ(on.real_arrays.at("A")[k], a[k]) << "oracle element " << k;
}

// --- every mode, one path ---------------------------------------------------

std::vector<std::pair<const char*, interp::RunOptions>> all_modes() {
  interp::RunOptions skeleton;
  skeleton.skeleton = true;
  return {{"tree", comm_off()},
          {"plan", comm_on()},
          {"native", comm_on_native()},
          {"skeleton", skeleton}};
}

/// A multicast slab of INTEGER storage (IA(K,J)) and a LOGICAL one (the
/// mask L(K,J)) on a p x q grid: the slab travels as doubles and each rung
/// converts it back on read.
std::string typed_slab_source(int p, int q) {
  return strformat(R"(PROGRAM TSLAB
      INTEGER N
      PARAMETER (N = 8)
      INTEGER IA(N,N)
      LOGICAL L(N,N)
      REAL B(N,N)
      REAL C(N,N)
      INTEGER K
C$ PROCESSORS P(%d,%d)
C$ TEMPLATE T(N,N)
C$ DISTRIBUTE T(BLOCK,BLOCK)
C$ ALIGN IA(I,J) WITH T(I,J)
C$ ALIGN L(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ ALIGN C(I,J) WITH T(I,J)
      FORALL (I = 1:N, J = 1:N) IA(I,J) = I + 10*J
      FORALL (I = 1:N, J = 1:N) L(I,J) = MOD(I + J, 2) .EQ. 0
      FORALL (I = 1:N, J = 1:N) C(I,J) = 0.0
      K = 3
      FORALL (I = 1:N, J = 1:N) B(I,J) = IA(K,J) + 0.5
      FORALL (I = 1:N, J = 1:N, L(K,J)) C(I,J) = 1.0
      END PROGRAM TSLAB
)",
                   p, q);
}

TEST(CommPlanSlab, IntegerAndLogicalSlabsMatchOracleOnEveryMode) {
  for (const auto& [p, q] : {std::pair{2, 2}, {1, 4}}) {
    const std::string src = typed_slab_source(p, q);
    double sim = -1;
    for (const auto& [mode, ro] : all_modes()) {
      const std::string what =
          strformat("%dx%d %s", p, q, mode);
      interp::ProgramResult r;
      ASSERT_NO_THROW(r = harness::run_source(src, {}, ro)) << what;
      if (sim < 0) sim = r.machine.exec_time;
      EXPECT_EQ(r.machine.exec_time, sim) << what;
      if (ro.skeleton) continue;  // no arrays gathered
      const auto& b = r.real_arrays.at("B");
      const auto& c = r.real_arrays.at("C");
      for (int i = 1; i <= 8; ++i) {
        for (int j = 1; j <= 8; ++j) {
          const size_t k = static_cast<size_t>((i - 1) * 8 + (j - 1));
          EXPECT_EQ(b[k], 3 + 10 * j + 0.5) << what << " B" << i << "," << j;
          EXPECT_EQ(c[k], (3 + j) % 2 == 0 ? 1.0 : 0.0)
              << what << " C" << i << "," << j;
        }
      }
    }
  }
}

TEST(CommPlanSlab, TwoSlabVariablesInOneSubscriptOnEveryMode) {
  // A(K, J+L): the multicast slab's collapsed dimension mixes both slab
  // variables, so its offsets are tabulated per element.
  const std::string src = R"(PROGRAM TWOVAR
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N,16)
      REAL B(N,4,4)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N,16)
C$ TEMPLATE T3(N,4,4)
C$ DISTRIBUTE T(BLOCK,*)
C$ DISTRIBUTE T3(BLOCK,*,*)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J,L) WITH T3(I,J,L)
      FORALL (I = 1:N, J = 1:16) A(I,J) = I + 100*J
      K = 3
      FORALL (I = 1:N, J = 1:4, L = 1:4) B(I,J,L) = A(K, J+L)
      END PROGRAM TWOVAR
)";
  double sim = -1;
  for (const auto& [mode, ro] : all_modes()) {
    interp::ProgramResult r;
    ASSERT_NO_THROW(r = harness::run_source(src, {}, ro)) << mode;
    EXPECT_GT(r.machine.total_messages(), 0u) << mode;
    if (sim < 0) sim = r.machine.exec_time;
    EXPECT_EQ(r.machine.exec_time, sim) << mode;
    if (ro.skeleton) continue;
    const auto& b = r.real_arrays.at("B");
    for (int i = 1; i <= 8; ++i)
      for (int j = 1; j <= 4; ++j)
        for (int l = 1; l <= 4; ++l)
          EXPECT_EQ(b[static_cast<size_t>(((i - 1) * 4 + (j - 1)) * 4 + l - 1)],
                    3 + 100 * (j + l))
              << mode << " B" << i << "," << j << "," << l;
  }
}

/// The error text of one run ("" when it completes).
std::string run_error(const std::string& src, const interp::Init& init,
                      const interp::RunOptions& ro) {
  try {
    (void)harness::run_source(src, init, ro);
    return "";
  } catch (const Error& e) {
    return e.what();
  }
}

TEST(CommPlanDiagnostics, OutOfRangeBroadcastSubscriptSameOnEveryMode) {
  // A(K) is a broadcast element; K = N + 1 leaves A.
  const std::string src = R"(PROGRAM BRANGE
      INTEGER N
      PARAMETER (N = 8)
      REAL A(N)
      REAL B(N)
      INTEGER K
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      FORALL (I = 1:N) B(I) = A(K) + 1.0
      END PROGRAM BRANGE
)";
  interp::Init good;
  good.scalars["K"] = 3;
  interp::Init bad;
  bad.scalars["K"] = 9;
  const std::string want =
      "at source line 12 (stmt kind 0): rts: subscript 9 of A is out of "
      "range [1, 8] in dimension 1";
  for (const auto& [mode, ro] : all_modes()) {
    EXPECT_EQ(run_error(src, good, ro), "") << mode;
    EXPECT_EQ(run_error(src, bad, ro), want) << mode;
  }
}

TEST(CommPlanDiagnostics, OutOfRangeSlabRootSameOnEveryMode) {
  // IA(K,J)'s multicast root leaves IA at K = 9.
  std::string src = typed_slab_source(2, 2);
  const size_t at = src.find("K = 3");
  ASSERT_NE(at, std::string::npos);
  src.replace(at, 5, "K = 9");
  for (const auto& [mode, ro] : all_modes())
    EXPECT_EQ(run_error(src, {}, ro),
              "at source line 20 (stmt kind 0): rts: subscript 9 of IA is "
              "out of range [1, 8] in dimension 1")
        << mode;
}

}  // namespace
}  // namespace f90d
