// Execution-plan layer (exec/exec_plan.hpp): differential plan-on vs
// plan-off (tree walk) sweeps that must be bit-identical, edge cases
// (zero-trip DO, P > N, enumerated CYCLIC(k) bounds, masked FORALL),
// plan-cache reuse across DO-loop trips, the StmtCache units, the
// redistribution invalidation contract, and the PARTI fallback.
#include <gtest/gtest.h>

#include "exec/stmt_cache.hpp"
#include "harness.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions plans_on() { return {}; }

interp::RunOptions plans_off() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

/// Bit-identical comparison of the planned and tree-walk runs, plus both
/// against the oracle.
void expect_bit_identical(const DiffRun& on, const DiffRun& off,
                          double oracle_tol, const std::string& what) {
  ASSERT_EQ(on.got.size(), off.got.size()) << what;
  for (size_t k = 0; k < on.got.size(); ++k)
    ASSERT_EQ(on.got[k], off.got[k]) << what << " element " << k;
  EXPECT_LE(harness::max_abs_diff(off), oracle_tol) << what;
}

struct GridShape {
  int p;
  int q;
};

class ExecPlanSweep : public ::testing::TestWithParam<GridShape> {
 protected:
  int p() const { return GetParam().p; }
  int q() const { return GetParam().q; }
  int nprocs() const { return p() * q(); }
};

TEST_P(ExecPlanSweep, Jacobi) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
    auto on = harness::run_jacobi(12, 3, p(), q(), dist, plans_on());
    auto off = harness::run_jacobi(12, 3, p(), q(), dist, plans_off());
    expect_bit_identical(on, off, 1e-9, std::string("jacobi ") + dist);
    EXPECT_EQ(off.plan_hits + off.plan_misses, 0);
  }
}

TEST_P(ExecPlanSweep, Gauss) {
  const int n = 12;
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    auto on = harness::run_gauss(n, nprocs(), dist, plans_on());
    auto off = harness::run_gauss(n, nprocs(), dist, plans_off());
    ASSERT_EQ(on.got.size(), off.got.size());
    for (size_t k = 0; k < on.got.size(); ++k)
      ASSERT_EQ(on.got[k], off.got[k])
          << "gauss " << dist << " element " << k;
    EXPECT_LE(harness::max_abs_diff(off, harness::gauss_defined_region(n)),
              1e-6);
  }
}

TEST_P(ExecPlanSweep, FftButterfly) {
  auto on = harness::run_fft(16, 3, nprocs(), plans_on());
  auto off = harness::run_fft(16, 3, nprocs(), plans_off());
  expect_bit_identical(on, off, 1e-9, "fft");
}

TEST_P(ExecPlanSweep, IrregularFallsBackToParti) {
  auto on = harness::run_irregular(24, 2, nprocs(), plans_on());
  auto off = harness::run_irregular(24, 2, nprocs(), plans_off());
  expect_bit_identical(on, off, 1e-9, "irregular");
  // The vector-subscript kernel is structurally outside the planner: the
  // decline is discovered once, then the statement bypasses planning (no
  // cache hits), and PARTI schedule reuse still works underneath.
  EXPECT_EQ(on.plan_hits, 0);
  if (nprocs() > 1) {
    EXPECT_GT(on.schedule_hits, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ExecPlanSweep,
    ::testing::Values(GridShape{1, 1}, GridShape{1, 2}, GridShape{2, 1},
                      GridShape{2, 2}, GridShape{1, 4}, GridShape{4, 1},
                      GridShape{4, 2}, GridShape{2, 4}, GridShape{4, 4}),
    [](const ::testing::TestParamInfo<GridShape>& info) {
      return std::to_string(info.param.p) + "x" + std::to_string(info.param.q);
    });

// --- plan-cache behaviour ----------------------------------------------------

TEST(ExecPlanCache, HitsAcrossDoLoopTrips) {
  // Jacobi's two FORALLs have DO-invariant bounds: each is planned once on
  // the first trip and reused on every later trip.
  const int iters = 4;
  auto r = harness::run_jacobi(16, iters, 2, 2, "BLOCK", plans_on());
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);
  EXPECT_EQ(r.plan_misses, 2);
  EXPECT_EQ(r.plan_hits, 2 * (iters - 1));
}

TEST(ExecPlanCache, GaussPlansOncePerStatement) {
  // The pivot K enters the elimination's bounds and subscripts as a plan
  // parameter, not a key: each statement (MAXLOC reduction, multiplier
  // concatenation, update) is built once and rebound on every later trip.
  // No pivoting happens on this diagonally dominant system, so the three
  // row-swap statements never run.
  const int n = 12;
  auto r = harness::run_gauss(n, 4, "BLOCK", plans_on());
  EXPECT_LE(harness::max_abs_diff(r, harness::gauss_defined_region(n)), 1e-6);
  EXPECT_EQ(r.plan_misses, 3);
  EXPECT_EQ(r.plan_hits, 3 * (n - 2));
  EXPECT_EQ(r.stmt_cache_entries, 3);
  EXPECT_EQ(r.tree_stmts, 0);
}

/// A system whose partial pivoting swaps rows: the lower rows dominate
/// every column.
double pivoting_entry(int n, Index i, Index j) {
  if (j == n) return 1.0 + static_cast<double>(i % 5);
  return static_cast<double>(1 + (i * 7 + j * 13) % 11) *
         (1.0 + 0.5 * static_cast<double>(i));
}

DiffRun run_pivoting_gauss(int n, int p, const char* dist,
                           const interp::RunOptions& ro) {
  interp::Init init;
  init.real["A"] = [n](std::span<const Index> g) {
    return pivoting_entry(n, g[0], g[1]);
  };
  auto result =
      harness::run_source(apps::gauss_source(n, p, dist), init, ro);
  DiffRun d{"A", result.real_arrays.at("A"),
            harness::gauss_oracle(n, [n](int i, int j) {
              return pivoting_entry(n, i, j);
            })};
  harness::fill_counters(d, result);
  return d;
}

TEST(ExecPlanCache, PivotingGaussPlansRuntimeRowSubscriptsOnce) {
  // The swaps A(K, K:N+1) = A(IM, K:N+1) subscript a row with the runtime
  // scalars K and IM: both are plan parameters, so all six statements
  // plan once (six misses prove the swaps ran) and hit afterwards, with
  // bit-identical arrays and equal simulated time on every rung.
  const int n = 12;
  interp::RunOptions native = plans_on();
  native.native_backend = true;
  for (const int p : {1, 4}) {
    auto tree = run_pivoting_gauss(n, p, "BLOCK", plans_off());
    auto plan = run_pivoting_gauss(n, p, "BLOCK", plans_on());
    auto nat = run_pivoting_gauss(n, p, "BLOCK", native);
    const std::string what = "pivoting gauss p=" + std::to_string(p);
    expect_bit_identical(plan, tree, 1e-6, what);
    expect_bit_identical(nat, tree, 1e-6, what + " native");
    EXPECT_EQ(plan.sim_time, tree.sim_time) << what;
    EXPECT_EQ(nat.sim_time, tree.sim_time) << what;
    EXPECT_EQ(plan.plan_misses, 6) << what;
    EXPECT_GT(plan.plan_hits, 6 * 3) << what;
    EXPECT_EQ(plan.stmt_cache_entries, 6) << what;
    EXPECT_EQ(plan.tree_stmts, 0) << what;
    EXPECT_GT(tree.tree_stmts, 0) << what;
  }
}

TEST(ExecPlanCache, CyclicGaussKeepsBakedKeys) {
  // A CYCLIC(k>1) partition enumerates its local range into value tables
  // whose shape depends on K, so K stays in the key of the statements
  // partitioned over the cyclic dimension: they re-plan per pivot, and
  // still agree with the oracle and the tree walk.
  const int n = 12;
  for (const char* dist : {"CYCLIC(2)", "CYCLIC(3)"}) {
    auto plan = run_pivoting_gauss(n, 4, dist, plans_on());
    auto tree = run_pivoting_gauss(n, 4, dist, plans_off());
    expect_bit_identical(plan, tree, 1e-6, dist);
    EXPECT_LE(harness::max_abs_diff(plan, harness::gauss_defined_region(n)),
              1e-6)
        << dist;
    EXPECT_EQ(plan.sim_time, tree.sim_time) << dist;
    EXPECT_GT(plan.plan_misses, 6) << dist;
    EXPECT_GT(plan.stmt_cache_entries, 6) << dist;
    EXPECT_EQ(plan.tree_stmts, 0) << dist;
  }
}

TEST(ExecPlanCache, FailedBindFallsBackForOneTrip) {
  // C is replicated; S shifts its subscript.  On the second trip S = 2
  // and the last processor's range check fails (the mask keeps the tree
  // walk in range, but the bind checks the whole local range): that trip
  // falls back to the tree walk, and the third trip (S = 0) rebinds and
  // runs planned again — one miss, two hits on rank 0.
  const char* src = R"(PROGRAM REBIND
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      REAL C(N)
      INTEGER S
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
      DO IT = 1, 3
        S = 2 - 2 * MOD(IT, 2)
        FORALL (I = 1:N, I + S .LE. N) A(I) = A(I) + C(I + S)
      END DO
      END PROGRAM REBIND
)";
  interp::Init init;
  init.real["C"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0]) * 1.5;
  };
  auto plan = harness::run_source(src, init, plans_on());
  auto tree = harness::run_source(src, init, plans_off());
  EXPECT_EQ(plan.real_arrays.at("A"), tree.real_arrays.at("A"));
  EXPECT_EQ(plan.machine.exec_time, tree.machine.exec_time);
  EXPECT_EQ(plan.plan_misses, 1);
  EXPECT_EQ(plan.plan_hits, 2);
  EXPECT_EQ(plan.tree_stmts, 1);  // the last processor, second trip
  EXPECT_EQ(tree.tree_stmts, 4 * 3);
  // Oracle: A(i) = C(i) + C(i+2) + C(i) where in range.
  const auto& a = plan.real_arrays.at("A");
  for (int i = 0; i < 16; ++i) {
    double want = 2.0 * i * 1.5;
    if (i + 2 < 16) want = i * 1.5 + (i + 2) * 1.5 + i * 1.5;
    EXPECT_DOUBLE_EQ(a[static_cast<size_t>(i)], want) << "i=" << i;
  }
}

TEST(ExecPlanCache, DisabledRunsCollectNoPlanStats) {
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", plans_off());
  EXPECT_EQ(r.plan_hits, 0);
  EXPECT_EQ(r.plan_misses, 0);
}

TEST(ExecPlanCache, ReplicatedLhsConcatenationPlans) {
  // Replicated destinations plan with a value-buffer lhs and unpack the
  // concatenation run-wise: full rows arrive as one run spanning several
  // rows of R, partial rows of S as one run per row; the INTEGER lhs
  // converts like an element write.  Every rung agrees with the oracle.
  const char* src = R"(PROGRAM REPL
      INTEGER N
      PARAMETER (N = 6)
      REAL A(N, N)
      REAL R(N, N)
      REAL S(N, N)
      INTEGER IV(N)
      INTEGER IT
C$ PROCESSORS P(3)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, *)
C$ ALIGN A(I, J) WITH T(I, J)
      DO IT = 1, 2
        FORALL (I = 1:N, J = 1:N) R(I, J) = A(I, J) + IT
        FORALL (I = IT:N, J = 2:N) S(I, J) = A(I, J) * 2.0
        FORALL (I = 1:N) IV(I) = A(I, 1) * 3.0 + 0.5
      END DO
      END PROGRAM REPL
)";
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0] * 10 + g[1]);
  };
  auto tree = harness::run_source(src, init, plans_off());
  for (const auto& ro : {plans_on(), [] {
                           interp::RunOptions n;
                           n.native_backend = true;
                           return n;
                         }()}) {
    auto r = harness::run_source(src, init, ro);
    EXPECT_EQ(r.real_arrays.at("R"), tree.real_arrays.at("R"));
    EXPECT_EQ(r.real_arrays.at("S"), tree.real_arrays.at("S"));
    EXPECT_EQ(r.int_arrays.at("IV"), tree.int_arrays.at("IV"));
    EXPECT_EQ(r.machine.exec_time, tree.machine.exec_time);
    EXPECT_EQ(r.plan_misses, 3);
    EXPECT_EQ(r.tree_stmts, 0);
  }
  const auto& rr = tree.real_arrays.at("R");
  const auto& ss = tree.real_arrays.at("S");
  const auto& iv = tree.int_arrays.at("IV");
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(iv[static_cast<size_t>(i)], static_cast<long long>(i * 30 + 0.5));
    for (int j = 0; j < 6; ++j) {
      const size_t k = static_cast<size_t>(i * 6 + j);
      EXPECT_EQ(rr[k], i * 10 + j + 2.0);
      EXPECT_EQ(ss[k], j >= 1 ? (i * 10 + j) * 2.0 : 0.0);
    }
  }
}

// --- StmtCache units -----------------------------------------------------------

exec::PlanEntry plan_binding(std::vector<std::string> arrays) {
  auto plan = std::make_shared<exec::ExecPlan>();
  plan->arrays = std::move(arrays);
  return exec::PlanEntry{plan, {}, false};
}

TEST(ExecPlanCache, InvalidateArrayDropsBoundPlans) {
  exec::StmtCache cache;
  (void)cache.regular(1, cache.entry("k1"),
                      [] { return plan_binding({"A", "B"}); });
  (void)cache.regular(2, cache.entry("k2"), [] { return plan_binding({"C"}); });
  EXPECT_EQ(cache.stats().regular.misses, 2);
  EXPECT_EQ(cache.size(), 2u);

  (void)cache.regular(1, cache.entry("k1"), [] { return plan_binding({}); });
  EXPECT_EQ(cache.stats().regular.hits, 1);

  cache.invalidate_array("B");
  EXPECT_EQ(cache.stats().regular.invalidations, 1);
  EXPECT_EQ(cache.size(), 1u);  // k1 dropped, k2 (binds only C) survives

  // Re-lookup of the invalidated key rebuilds.
  (void)cache.regular(1, cache.entry("k1"),
                      [] { return plan_binding({"A", "B"}); });
  EXPECT_EQ(cache.stats().regular.misses, 3);
}

TEST(ExecPlanCache, StructuralDeclineRemembered) {
  using Family = exec::StmtCache::Family;
  exec::StmtCache cache;
  (void)cache.regular(7, cache.entry("k7"), [] {
    return exec::PlanEntry{nullptr, "buffered lhs", /*structural=*/true};
  });
  EXPECT_TRUE(cache.declined_structurally(Family::kRegular, 7));
  EXPECT_FALSE(cache.declined_structurally(Family::kRegular, 8));
}

TEST(StmtCache, InvalidateArrayDropsEveryPartOfAnEntry) {
  exec::StmtCache cache;
  // Entry k1: a plan binding A, comm slots baking B (a broadcast source
  // the plan itself never binds) and a native attachment.
  exec::StmtCache::Entry& e1 = cache.entry("k1");
  (void)cache.regular(1, e1, [] { return plan_binding({"A"}); });
  (void)cache.comm(e1, [] {
    exec::CommPlans::StmtPlan p;
    p.arrays = {"B"};
    return p;
  });
  e1.native = std::make_unique<native::Attachment>();
  // Entry k2 binds only C.
  exec::StmtCache::Entry& e2 = cache.entry("k2");
  (void)cache.regular(2, e2, [] { return plan_binding({"C"}); });
  (void)cache.comm(e2, [] { return exec::CommPlans::StmtPlan{}; });
  EXPECT_EQ(cache.stats().comm_misses, 2);

  // B is named only by k1's comm part, yet the whole entry goes.
  cache.invalidate_array("B");
  const exec::StmtCache::Stats& st = cache.stats();
  EXPECT_EQ(st.regular.invalidations, 1);
  EXPECT_EQ(st.comm_invalidations, 1);
  EXPECT_EQ(st.native_invalidations, 1);
  EXPECT_EQ(cache.size(), 1u);

  // k2 survives with every part: its plan and comm slots still hit.
  exec::StmtCache::Entry& again = cache.entry("k2");
  (void)cache.regular(2, again, [] { return plan_binding({}); });
  (void)cache.comm(again, [] { return exec::CommPlans::StmtPlan{}; });
  EXPECT_EQ(st.regular.hits, 1);
  EXPECT_EQ(st.comm_hits, 1);

  // k1 rebuilds from scratch: no part outlived the others.
  exec::StmtCache::Entry& fresh = cache.entry("k1");
  EXPECT_FALSE(fresh.regular || fresh.comm || fresh.native);
}

TEST(StmtCache, RegularDeclineDoesNotSuppressIrregular) {
  using Family = exec::StmtCache::Family;
  exec::StmtCache cache;
  exec::StmtCache::Entry& e = cache.entry("k3");
  (void)cache.regular(3, e, [] {
    return exec::PlanEntry{nullptr, "schedule-based read buffers (PARTI)",
                           /*structural=*/true};
  });
  EXPECT_TRUE(cache.declined_structurally(Family::kRegular, 3));
  EXPECT_FALSE(cache.declined_structurally(Family::kIrregular, 3));

  // The irregular planner still plans statement 3, in the same entry.
  auto irr = std::make_shared<exec::IrregularPlan>();
  irr->core.arrays = {"A", "U"};
  const exec::IrrPlanEntry& got = cache.irregular(
      3, e, [&] { return exec::IrrPlanEntry{irr, {}, false}; });
  EXPECT_EQ(got.plan, irr);
  EXPECT_EQ(cache.stats().irregular.misses, 1);
  EXPECT_EQ(cache.size(), 1u);

  // Dropping the irregular plan's array drops the entry, but the regular
  // family's structural decline is remembered per statement, not per entry.
  cache.invalidate_array("U");
  EXPECT_EQ(cache.stats().irregular.invalidations, 1);
  EXPECT_EQ(cache.stats().regular.invalidations, 0);
  EXPECT_TRUE(cache.declined_structurally(Family::kRegular, 3));
}

TEST(ExecPlanCache, ArrayIntrinsicInvalidatesEndToEnd) {
  // A CSHIFT assignment between trips rewrites A wholesale; the
  // redistribution contract requires the plans bound to A to be dropped,
  // so the FORALL re-plans every trip instead of reusing a stale binding.
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
        FORALL (I = 1:N) B(I) = A(I) + 1.0
        A = CSHIFT(B, 1)
      END DO
      END PROGRAM SHIFTY
)";
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(4);
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return static_cast<double>(g[0]);
  };
  auto r = interp::run_compiled(compiled, m, init);
  EXPECT_GT(r.plan_invalidations, 0);

  // Oracle: three rounds of B = A + 1; A = cshift(B, 1).
  std::vector<double> a(16), b(16);
  for (int i = 0; i < 16; ++i) a[static_cast<size_t>(i)] = i;
  for (int it = 0; it < 3; ++it) {
    for (int i = 0; i < 16; ++i)
      b[static_cast<size_t>(i)] = a[static_cast<size_t>(i)] + 1.0;
    for (int i = 0; i < 16; ++i)
      a[static_cast<size_t>(i)] = b[static_cast<size_t>((i + 1) % 16)];
  }
  const auto& got = r.real_arrays.at("A");
  ASSERT_EQ(got.size(), a.size());
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(got[k], a[k]);
}

// --- edge cases --------------------------------------------------------------

interp::ProgramResult run_src(const std::string& src, int p,
                              const interp::RunOptions& ro,
                              double binit_scale = 1.0) {
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(p);
  interp::Init init;
  init.real["B"] = [binit_scale](std::span<const Index> g) {
    return static_cast<double>(g[0]) * binit_scale;
  };
  return interp::run_compiled(compiled, m, init, ro);
}

std::string edge_prelude(int n, int p, const char* dist) {
  return strformat(R"(PROGRAM EDGE
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
)",
                   n, p, dist);
}

TEST(ExecPlanEdges, ZeroTripDoLoop) {
  const std::string src = edge_prelude(16, 4, "BLOCK") +
                          R"(      DO IT = 1, 0
        FORALL (I = 1:N) A(I) = B(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  for (const auto& ro : {plans_on(), plans_off()}) {
    auto r = run_src(src, 4, ro);
    const auto& a = r.real_arrays.at("A");
    for (double v : a) EXPECT_EQ(v, 0.0);  // body never ran
    EXPECT_EQ(r.plan_hits, 0);
  }
}

TEST(ExecPlanEdges, MoreProcessorsThanElements) {
  // P = 16 > N = 3: most processors own nothing; their plans are empty
  // nests and the differential stays exact.
  auto on = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_on());
  auto off = harness::run_jacobi(3, 2, 4, 4, "BLOCK", plans_off());
  ASSERT_EQ(on.got.size(), off.got.size());
  for (size_t k = 0; k < on.got.size(); ++k) ASSERT_EQ(on.got[k], off.got[k]);
  EXPECT_LE(harness::max_abs_diff(on), 1e-9);
}

TEST(ExecPlanEdges, StridedCyclic3UsesEnumeratedBounds) {
  // A strided global range over CYCLIC(3) is not an arithmetic progression
  // in local index space: set_BOUND returns the enumerated form and the
  // plan must drive the loop (and both identity references) off the
  // explicit local-index tables.
  const std::string src = edge_prelude(26, 4, "CYCLIC(3)") +
                          R"(      DO IT = 1, 3
        FORALL (I = 1:N:2) A(I) = B(I) + A(I) + 1.0
      END DO
      END PROGRAM EDGE
)";
  auto on = run_src(src, 4, plans_on());
  auto off = run_src(src, 4, plans_off());
  const auto& a_on = on.real_arrays.at("A");
  const auto& a_off = off.real_arrays.at("A");
  ASSERT_EQ(a_on.size(), a_off.size());
  for (size_t k = 0; k < a_on.size(); ++k) ASSERT_EQ(a_on[k], a_off[k]);
  // Planned and reused across the three trips.
  EXPECT_EQ(on.plan_misses, 1);
  EXPECT_EQ(on.plan_hits, 2);
  // Oracle.
  std::vector<double> a(26, 0.0);
  for (int it = 0; it < 3; ++it)
    for (int i = 0; i < 26; i += 2) {
      a[static_cast<size_t>(i)] =
          static_cast<double>(i) + a[static_cast<size_t>(i)] + 1.0;
    }
  for (size_t k = 0; k < a.size(); ++k) EXPECT_DOUBLE_EQ(a_on[k], a[k]);
}

TEST(ExecPlanEdges, MaskedForall) {
  // Array-valued mask: the plan evaluates the mask tape per element and
  // leaves rejected elements untouched, exactly like the tree walk.
  const std::string src = edge_prelude(24, 4, "BLOCK") +
                          R"(      DO IT = 1, 2
        FORALL (I = 1:N, B(I) .GT. 10.0) A(I) = B(I) * 2.0 + A(I)
      END DO
      END PROGRAM EDGE
)";
  auto on = run_src(src, 4, plans_on());
  auto off = run_src(src, 4, plans_off());
  const auto& a_on = on.real_arrays.at("A");
  const auto& a_off = off.real_arrays.at("A");
  ASSERT_EQ(a_on.size(), a_off.size());
  for (size_t k = 0; k < a_on.size(); ++k) ASSERT_EQ(a_on[k], a_off[k]);
  EXPECT_GT(on.plan_hits, 0);
  for (int i = 0; i < 24; ++i) {
    const double want = i > 10 ? 2.0 * (2.0 * i) : 0.0;
    EXPECT_DOUBLE_EQ(a_on[static_cast<size_t>(i)], want) << "i=" << i;
  }
}

TEST(ExecPlanEdges, JacobiPlansAreUsed) {
  // Guard against the planner silently declining the headline workloads.
  auto r = harness::run_jacobi(16, 3, 2, 2, "BLOCK", plans_on());
  EXPECT_GT(r.plan_misses, 0);
  EXPECT_GT(r.plan_hits, 0);
  auto g = harness::run_gauss(16, 4, "BLOCK", plans_on());
  EXPECT_GT(g.plan_misses, 0);
}

}  // namespace
}  // namespace f90d
