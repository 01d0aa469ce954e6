// Native node-program backend (src/native/): differential sweeps of
// native vs plan-interpreter vs tree-walk over the paper workloads, the
// invalidation contract on the native path, graceful fallback when the
// toolchain is disabled, and NativeCache unit behaviour.
//
// Every differential test tolerates a missing toolchain by construction:
// when kernels cannot be built the native run degrades to the plan
// interpreter (that is the fallback contract), so the bit-identity
// assertions still hold.  Tests that require kernels to actually execute
// GTEST_SKIP on NativeCache::available() instead.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>

#include "harness.hpp"
#include "native/jit.hpp"
#include "native/lower.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

interp::RunOptions backend_native() {
  interp::RunOptions ro;
  ro.native_backend = true;
  return ro;
}

interp::RunOptions backend_plan() { return {}; }

interp::RunOptions backend_tree() {
  interp::RunOptions ro;
  ro.exec_plans = false;
  return ro;
}

bool native_available() {
  return native::NativeCache::instance().available();
}

/// Bit-identical arrays and identical simulated clocks across two
/// backends, plus the reference run against the oracle.
void expect_same_run(const DiffRun& a, const DiffRun& b, double oracle_tol,
                     const std::string& what) {
  ASSERT_EQ(a.got.size(), b.got.size()) << what;
  for (size_t k = 0; k < a.got.size(); ++k)
    ASSERT_EQ(a.got[k], b.got[k]) << what << " element " << k;
  EXPECT_EQ(a.sim_time, b.sim_time) << what << " simulated time";
  EXPECT_LE(harness::max_abs_diff(b), oracle_tol) << what;
}

struct GridShape {
  int p;
  int q;
};

class NativeBackendSweep : public ::testing::TestWithParam<GridShape> {
 protected:
  int p() const { return GetParam().p; }
  int q() const { return GetParam().q; }
  int nprocs() const { return p() * q(); }
};

TEST_P(NativeBackendSweep, Jacobi) {
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(3)"}) {
    auto nat = harness::run_jacobi(12, 3, p(), q(), dist, backend_native());
    auto plan = harness::run_jacobi(12, 3, p(), q(), dist, backend_plan());
    auto tree = harness::run_jacobi(12, 3, p(), q(), dist, backend_tree());
    expect_same_run(nat, plan, 1e-9, std::string("jacobi ") + dist);
    expect_same_run(nat, tree, 1e-9, std::string("jacobi ") + dist);
  }
}

TEST_P(NativeBackendSweep, Gauss) {
  const int n = 12;
  for (const char* dist : {"BLOCK", "CYCLIC", "CYCLIC(2)"}) {
    auto nat = harness::run_gauss(n, nprocs(), dist, backend_native());
    auto plan = harness::run_gauss(n, nprocs(), dist, backend_plan());
    auto tree = harness::run_gauss(n, nprocs(), dist, backend_tree());
    ASSERT_EQ(nat.got.size(), plan.got.size());
    ASSERT_EQ(nat.got.size(), tree.got.size());
    for (size_t k = 0; k < nat.got.size(); ++k) {
      ASSERT_EQ(nat.got[k], plan.got[k]) << "gauss " << dist << " elem " << k;
      ASSERT_EQ(nat.got[k], tree.got[k]) << "gauss " << dist << " elem " << k;
    }
    EXPECT_EQ(nat.sim_time, plan.sim_time) << "gauss " << dist;
    EXPECT_EQ(nat.sim_time, tree.sim_time) << "gauss " << dist;
    EXPECT_LE(harness::max_abs_diff(tree, harness::gauss_defined_region(n)),
              1e-6);
  }
}

TEST_P(NativeBackendSweep, FftButterfly) {
  auto nat = harness::run_fft(16, 3, nprocs(), backend_native());
  auto plan = harness::run_fft(16, 3, nprocs(), backend_plan());
  auto tree = harness::run_fft(16, 3, nprocs(), backend_tree());
  expect_same_run(nat, plan, 1e-9, "fft");
  expect_same_run(nat, tree, 1e-9, "fft");
}

TEST_P(NativeBackendSweep, IrregularStaysOnParti) {
  // The vector-subscript kernel stays a PARTI gather and scatter (same
  // schedules, same messages), planned as an irregular
  // inspector/executor: the native rung runs its needs enumeration and
  // its executor as kernels of one translation unit.
  auto nat = harness::run_irregular(24, 2, nprocs(), backend_native());
  auto tree = harness::run_irregular(24, 2, nprocs(), backend_tree());
  ASSERT_EQ(nat.got.size(), tree.got.size());
  for (size_t k = 0; k < nat.got.size(); ++k)
    ASSERT_EQ(nat.got[k], tree.got[k]) << "irregular element " << k;
  EXPECT_EQ(nat.sim_time, tree.sim_time);
  EXPECT_LE(harness::max_abs_diff(tree), 1e-9);
  if (native_available()) {
    // One needs enumeration (the schedule is built once) plus one
    // executor run per step.
    EXPECT_EQ(nat.native_runs, 3);
    EXPECT_EQ(nat.native_fallbacks, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NativeBackendSweep,
    ::testing::Values(GridShape{1, 1}, GridShape{1, 2}, GridShape{2, 1},
                      GridShape{2, 2}, GridShape{1, 4}, GridShape{4, 1},
                      GridShape{4, 2}, GridShape{2, 4}, GridShape{4, 4}),
    [](const ::testing::TestParamInfo<GridShape>& info) {
      return std::to_string(info.param.p) + "x" + std::to_string(info.param.q);
    });

// --- kernels really run ------------------------------------------------------

TEST(NativeBackend, KernelsActuallyExecute) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  auto r = harness::run_jacobi(16, 4, 2, 2, "BLOCK", backend_native());
  EXPECT_LE(harness::max_abs_diff(r), 1e-9);
  // Jacobi's two FORALLs are fully lowerable: every planned trip runs a
  // compiled kernel on rank 0, none fall back.
  EXPECT_GT(r.native_runs, 0);
  EXPECT_EQ(r.native_fallbacks, 0);
  EXPECT_EQ(r.native_runs, r.plan_hits + r.plan_misses);
}

TEST(NativeBackend, LadderWorkloadsNeverReachTheTreeWalk) {
  // Every FORALL and reduction of the Gauss and Jacobi ladders runs on a
  // compiled rung (kernel or plan tape) on every processor — the rung
  // histogram's tree-walk bucket stays empty.  The tree rung is the
  // contrast: it walks every statement.
  for (const int p : {1, 4, 16}) {
    auto g = harness::run_gauss(32, p, "BLOCK", backend_native());
    EXPECT_LE(harness::max_abs_diff(g, harness::gauss_defined_region(32)),
              1e-6)
        << "p=" << p;
    EXPECT_EQ(g.tree_stmts, 0) << "gauss p=" << p;
  }
  auto j = harness::run_jacobi(32, 3, 4, 4, "BLOCK", backend_native());
  EXPECT_LE(harness::max_abs_diff(j), 1e-9);
  EXPECT_EQ(j.tree_stmts, 0);
  auto tree = harness::run_jacobi(32, 3, 4, 4, "BLOCK", backend_tree());
  EXPECT_EQ(tree.tree_stmts, 2 * 3 * 16);
}

TEST(NativeBackend, PlanBackendCollectsNoNativeStats) {
  auto r = harness::run_jacobi(12, 2, 2, 2, "BLOCK", backend_plan());
  EXPECT_EQ(r.native_runs, 0);
  EXPECT_EQ(r.native_attaches, 0);
  EXPECT_EQ(r.native_fallbacks, 0);
}

// --- intrinsics ---------------------------------------------------------------

TEST(NativeBackend, IntrinsicsBitIdenticalAcrossRungs) {
  // Every intrinsic the lowerer emits as a __builtin_ call (ABS, SQRT,
  // EXP, LOG, SIN, COS, real MOD, NINT, real **) must round exactly like
  // the tape's std:: calls and the tree walk: arrays bit-identical, clocks
  // equal, every statement on a kernel.
  const char* src = R"(PROGRAM INTRIN
      INTEGER N
      PARAMETER (N = 45)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      REAL D(N)
      REAL E(N)
      REAL F(N)
      REAL G(N)
      INTEGER K(N)
C$ PROCESSORS P(3)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(CYCLIC(2))
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN D(I) WITH T(I)
C$ ALIGN E(I) WITH T(I)
C$ ALIGN F(I) WITH T(I)
C$ ALIGN G(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
      FORALL (I = 1:N) B(I) = ABS(A(I)) + SQRT(ABS(A(I)) * 1.3)
      FORALL (I = 1:N) C(I) = EXP(A(I) * 0.37) - LOG(ABS(A(I)) + 0.11)
      FORALL (I = 1:N) D(I) = SIN(A(I) * 1.7) * COS(A(I) + 0.5)
      FORALL (I = 1:N) E(I) = MOD(A(I) * 2.9, 1.75) + MOD(A(I), -0.3)
      FORALL (I = 1:N) K(I) = NINT(A(I) * 3.3) + NINT(B(I))
      FORALL (I = 1:N) F(I) = ABS(A(I)) ** 1.37 + A(I) ** 2.0
      FORALL (I = 1:N) G(I) = (ABS(C(I)) + 0.5) ** D(I) + E(I) ** 3
      END PROGRAM INTRIN
)";
  auto run = [&](const interp::RunOptions& ro) {
    auto compiled = compile::compile_source(src);
    machine::SimMachine m = harness::make_machine(3);
    interp::Init init;
    init.real["A"] = [](std::span<const Index> g) {
      return (static_cast<double>(g[0]) - 21.5) * 0.731 + 1.0 / 3.0;
    };
    return interp::run_compiled(compiled, m, init, ro);
  };
  const auto tree = run(backend_tree());
  const auto plan = run(backend_plan());
  const auto nat = run(backend_native());
  for (const char* a : {"A", "B", "C", "D", "E", "F", "G"}) {
    const auto& t = tree.real_arrays.at(a);
    const auto& p = plan.real_arrays.at(a);
    const auto& n = nat.real_arrays.at(a);
    ASSERT_EQ(t.size(), 45u);
    for (size_t k = 0; k < t.size(); ++k) {
      ASSERT_TRUE(std::isfinite(t[k])) << a << "(" << k + 1 << ")";
      EXPECT_EQ(std::memcmp(&t[k], &p[k], sizeof(double)), 0)
          << a << "(" << k + 1 << ") tree vs plan";
      EXPECT_EQ(std::memcmp(&p[k], &n[k], sizeof(double)), 0)
          << a << "(" << k + 1 << ") plan vs native";
    }
  }
  EXPECT_EQ(tree.int_arrays.at("K"), plan.int_arrays.at("K"));
  EXPECT_EQ(plan.int_arrays.at("K"), nat.int_arrays.at("K"));
  EXPECT_EQ(tree.machine.exec_time, plan.machine.exec_time);
  EXPECT_EQ(plan.machine.exec_time, nat.machine.exec_time);
  if (native_available()) {
    EXPECT_EQ(nat.native_runs, 7);
    EXPECT_EQ(nat.native_fallbacks, 0);
  }
}

// --- invalidation contract on the native path --------------------------------

TEST(NativeBackend, ArrayIntrinsicInvalidatesNativeAttachments) {
  // Mirror of ExecPlanCache.ArrayIntrinsicInvalidatesEndToEnd: the CSHIFT
  // between trips rewrites A wholesale, which must drop the statement's
  // whole cache entry — plan, comm slots and native attachment together;
  // a stale kernel would keep writing through a dangling base pointer.
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
  interp::RunOptions ro = backend_native();
  auto r = interp::run_compiled(compiled, m, init, ro);
  EXPECT_GT(r.plan_invalidations, 0);
  EXPECT_GT(r.comm_plan_invalidations, 0);
  if (native_available()) {
    EXPECT_GT(r.native_runs, 0);
    EXPECT_GT(r.native_invalidations, 0);
  }

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

// --- graceful fallback -------------------------------------------------------

TEST(NativeBackend, EnvKillSwitchFallsBackCleanly) {
  // F90D_NATIVE=0 is the run-time off switch (the sanitizer escape hatch):
  // a native-backend run must degrade to the plan interpreter without
  // running a single kernel — and without erroring.
  ::setenv("F90D_NATIVE", "0", 1);
  auto nat = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_native());
  ::unsetenv("F90D_NATIVE");
  auto plan = harness::run_jacobi(12, 3, 2, 2, "BLOCK", backend_plan());
  expect_same_run(nat, plan, 1e-9, "jacobi kill-switch");
  EXPECT_EQ(nat.native_runs, 0);
}

// --- NativeCache unit behaviour ----------------------------------------------

TEST(NativeJit, CompilesCachesAndRunsAKernel) {
  if (!native_available())
    GTEST_SKIP() << "no native toolchain in this environment";
  // A hand-written ABI-conforming kernel: out[i] = 2*in[i] + ds[0] over
  // lp[0] elements.  Exercises the whole compile + dlopen + call path
  // without the lowering layer.
  const std::string src = std::string("extern \"C\" void ") +
                          native::kKernelSymbol +
                          "(const long long* lp, const long long* const* lv,"
                          " void* const* base, const long long* rb,"
                          " const long long* st, const long long* const* tb,"
                          " const double* ds, const long long* is,"
                          " const unsigned char* ls) {\n"
                          "  (void)lv; (void)rb; (void)st; (void)tb;"
                          " (void)is; (void)ls;\n"
                          "  const double* in = (const double*)base[0];\n"
                          "  double* out = (double*)base[1];\n"
                          "  for (long long i = 0; i < lp[0]; ++i)"
                          " out[i] = 2.0 * in[i] + ds[0];\n"
                          "}\n";
  native::NativeCache& cache = native::NativeCache::instance();
  const native::JitStats before = cache.stats();
  native::KernelFn fn = cache.get_or_compile(src);
  ASSERT_NE(fn, nullptr);

  double in[4] = {1.0, 2.0, 3.0, 4.0};
  double out[4] = {0, 0, 0, 0};
  long long lp[3] = {4, 0, 1};
  void* base[2] = {in, out};
  double ds[1] = {0.5};
  fn(lp, nullptr, base, nullptr, nullptr, nullptr, ds, nullptr, nullptr);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], 2.0 * in[i] + 0.5);

  // Second request with the same source is a pure cache hit.
  EXPECT_EQ(cache.get_or_compile(src), fn);
  const native::JitStats after = cache.stats();
  EXPECT_EQ(after.compiles, before.compiles + 1);
  EXPECT_GE(after.cache_hits, before.cache_hits + 1);
  EXPECT_GT(after.compile_ms, before.compile_ms);
}

TEST(NativeJit, LowerDeclinesGracefully) {
  // A plan with a non-direct lhs must decline with a reason rather than
  // emit broken source.
  exec::ExecPlan p;
  p.loops.push_back(exec::PlanLoop{"I", 4, 0, 1, {}});
  p.lhs.kind = exec::RefPlan::Kind::kRealSlab;
  std::string why;
  EXPECT_FALSE(native::lower_plan(p, &why).has_value());
  EXPECT_FALSE(why.empty());
}

}  // namespace
}  // namespace f90d
