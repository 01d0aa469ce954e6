// The native rung on the PARTI inspector/executor and the buffered-lhs
// plans: ELL SpMV, mesh sweep and particle binning over BLOCK and
// INDIRECT(MAP) run bit-identically (values and simulated time) on the
// tree, plan and native rungs, with every gather, scatter and needs
// enumeration on a kernel; Gauss's replicated-lhs concatenation runs
// native; a remap of a gathered array drops the irregular attachment; and
// an out-of-range gather subscript, scatter destination or replicated
// element read raises the same diagnostic from a kernel as from the tape.
//
// Differential assertions hold with or without a toolchain (the native
// rung degrades to the plan tapes); the kernel counters are only checked
// when NativeCache::available().
#include <gtest/gtest.h>

#include "harness.hpp"
#include "native/jit.hpp"

namespace f90d {
namespace {

using harness::DiffRun;
using interp::Index;

constexpr const char* kDists[] = {"BLOCK", "INDIRECT(MAP)"};

interp::RunOptions rung(int r) {
  interp::RunOptions ro;
  ro.exec_plans = r > 0;
  ro.native_backend = r > 1;
  return ro;
}
const interp::RunOptions kTree = rung(0);
const interp::RunOptions kPlan = rung(1);
const interp::RunOptions kNative = rung(2);

bool native_available() {
  return native::NativeCache::instance().available();
}

void expect_same_run(const DiffRun& a, const DiffRun& b,
                     const std::string& what) {
  ASSERT_EQ(a.got.size(), b.got.size()) << what;
  for (size_t k = 0; k < a.got.size(); ++k)
    ASSERT_EQ(a.got[k], b.got[k]) << what << " element " << k;
  EXPECT_EQ(a.sim_time, b.sim_time) << what << " simulated time";
}

/// Tree, plan and native runs of one workload: bit-identical, equal
/// simulated time, exact against the oracle, and every planned statement
/// of the native run on a kernel.
template <typename Run>
void check_rungs(Run&& run, const std::string& what) {
  const DiffRun tree = run(kTree);
  const DiffRun plan = run(kPlan);
  const DiffRun nat = run(kNative);
  expect_same_run(tree, plan, what + " tree vs plan");
  expect_same_run(plan, nat, what + " plan vs native");
  EXPECT_EQ(harness::max_abs_diff(nat), 0.0) << what;
  EXPECT_EQ(nat.schedules_built, plan.schedules_built) << what;
  EXPECT_EQ(nat.gather_bytes, plan.gather_bytes) << what;
  EXPECT_EQ(nat.scatter_bytes, plan.scatter_bytes) << what;
  if (native_available()) {
    // More kernel runs than regular plan lookups: the irregular
    // statements (executor and needs) ran on kernels too.
    EXPECT_GT(nat.native_runs, nat.plan_hits + nat.plan_misses) << what;
    EXPECT_EQ(nat.native_fallbacks, 0) << what;
  }
}

TEST(NativeIrregular, SpmvAgreesAcrossRungs) {
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4, 8})
      check_rungs(
          [&](const interp::RunOptions& ro) {
            return harness::run_spmv_ell(23, 3, 3, p, dist, ro);
          },
          std::string("spmv ") + dist + " p=" + std::to_string(p));
}

TEST(NativeIrregular, MeshSweepAgreesAcrossRungs) {
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4, 8})
      check_rungs(
          [&](const interp::RunOptions& ro) {
            return harness::run_mesh_sweep(17, 29, 3, p, dist, ro);
          },
          std::string("mesh ") + dist + " p=" + std::to_string(p));
}

TEST(NativeIrregular, ParticleBinningAgreesAcrossRungs) {
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4, 8})
      check_rungs(
          [&](const interp::RunOptions& ro) {
            return harness::run_particle_bin(21, 3, p, dist, ro);
          },
          std::string("particles ") + dist + " p=" + std::to_string(p));
}

TEST(NativeIrregular, SteadyStateRunsOnlyTheExecutorKernel) {
  // SpMV keys one irregular plan and one schedule per K: the needs
  // kernels run once per (K, read) on the first step, then every step
  // runs only the executor kernel.
  if (!native_available()) GTEST_SKIP() << "no native toolchain";
  const int nk = 3;
  const DiffRun two = harness::run_spmv_ell(19, nk, 2, 2, "INDIRECT(MAP)",
                                            kNative);
  const DiffRun five = harness::run_spmv_ell(19, nk, 5, 2, "INDIRECT(MAP)",
                                             kNative);
  EXPECT_EQ(five.native_runs - two.native_runs, 3 * nk);
  EXPECT_EQ(five.schedules_built, two.schedules_built);
  EXPECT_EQ(five.native_attaches, two.native_attaches);
}

TEST(NativeIrregular, NestedIntegerGatherAgreesAcrossRungs) {
  // V is distributed, so V(U(I)) is itself gathered (an INTEGER
  // iteration buffer) and feeds the needs and the executor of the outer
  // gather X(V(U(I))): integer gathered operands inside kernel tapes.
  const int n = 29;
  auto u_of = [](Index i) { return (i * 7 + 3) % 29; };
  auto v_of = [](Index i) { return (i * 11 + 5) % 29; };
  for (const char* dist : kDists)
    for (int p : {1, 2, 3, 4}) {
      const std::string src = strformat(R"(PROGRAM NESTED
      INTEGER N
      PARAMETER (N = %d)
      REAL X(N)
      REAL Y(N)
      INTEGER U(N)
      INTEGER V(N)
      INTEGER MAP(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(%s)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN Y(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ ALIGN V(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 1:N) Y(I) = X(V(U(I))) + IT
      END DO
      END PROGRAM NESTED
)", n, p, dist);
      auto run = [&](const interp::RunOptions& ro) {
        interp::Init init;
        init.ints["MAP"] = [p](std::span<const Index> g) {
          return harness::map_owner(g[0], p) + 1;
        };
        init.ints["U"] = [&](std::span<const Index> g) { return u_of(g[0]) + 1; };
        init.ints["V"] = [&](std::span<const Index> g) { return v_of(g[0]) + 1; };
        init.real["X"] = [](std::span<const Index> g) { return g[0] * 0.75; };
        auto r = harness::run_source(src, init, ro);
        DiffRun d{"Y", r.real_arrays.at("Y"), {}};
        for (Index i = 0; i < n; ++i)
          d.want.push_back(static_cast<double>(v_of(u_of(i))) * 0.75 + 3);
        harness::fill_counters(d, r);
        return d;
      };
      check_rungs(run, std::string("nested ") + dist + " p=" +
                           std::to_string(p));
    }
}

// --- Gauss: the replicated-lhs multiplier -------------------------------------

TEST(NativeIrregular, GaussConcatenationRunsNative) {
  // Gauss plans three statements per pivot: the MAXLOC reduction (tape),
  // the replicated-lhs multiplier concatenation and the elimination
  // update.  On one processor (no guarded-out or empty local nests) the
  // latter two run on kernels: two thirds of the planned executions.
  for (const int p : {1, 4}) {
    auto nat = harness::run_gauss(24, p, "BLOCK", kNative);
    auto tree = harness::run_gauss(24, p, "BLOCK", kTree);
    expect_same_run(tree, nat, "gauss p=" + std::to_string(p));
    if (!native_available()) continue;
    if (p == 1) {
      EXPECT_EQ(3 * nat.native_runs, 2 * (nat.plan_hits + nat.plan_misses));
    }
    EXPECT_GT(nat.native_runs, 0) << "p=" << p;
    EXPECT_EQ(nat.native_fallbacks, 0) << "p=" << p;
  }
}

// --- invalidation ---------------------------------------------------------------

TEST(NativeIrregular, RemapOfAGatheredArrayDropsTheAttachment) {
  // X is gathered through V, then rewritten wholesale by CSHIFT between
  // trips: the irregular entry (plan, gathered-buffer operands, kernel
  // attachment) must go with it, or a stale kernel would read through a
  // dangling base.
  const char* src = R"(PROGRAM REGATHER
      INTEGER N
      PARAMETER (N = 16)
      REAL X(N)
      REAL Y(N)
      INTEGER V(N)
      INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN Y(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 1:N) Y(I) = X(V(I)) + 1.0
        X = CSHIFT(Y, 1)
      END DO
      END PROGRAM REGATHER
)";
  auto v_of = [](Index i) { return (i * 5 + 3) % 16; };
  auto run = [&](const interp::RunOptions& ro) {
    auto compiled = compile::compile_source(src);
    machine::SimMachine m = harness::make_machine(4);
    interp::Init init;
    init.real["X"] = [](std::span<const Index> g) {
      return static_cast<double>(g[0]) * 0.5;
    };
    init.ints["V"] = [&](std::span<const Index> g) { return v_of(g[0]) + 1; };
    return interp::run_compiled(compiled, m, init, ro);
  };
  const auto nat = run(kNative);
  const auto tree = run(kTree);
  EXPECT_GT(nat.irregular_invalidations, 0);
  if (native_available()) {
    EXPECT_GT(nat.native_invalidations, 0);
    EXPECT_GT(nat.native_runs, 0);
    EXPECT_EQ(nat.native_fallbacks, 0);
  }
  EXPECT_EQ(nat.machine.exec_time, tree.machine.exec_time);

  std::vector<double> x(16), y(16);
  for (size_t i = 0; i < 16; ++i) x[i] = static_cast<double>(i) * 0.5;
  for (int it = 0; it < 3; ++it) {
    for (Index i = 0; i < 16; ++i)
      y[static_cast<size_t>(i)] = x[static_cast<size_t>(v_of(i))] + 1.0;
    for (size_t i = 0; i < 16; ++i) x[i] = y[(i + 1) % 16];
  }
  for (const auto* got : {&nat.real_arrays.at("X"), &tree.real_arrays.at("X")}) {
    ASSERT_EQ(got->size(), x.size());
    for (size_t k = 0; k < x.size(); ++k) EXPECT_EQ((*got)[k], x[k]) << k;
  }
}

// --- diagnostics ------------------------------------------------------------------

/// The error text of one run, or "" when it completes; with `native_runs`
/// the rank-0 kernel runs of a completed run.
std::string run_error(const std::string& src, int p, const interp::Init& init,
                      const interp::RunOptions& ro,
                      long long* native_runs = nullptr) {
  auto compiled = compile::compile_source(src);
  machine::SimMachine m = harness::make_machine(p);
  try {
    const auto r = interp::run_compiled(compiled, m, init, ro);
    if (native_runs != nullptr) *native_runs = r.native_runs;
    return "";
  } catch (const Error& e) {
    return e.what();
  }
}

/// `bad` breaks one subscript; `good` runs the same statements clean (so
/// the statement's kernels are known to compile).  The native rung and the
/// tree walk must raise exactly the tape's message.
void expect_same_diagnostic(const std::string& src, int p,
                            const interp::Init& good, const interp::Init& bad,
                            const std::string& array) {
  long long runs = 0;
  ASSERT_EQ(run_error(src, p, good, kNative, &runs), "");
  if (native_available()) {
    ASSERT_GT(runs, 0);
  }
  const std::string tape = run_error(src, p, bad, kPlan);
  const std::string nat = run_error(src, p, bad, kNative);
  EXPECT_NE(tape.find("out of range"), std::string::npos) << tape;
  EXPECT_NE(tape.find(" of " + array + " "), std::string::npos) << tape;
  EXPECT_EQ(nat, tape);
  EXPECT_EQ(run_error(src, p, bad, kTree), tape);
}

TEST(NativeIrregular, OutOfRangeGatherSubscriptSameDiagnostic) {
  const std::string src = apps::irregular_source(12, 3, 2);
  interp::Init good;
  good.ints["U"] = [](std::span<const Index> g) { return g[0] + 1; };
  good.ints["V"] = [](std::span<const Index> g) { return 12 - g[0]; };
  interp::Init bad = good;
  bad.ints["V"] = [](std::span<const Index> g) {
    return g[0] == 7 ? 13 : 12 - g[0];
  };
  expect_same_diagnostic(src, 3, good, bad, "B");
}

TEST(NativeIrregular, OutOfRangeScatterDestinationSameDiagnostic) {
  const std::string src = apps::irregular_source(12, 3, 2);
  interp::Init good;
  good.ints["U"] = [](std::span<const Index> g) { return g[0] + 1; };
  good.ints["V"] = [](std::span<const Index> g) { return 12 - g[0]; };
  interp::Init bad = good;
  bad.ints["U"] = [](std::span<const Index> g) {
    return g[0] == 5 ? -2 : g[0] + 1;
  };
  expect_same_diagnostic(src, 3, good, bad, "A");
}

TEST(NativeIrregular, OutOfRangeReplicatedElementSameDiagnostic) {
  // BIN is replicated and read in place (a whole-array element read in the
  // scatter's destination tape); BIN(I+1) leaves it at I = NP.  The tree
  // walk range-checks the subscripts before reading through the DAD, so
  // all three rungs raise the same subscript diagnostic.
  const std::string src = R"(PROGRAM PBIN2
      INTEGER NP
      PARAMETER (NP = 12)
      REAL H(NP)
      REAL W(NP)
      INTEGER BIN(NP)
      INTEGER LAST
C$ PROCESSORS P(3)
C$ TEMPLATE TB(NP)
C$ DISTRIBUTE TB(BLOCK)
C$ ALIGN H(I) WITH TB(I)
C$ ALIGN W(I) WITH TB(I)
      FORALL (I = 1:LAST) H(BIN(I+1)) = W(I) + 1.0
      END PROGRAM PBIN2
)";
  interp::Init good;
  good.ints["BIN"] = [](std::span<const Index> g) { return 12 - g[0]; };
  good.real["W"] = [](std::span<const Index> g) { return g[0] * 0.5; };
  good.scalars["LAST"] = 11;
  interp::Init bad = good;
  bad.scalars["LAST"] = 12;
  expect_same_diagnostic(src, 3, good, bad, "BIN");
}

}  // namespace
}  // namespace f90d
