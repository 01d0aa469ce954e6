// Differential fuzzing: ~200 randomly generated (but fixed-seed) 1-D
// programs, each run through the simulated SPMD machine and diffed
// bit-for-bit against a sequential oracle, and across execution backends
// (tree walk vs execution plans vs native JIT).  Programs mix affine
// stencils, gathers through indirection arrays, permutation scatters and
// zero-trip loops over BLOCK / CYCLIC(k) / INDIRECT(MAP) distributions on
// 1..4 processors.  A second leg generates Gauss-shaped programs — a DO K
// whose FORALL bounds and subscripts are affine in K, with section
// reductions, replicated-lhs concatenations and runtime row subscripts,
// 1-D and 2-D — and diffs the rungs against each other: the parametric
// plans rebind on every trip, and must stay bit-identical to the tree.
// Both legs also compile every program with the §7 comm_opt passes off
// (CodegenOptions::all_off()): on every rung, the arrays must not depend on
// which communication the optimizer kept, eliminated or hoisted — an
// independent check on the one communication path all rungs share.
//
// Reproduce a failure with the printed program index and seed:
//   F90D_FUZZ_SEED=<seed> ctest -R FuzzDifferential
// F90D_FUZZ_COUNT overrides the program count.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <map>
#include <random>
#include <sstream>

#include "harness.hpp"
#include "native/jit.hpp"

namespace f90d {
namespace {

using interp::Index;

// --- random program model ----------------------------------------------------

struct Term {
  /// kInvShift / kInvElem read the never-written array D: loop-invariant
  /// communication for the comm_opt passes to hoist and eliminate.
  enum Kind {
    kArrShift, kArrU, kArrV, kConst, kIterVar, kStepVar, kInvShift, kInvElem
  } kind = kConst;
  int arr = 0;       ///< 0=A 1=B 2=C
  long long c = 0;   ///< kArrShift / kInvShift offset, kInvElem subscript
  double cval = 0;   ///< kConst value
};

struct FuzzStmt {
  bool scatter = false;  ///< lhs subscripted through the permutation U
  int lhs = 0;
  Term t1, t2;
  char op = '+';  ///< + - *
  Index lo = 1, hi = 0;
};

struct FuzzProg {
  int n = 0, p = 0, steps = 0;
  std::string dist;
  std::vector<FuzzStmt> stmts;
  std::vector<long long> u;    ///< permutation of 1..n (scatter destinations)
  std::vector<long long> v;    ///< arbitrary 1-based gather indices
  std::vector<long long> map;  ///< 1-based INDIRECT owners
};

/// All randomness goes through `rng() % m` (not std::uniform_int_distribution,
/// whose mapping is implementation-defined) so a seed reproduces the same
/// programs on every platform.
FuzzProg gen_prog(std::mt19937& rng) {
  auto pick = [&](int m) { return static_cast<int>(rng() % static_cast<unsigned>(m)); };
  FuzzProg pr;
  pr.n = 8 + pick(17);
  pr.p = 1 + pick(4);
  pr.steps = 2 + pick(3);
  static const char* kDists[] = {"BLOCK",     "BLOCK",         "CYCLIC",
                                 "CYCLIC(2)", "CYCLIC(3)",     "INDIRECT(MAP)",
                                 "INDIRECT(MAP)"};
  pr.dist = kDists[pick(7)];
  pr.u.resize(static_cast<size_t>(pr.n));
  for (int i = 0; i < pr.n; ++i) pr.u[static_cast<size_t>(i)] = i + 1;
  for (int i = pr.n - 1; i > 0; --i)
    std::swap(pr.u[static_cast<size_t>(i)],
              pr.u[static_cast<size_t>(pick(i + 1))]);
  for (int i = 0; i < pr.n; ++i) {
    pr.v.push_back(1 + pick(pr.n));
    pr.map.push_back(1 + pick(pr.p));
  }

  const int ns = 1 + pick(3);
  for (int s = 0; s < ns; ++s) {
    FuzzStmt st;
    st.scatter = pick(4) == 0;
    st.lhs = pick(3);
    // The lhs array may appear on the rhs only at the exact iteration index
    // (no cross-element read-after-write hazards), and never in a scatter
    // statement (whose writes are deferred to the post-action executor).
    auto term = [&]() -> Term {
      Term t;
      switch (pick(8)) {
        case 0:
        case 1:
          t.kind = Term::kArrShift;
          t.arr = pick(3);
          t.c = pick(5) - 2;
          if (t.arr == st.lhs) {
            if (st.scatter)
              t.arr = (t.arr + 1) % 3;
            else
              t.c = 0;
          }
          break;
        case 2:
          t.kind = Term::kArrU;
          t.arr = pick(3);
          if (t.arr == st.lhs) t.arr = (t.arr + 1) % 3;
          break;
        case 3:
          t.kind = Term::kArrV;
          t.arr = pick(3);
          if (t.arr == st.lhs) t.arr = (t.arr + 1) % 3;
          break;
        case 4:
          t.kind = Term::kConst;
          t.cval = (pick(7) + 1) * 0.25;
          break;
        case 5:
          t.kind = Term::kInvShift;
          t.c = pick(5) - 2;
          break;
        case 6:
          t.kind = Term::kInvElem;
          t.c = 1 + pick(pr.n);
          break;
        default:
          t.kind = pick(2) == 0 ? Term::kIterVar : Term::kStepVar;
          break;
      }
      return t;
    };
    st.t1 = term();
    st.t2 = term();
    st.op = "+-*"[pick(3)];
    st.lo = 1;
    st.hi = pr.n;
    for (const Term* t : {&st.t1, &st.t2}) {
      if (t->kind != Term::kArrShift && t->kind != Term::kInvShift) continue;
      st.lo = std::max<Index>(st.lo, 1 - t->c);
      st.hi = std::min<Index>(st.hi, pr.n - t->c);
    }
    if (pick(20) == 0) {  // deliberate zero-trip nest
      st.lo = 2;
      st.hi = 1;
    }
    pr.stmts.push_back(st);
  }
  return pr;
}

// --- rendering ---------------------------------------------------------------

std::string render_term(const Term& t) {
  const char* nm = t.arr == 0 ? "A" : t.arr == 1 ? "B" : "C";
  std::ostringstream os;
  switch (t.kind) {
    case Term::kArrShift:
      os << nm << "(I";
      if (t.c > 0) os << "+" << t.c;
      if (t.c < 0) os << "-" << -t.c;
      os << ")";
      break;
    case Term::kInvShift:
      os << "D(I";
      if (t.c > 0) os << "+" << t.c;
      if (t.c < 0) os << "-" << -t.c;
      os << ")";
      break;
    case Term::kInvElem: os << "D(" << t.c << ")"; break;
    case Term::kArrU: os << nm << "(U(I))"; break;
    case Term::kArrV: os << nm << "(V(I))"; break;
    case Term::kConst: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", t.cval);
      os << buf;
      break;
    }
    case Term::kIterVar: os << "I"; break;
    case Term::kStepVar: os << "IT"; break;
  }
  return os.str();
}

std::string render_prog(const FuzzProg& pr) {
  std::ostringstream os;
  os << "PROGRAM FZ\n"
     << "      INTEGER N\n"
     << "      PARAMETER (N = " << pr.n << ")\n"
     << "      REAL A(N)\n      REAL B(N)\n      REAL C(N)\n      REAL D(N)\n"
     << "      INTEGER U(N)\n      INTEGER V(N)\n      INTEGER MAP(N)\n"
     << "      INTEGER IT\n"
     << "C$ PROCESSORS P(" << pr.p << ")\n"
     << "C$ TEMPLATE T(N)\n"
     << "C$ DISTRIBUTE T(" << pr.dist << ")\n"
     << "C$ ALIGN A(I) WITH T(I)\n"
     << "C$ ALIGN B(I) WITH T(I)\n"
     << "C$ ALIGN C(I) WITH T(I)\n"
     << "C$ ALIGN D(I) WITH T(I)\n"
     << "      DO IT = 1, " << pr.steps << "\n";
  for (const FuzzStmt& st : pr.stmts) {
    const char* nm = st.lhs == 0 ? "A" : st.lhs == 1 ? "B" : "C";
    os << "        FORALL (I = " << st.lo << ":" << st.hi << ") " << nm
       << (st.scatter ? "(U(I)) = " : "(I) = ") << render_term(st.t1) << " "
       << st.op << " " << render_term(st.t2) << "\n";
  }
  os << "      END DO\n      END PROGRAM FZ\n";
  return os.str();
}

// --- sequential oracle -------------------------------------------------------

double init_a(Index i0) { return i0 * 0.5 + 1.0; }
double init_b(Index i0) { return i0 * 0.25 + 2.0; }
double init_c(Index i0) { return (i0 % 5) * 1.5; }
double init_d(Index i0) { return (i0 % 3) + 0.5; }

struct Arrays {
  std::vector<double> a, b, c;
  std::vector<double>& of(int k) { return k == 0 ? a : k == 1 ? b : c; }
};

Arrays oracle_run(const FuzzProg& pr) {
  Arrays ar;
  for (Index i = 0; i < pr.n; ++i) {
    ar.a.push_back(init_a(i));
    ar.b.push_back(init_b(i));
    ar.c.push_back(init_c(i));
  }
  for (int it = 1; it <= pr.steps; ++it) {
    for (const FuzzStmt& st : pr.stmts) {
      auto term = [&](const Term& t, Index i) -> double {
        switch (t.kind) {
          case Term::kArrShift:
            return ar.of(t.arr)[static_cast<size_t>(i + t.c - 1)];
          case Term::kInvShift: return init_d(i + t.c - 1);
          case Term::kInvElem: return init_d(t.c - 1);
          case Term::kArrU:
            return ar.of(t.arr)[static_cast<size_t>(
                pr.u[static_cast<size_t>(i - 1)] - 1)];
          case Term::kArrV:
            return ar.of(t.arr)[static_cast<size_t>(
                pr.v[static_cast<size_t>(i - 1)] - 1)];
          case Term::kConst: return t.cval;
          case Term::kIterVar: return static_cast<double>(i);
          case Term::kStepVar: return static_cast<double>(it);
        }
        return 0;
      };
      auto ev = [&](Index i) {
        const double x = term(st.t1, i), y = term(st.t2, i);
        return st.op == '+' ? x + y : st.op == '-' ? x - y : x * y;
      };
      if (st.scatter) {
        // Deferred writes, like the executor: all reads precede all writes.
        // U is a permutation, so the apply order cannot matter.
        std::vector<std::pair<size_t, double>> writes;
        for (Index i = st.lo; i <= st.hi; ++i)
          writes.emplace_back(
              static_cast<size_t>(pr.u[static_cast<size_t>(i - 1)] - 1),
              ev(i));
        for (const auto& [d, val] : writes) ar.of(st.lhs)[d] = val;
      } else {
        for (Index i = st.lo; i <= st.hi; ++i)
          ar.of(st.lhs)[static_cast<size_t>(i - 1)] = ev(i);
      }
    }
  }
  return ar;
}

// --- simulated run -----------------------------------------------------------

struct SimArrays {
  Arrays ar;
  double sim_time = 0;
  std::uint64_t messages = 0;
  /// Rank-0 kernel runs beyond one per regular plan lookup: gathers,
  /// scatters and needs enumerations that ran on a kernel.
  long long irregular_kernel_runs = 0;
};

SimArrays sim_run(const FuzzProg& pr, const interp::RunOptions& ro,
                  const compile::CodegenOptions& codegen = {}) {
  auto compiled = compile::compile_source(render_prog(pr), {}, codegen);
  machine::SimMachine m = harness::make_machine(pr.p);
  interp::Init init;
  init.ints["U"] = [&pr](std::span<const Index> g) {
    return pr.u[static_cast<size_t>(g[0])];
  };
  init.ints["V"] = [&pr](std::span<const Index> g) {
    return pr.v[static_cast<size_t>(g[0])];
  };
  init.ints["MAP"] = [&pr](std::span<const Index> g) {
    return pr.map[static_cast<size_t>(g[0])];
  };
  init.real["A"] = [](std::span<const Index> g) { return init_a(g[0]); };
  init.real["B"] = [](std::span<const Index> g) { return init_b(g[0]); };
  init.real["C"] = [](std::span<const Index> g) { return init_c(g[0]); };
  init.real["D"] = [](std::span<const Index> g) { return init_d(g[0]); };
  auto r = interp::run_compiled(compiled, m, init, ro);
  SimArrays out;
  out.ar.a = r.real_arrays.at("A");
  out.ar.b = r.real_arrays.at("B");
  out.ar.c = r.real_arrays.at("C");
  out.sim_time = r.machine.exec_time;
  out.messages = r.machine.total_messages();
  out.irregular_kernel_runs = r.native_runs - r.plan_hits - r.plan_misses;
  return out;
}

/// Exact elementwise equality across all three arrays.
bool same_arrays(const Arrays& x, const Arrays& y, std::string* why) {
  const char* nms = "ABC";
  for (int k = 0; k < 3; ++k) {
    const auto& xv = const_cast<Arrays&>(x).of(k);
    const auto& yv = const_cast<Arrays&>(y).of(k);
    if (xv.size() != yv.size()) {
      *why = std::string(1, nms[k]) + ": size mismatch";
      return false;
    }
    for (size_t i = 0; i < xv.size(); ++i)
      if (xv[i] != yv[i]) {
        std::ostringstream os;
        os << nms[k] << "(" << i + 1 << "): " << xv[i] << " vs " << yv[i];
        *why = os.str();
        return false;
      }
  }
  return true;
}

TEST(FuzzDifferential, RandomProgramsAgreeAcrossBackendsAndOracle) {
  unsigned seed = 0xF90D;
  if (const char* s = std::getenv("F90D_FUZZ_SEED"))
    seed = static_cast<unsigned>(std::strtoul(s, nullptr, 0));
  int count = 200;
  if (const char* s = std::getenv("F90D_FUZZ_COUNT"))
    count = std::atoi(s);

  std::mt19937 rng(seed);
  long long irregular_kernel_runs = 0;
  int opt_sensitive = 0;  ///< programs whose traffic comm_opt changes
  for (int k = 0; k < count; ++k) {
    const FuzzProg pr = gen_prog(rng);
    const Arrays want = oracle_run(pr);
    std::string why;

    // The comm_opt-off compile of the same program on the same rung.
    auto expect_opt_invariant = [&](const SimArrays& got,
                                    const interp::RunOptions& ro,
                                    const char* rung) {
      const SimArrays off = sim_run(pr, ro, compile::CodegenOptions::all_off());
      EXPECT_TRUE(same_arrays(off.ar, got.ar, &why))
          << rung << " comm_opt off vs on: " << why;
      return off.messages != got.messages;
    };

    SimArrays plan = sim_run(pr, {});
    EXPECT_TRUE(same_arrays(plan.ar, want, &why))
        << "plan vs oracle: " << why;
    opt_sensitive += expect_opt_invariant(plan, {}, "plan") ? 1 : 0;

    interp::RunOptions tro;
    tro.exec_plans = false;
    SimArrays tree = sim_run(pr, tro);
    EXPECT_TRUE(same_arrays(tree.ar, plan.ar, &why))
        << "tree vs plan: " << why;
    EXPECT_DOUBLE_EQ(tree.sim_time, plan.sim_time);
    expect_opt_invariant(tree, tro, "tree");

    if (k % 5 == 0) {
      interp::RunOptions nro;
      nro.native_backend = true;
      SimArrays native = sim_run(pr, nro);
      EXPECT_TRUE(same_arrays(native.ar, plan.ar, &why))
          << "native vs plan: " << why;
      EXPECT_DOUBLE_EQ(native.sim_time, plan.sim_time);
      expect_opt_invariant(native, nro, "native");
      irregular_kernel_runs += native.irregular_kernel_runs;
    }

    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at program " << k << " (seed "
                    << seed << "):\n"
                    << render_prog(pr);
      break;
    }
  }
  // The native legs exercised the PARTI kernels, not just regular plans.
  if (native::NativeCache::instance().available() && count >= 50) {
    EXPECT_GT(irregular_kernel_runs, 0);
  }
  // The comm_opt leg compared programs the passes actually changed.
  if (count >= 50) {
    EXPECT_GT(opt_sensitive, count / 10);
  }
}

// --- Gauss-shaped leg ----------------------------------------------------------

/// One random Gauss-shaped program's source text.
std::string gen_pivot_prog(std::mt19937& rng) {
  auto pick = [&](int m) { return static_cast<int>(rng() % static_cast<unsigned>(m)); };
  static const char* kDists[] = {"BLOCK", "BLOCK", "CYCLIC", "CYCLIC(2)",
                                 "CYCLIC(3)"};
  const int n = 6 + pick(9);
  const bool two_d = pick(2) == 0;
  std::ostringstream os;
  os << "PROGRAM GZ\n      INTEGER N\n      PARAMETER (N = " << n << ")\n";
  // Array-array terms only add or subtract (products would overflow
  // within a dozen trips); scaling is by constants.
  auto op = [&] { return std::string(pick(2) == 0 ? " + " : " - "); };
  auto cst = [&] {
    char buf[16];
    std::snprintf(buf, sizeof buf, "%.2f", (pick(7) + 1) * 0.25);
    return std::string(buf);
  };
  std::vector<std::string> body;
  if (!two_d) {
    os << "      REAL A(N)\n      REAL B(N)\n      REAL L(N)\n"
       << "      REAL S\n      INTEGER IM\n      INTEGER K\n"
       << "C$ PROCESSORS P(" << 1 + pick(4) << ")\n"
       << "C$ TEMPLATE T(N)\n"
       << "C$ DISTRIBUTE T(" << kDists[pick(5)] << ")\n"
       << "C$ ALIGN A(I) WITH T(I)\nC$ ALIGN B(I) WITH T(I)\n";
    const int ns = 1 + pick(3);
    for (int k = 0; k < ns; ++k) {
      const char* x = pick(2) == 0 ? "A" : "B";
      const char* y = pick(2) == 0 ? "A" : "B";
      switch (pick(4)) {
        case 0: {  // shifted stencil over a K-dependent range
          const int c = pick(5) - 2;
          const int a = std::max(pick(3), -c);
          const int b = std::max(pick(2), c);
          std::ostringstream st;
          st << "FORALL (I = K+" << a << ":N-" << b << ") " << x << "(I) = "
             << y << "(I" << (c >= 0 ? "+" : "") << c << ")" << op() << y
             << "(K+" << pick(2) << ")";
          body.push_back(st.str());
          break;
        }
        case 1:  // section reduction feeding the next statement
          body.push_back(std::string("S = SUM(") + y + "(K:N))");
          body.push_back(std::string("FORALL (I = K:N) ") + x + "(I) = " + x +
                         "(I) * 0.5" + op() + "S * 0.125");
          break;
        case 2:  // pivot search with a runtime element subscript
          body.push_back(std::string("IM = MAXLOC(ABS(") + y + "(K:N)))");
          body.push_back(std::string("FORALL (I = K+1:N) ") + x + "(I) = " +
                         x + "(I)" + op() + y + "(IM)");
          break;
        default:  // replicated-lhs multipliers (concatenation)
          body.push_back(std::string("FORALL (I = K+1:N) L(I) = ") + y +
                         "(I) / (ABS(" + y + "(K)) + 1.0)");
          body.push_back(std::string("FORALL (I = K+1:N) ") + x + "(I) = " +
                         x + "(I) - L(I) * " + cst());
          break;
      }
    }
  } else {
    const char* d1 = pick(3) == 0 ? kDists[pick(5)] : "*";
    const char* d2 = kDists[pick(5)];
    const bool grid2 = d1[0] != '*';
    const int p = 1 + pick(grid2 ? 2 : 4);
    const int q = grid2 ? 1 + pick(2) : 1;
    os << "      REAL A(N, N+1)\n      REAL B(N, N+1)\n      REAL L(N)\n"
       << "      REAL TMPR(N+1)\n      INTEGER IM\n      INTEGER K\n";
    if (grid2)
      os << "C$ PROCESSORS P(" << p << ", " << q << ")\n";
    else
      os << "C$ PROCESSORS P(" << p << ")\n";
    os << "C$ TEMPLATE TA(N, N+1)\n"
       << "C$ DISTRIBUTE TA(" << d1 << ", " << d2 << ")\n"
       << "C$ ALIGN A(I, J) WITH TA(I, J)\n"
       << "C$ ALIGN B(I, J) WITH TA(I, J)\n";
    if (!grid2) os << "C$ ALIGN TMPR(J) WITH TA(*, J)\n";
    const int ns = 1 + pick(3);
    for (int k = 0; k < ns; ++k) {
      const char* x = pick(2) == 0 ? "A" : "B";
      switch (pick(3)) {
        case 0:  // pivot search and a guarded runtime-row swap
          body.push_back("IM = MAXLOC(ABS(A(K:N, K)))");
          body.push_back("IF (IM .NE. K) THEN");
          body.push_back("  TMPR(K:N+1) = A(K, K:N+1)");
          body.push_back("  A(K, K:N+1) = A(IM, K:N+1)");
          body.push_back("  A(IM, K:N+1) = TMPR(K:N+1)");
          body.push_back("END IF");
          break;
        case 1:  // multipliers then the rank-1 update
          body.push_back("L(K+1:N) = A(K+1:N, K) / (ABS(A(K, K)) + 1.0)");
          body.push_back(std::string("FORALL (I = K+1:N, J = K+") +
                         std::to_string(pick(2)) + ":N+1) " + x + "(I, J) = " +
                         x + "(I, J) - L(I) * A(K, J)");
          break;
        default: {  // a K-shifted block update
          std::ostringstream st;
          st << "FORALL (I = K+" << pick(2) << ":N, J = K:N+1) " << x
             << "(I, J) = A(I, J)" << op() << "B(K, J) * " << cst();
          body.push_back(st.str());
          break;
        }
      }
    }
  }
  os << "      DO K = 1, N-1\n";
  for (const std::string& b : body) os << "        " << b << "\n";
  os << "      END DO\n      END PROGRAM GZ\n";
  return os.str();
}

struct PivotRun {
  std::map<std::string, std::vector<double>> arrays;
  double sim_time = 0;
  int plan_hits = 0;
  long long tree_stmts = 0;
};

PivotRun pivot_run(const std::string& src, const interp::RunOptions& ro,
                   const compile::CodegenOptions& codegen = {}) {
  interp::Init init;
  auto entry = [](std::span<const Index> g) {
    const Index j = g.size() > 1 ? g[1] : 0;
    return static_cast<double>(1 + (g[0] * 7 + j * 13) % 11) *
           (1.0 + 0.25 * static_cast<double>(g[0]));
  };
  init.real["A"] = entry;
  init.real["B"] = [entry](std::span<const Index> g) { return entry(g) * 0.5; };
  auto r = harness::run_source(src, init, ro, {}, codegen);
  return PivotRun{r.real_arrays, r.machine.exec_time, r.plan_hits,
                  r.tree_stmts};
}

/// Bitwise equality (NaN payloads included) of every gathered array.
bool same_bits(const PivotRun& x, const PivotRun& y, std::string* why) {
  if (x.arrays.size() != y.arrays.size()) {
    *why = "array sets differ";
    return false;
  }
  for (const auto& [name, xv] : x.arrays) {
    const std::vector<double>& yv = y.arrays.at(name);
    if (xv.size() != yv.size() ||
        std::memcmp(xv.data(), yv.data(), xv.size() * sizeof(double)) != 0) {
      *why = name + " differs";
      return false;
    }
  }
  return true;
}

TEST(FuzzDifferential, GaussShapedProgramsAgreeAcrossBackends) {
  unsigned seed = 0x6A055;
  if (const char* s = std::getenv("F90D_FUZZ_SEED"))
    seed = static_cast<unsigned>(std::strtoul(s, nullptr, 0));
  int count = 200;
  if (const char* s = std::getenv("F90D_FUZZ_COUNT"))
    count = std::atoi(s);

  std::mt19937 rng(seed);
  long long plan_hits = 0;
  long long planned_programs = 0;
  for (int k = 0; k < count; ++k) {
    const std::string src = gen_pivot_prog(rng);
    std::string why;
    // The comm_opt-off compile of the same program on the same rung.
    auto expect_opt_invariant = [&](const PivotRun& got,
                                    const interp::RunOptions& ro,
                                    const char* rung) {
      const PivotRun off =
          pivot_run(src, ro, compile::CodegenOptions::all_off());
      EXPECT_TRUE(same_bits(off, got, &why))
          << rung << " comm_opt off vs on: " << why;
    };
    interp::RunOptions tro;
    tro.exec_plans = false;
    const PivotRun tree = pivot_run(src, tro);
    const PivotRun plan = pivot_run(src, {});
    ASSERT_FALSE(tree.arrays.empty());
    plan_hits += plan.plan_hits;
    planned_programs += plan.tree_stmts == 0 ? 1 : 0;
    EXPECT_TRUE(same_bits(plan, tree, &why)) << "plan vs tree: " << why;
    EXPECT_EQ(plan.sim_time, tree.sim_time);
    expect_opt_invariant(tree, tro, "tree");
    expect_opt_invariant(plan, {}, "plan");
    if (k % 5 == 0) {
      interp::RunOptions nro;
      nro.native_backend = true;
      const PivotRun native = pivot_run(src, nro);
      EXPECT_TRUE(same_bits(native, tree, &why)) << "native vs tree: " << why;
      EXPECT_EQ(native.sim_time, tree.sim_time);
      expect_opt_invariant(native, nro, "native");
    }
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "first divergence at program " << k << " (seed "
                    << seed << "):\n"
                    << src;
      break;
    }
  }
  if (std::getenv("F90D_FUZZ_VERBOSE"))
    std::printf("gauss-shaped leg: %lld plan hits, %lld of %d programs "
                "fully planned\n",
                plan_hits, planned_programs, count);
  // The leg exercises rebinding: K-parametric plans hit across trips.
  EXPECT_GT(plan_hits, count);
}

}  // namespace
}  // namespace f90d
