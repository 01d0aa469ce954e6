#include "workloads.hpp"

#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>

#include "apps/gauss_hand.hpp"
#include "apps/sources.hpp"
#include "common.hpp"

namespace perfbench {

namespace {

using f90d::rts::Index;
using Table = std::shared_ptr<const std::vector<double>>;
using ITable = std::shared_ptr<const std::vector<long long>>;

// Workload sizes (README.md explains the choices).
constexpr int kStencilN = 256;
constexpr int kStencilGrid = 8;  // 8 x 8 = 64 simulated processors
constexpr int kStencilIters = 50;
constexpr int kGaussN = 256;
constexpr int kGaussProcs = 16;
constexpr int kIrregularProcs = 8;
constexpr int kSpmvN = 4096, kSpmvNk = 4, kSpmvSteps = 4;
constexpr int kMeshNodes = 4096, kMeshEdges = 8192, kMeshSteps = 4;
constexpr int kParticles = 4096, kParticleSteps = 4;
constexpr const char* kIndirect = "INDIRECT(MAP)";

Table random_table(Rng& rng, std::size_t n, long long lo, long long hi,
                   double scale) {
  auto t = std::make_shared<std::vector<double>>(n);
  for (double& v : *t) v = static_cast<double>(rng.uniform(lo, hi)) * scale;
  return t;
}

/// 1-based indices uniform in [1, hi].
ITable random_indices(Rng& rng, std::size_t n, long long hi) {
  auto t = std::make_shared<std::vector<long long>>(n);
  for (long long& v : *t) v = rng.uniform(1, hi);
  return t;
}

/// A seeded permutation of 0..n-1 (Fisher-Yates).
std::vector<long long> permutation(Rng& rng, long long n) {
  std::vector<long long> p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0LL);
  for (long long i = n - 1; i > 0; --i)
    std::swap(p[static_cast<std::size_t>(i)],
              p[static_cast<std::size_t>(rng.uniform(0, i))]);
  return p;
}

/// Row-major 2-D initializer reading a table of `cols` columns.
auto real2(Table t, Index cols) {
  return [t = std::move(t), cols](std::span<const Index> g) {
    return (*t)[static_cast<std::size_t>(g[0] * cols + g[1])];
  };
}
auto real1(Table t) {
  return [t = std::move(t)](std::span<const Index> g) {
    return (*t)[static_cast<std::size_t>(g[0])];
  };
}
auto int1(ITable t) {
  return [t = std::move(t)](std::span<const Index> g) {
    return (*t)[static_cast<std::size_t>(g[0])];
  };
}
auto int2(ITable t, Index cols) {
  return [t = std::move(t), cols](std::span<const Index> g) {
    return (*t)[static_cast<std::size_t>(g[0] * cols + g[1])];
  };
}

// --- stencil: jacobi with a loop-invariant coefficient array ----------------

/// tests/harness.hpp jacobi_hoisted_oracle over seeded A and C tables, in
/// the program's exact operation order (bit-identical sums).
std::vector<double> stencil_oracle(int n, int iters, const std::vector<double>& a0,
                                   const std::vector<double>& c) {
  std::vector<double> a = a0;
  std::vector<double> b(a.size(), 0.0);
  auto at = [n](int i, int j) { return static_cast<std::size_t>(i * n + j); };
  const double s = c[0];
  for (int it = 0; it < iters; ++it) {
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j)
        b[at(i, j)] = c[at(i - 1, j)] + 0.25 * (a[at(i - 1, j)] + a[at(i + 1, j)] +
                                                a[at(i, j - 1)] + a[at(i, j + 1)]);
    for (int i = 1; i < n - 1; ++i)
      for (int j = 1; j < n - 1; ++j) a[at(i, j)] = b[at(i, j)] + c[at(i - 1, j)] - s;
  }
  return a;
}

Program stencil(Rng& rng) {
  const int n = kStencilN;
  const auto cells = static_cast<std::size_t>(n) * n;
  Table a = random_table(rng, cells, 0, 10, 1.0);
  Table c = random_table(rng, cells, 0, 6, 0.5);
  Program p;
  p.name = "jacobi_hoisted";
  p.source = f90d::apps::jacobi_hoisted_source(n, kStencilGrid, kStencilGrid, kStencilIters);
  p.nprocs = kStencilGrid * kStencilGrid;
  p.array = "A";
  p.init.real["A"] = real2(a, n);
  p.init.real["C"] = real2(c, n);
  p.oracle = [n, a, c] { return stencil_oracle(n, kStencilIters, *a, *c); };
  return p;
}

// --- gauss: the paper's section 8 application --------------------------------

/// tests/harness.hpp gauss_oracle: partial pivoting, row swap, rank-1 update
/// in the compiled program's order.
template <typename Entry>
std::vector<double> gauss_oracle(int n, Entry&& entry) {
  const int m = n + 1;
  std::vector<double> a(static_cast<std::size_t>(n) * m);
  auto at = [&](int i, int j) -> double& { return a[static_cast<std::size_t>(i * m + j)]; };
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < m; ++j) at(i, j) = entry(i, j);
  std::vector<double> l(static_cast<std::size_t>(n));
  for (int k = 0; k < n - 1; ++k) {
    int piv = k;
    double best = -1;
    for (int i = k; i < n; ++i)
      if (std::fabs(at(i, k)) > best) {
        best = std::fabs(at(i, k));
        piv = i;
      }
    if (piv != k)
      for (int j = k; j < m; ++j) std::swap(at(k, j), at(piv, j));
    for (int i = k + 1; i < n; ++i) l[static_cast<std::size_t>(i)] = at(i, k) / at(k, k);
    for (int i = k + 1; i < n; ++i)
      for (int j = k + 1; j < m; ++j) at(i, j) -= l[static_cast<std::size_t>(i)] * at(k, j);
  }
  return a;
}

Program gauss(Rng& rng) {
  const int n = kGaussN;
  // A symmetric seeded permutation of apps::gauss_matrix_entry's system:
  // the diagonal stays on the diagonal, so the matrix stays diagonally
  // dominant, no pivot swap ever runs, and the simulated time is the same
  // on every seed.
  auto perm = std::make_shared<const std::vector<long long>>(permutation(rng, n));
  auto entry = [n, perm](Index i, Index j) {
    const auto& pm = *perm;
    const long long pj = j == n ? n : pm[static_cast<std::size_t>(j)];
    return f90d::apps::gauss_matrix_entry(n, pm[static_cast<std::size_t>(i)], pj);
  };
  Program p;
  p.name = "gauss";
  p.source = f90d::apps::gauss_source(n, kGaussProcs);
  p.nprocs = kGaussProcs;
  p.array = "A";
  p.init.real["A"] = [entry](std::span<const Index> g) { return entry(g[0], g[1]); };
  p.oracle = [n, entry] { return gauss_oracle(n, entry); };
  // GE defines the upper triangle and the rhs; below the diagonal is scratch.
  p.defined = [n](std::size_t flat) {
    return static_cast<int>(flat) % (n + 1) >= static_cast<int>(flat) / (n + 1);
  };
  return p;
}

// --- irregular: PARTI gathers and scatters over INDIRECT(MAP) ----------------

ITable owner_map(Rng& rng, int n) {
  return random_indices(rng, static_cast<std::size_t>(n), kIrregularProcs);
}

Program spmv(Rng& rng) {
  const int n = kSpmvN, nk = kSpmvNk;
  const auto cells = static_cast<std::size_t>(n) * nk;
  ITable map = owner_map(rng, n);
  ITable col = random_indices(rng, cells, n);
  Table a = random_table(rng, cells, 1, 28, 0.25);
  Table x = random_table(rng, static_cast<std::size_t>(n), 2, 34, 0.5);
  Program p;
  p.name = "spmv_ell";
  p.source = f90d::apps::spmv_ell_source(n, nk, kIrregularProcs, kSpmvSteps, kIndirect);
  p.nprocs = kIrregularProcs;
  p.array = "Y";
  p.init.ints["MAP"] = int1(map);
  p.init.ints["COL"] = int2(col, nk);
  p.init.real["A"] = real2(a, nk);
  p.init.real["X"] = real1(x);
  p.init.real["Y"] = [](std::span<const Index>) { return 0.0; };
  p.oracle = [n, nk, col, a, x] {
    // Steps outer, K middle, I inner: the program's summation order.
    std::vector<double> y(static_cast<std::size_t>(n), 0.0);
    for (int it = 0; it < kSpmvSteps; ++it)
      for (int k = 0; k < nk; ++k)
        for (int i = 0; i < n; ++i) {
          const auto ik = static_cast<std::size_t>(i * nk + k);
          y[static_cast<std::size_t>(i)] +=
              (*a)[ik] * (*x)[static_cast<std::size_t>((*col)[ik] - 1)];
        }
    return y;
  };
  return p;
}

Program mesh(Rng& rng) {
  const int nn = kMeshNodes, ne = kMeshEdges;
  ITable map = owner_map(rng, nn);
  ITable e1 = random_indices(rng, static_cast<std::size_t>(ne), nn);
  ITable e2 = random_indices(rng, static_cast<std::size_t>(ne), nn);
  Table xn = random_table(rng, static_cast<std::size_t>(nn), 2, 40, 0.5);
  Program p;
  p.name = "mesh_sweep";
  p.source = f90d::apps::mesh_sweep_source(nn, ne, kIrregularProcs, kMeshSteps, kIndirect);
  p.nprocs = kIrregularProcs;
  p.array = "F";
  p.init.ints["MAP"] = int1(map);
  p.init.ints["E1"] = int1(e1);
  p.init.ints["E2"] = int1(e2);
  p.init.real["XN"] = real1(xn);
  p.oracle = [nn, ne, e1, e2, xn] {
    std::vector<double> x = *xn;
    std::vector<double> f(static_cast<std::size_t>(ne), 0.0);
    for (int it = 0; it < kMeshSteps; ++it) {
      for (int e = 0; e < ne; ++e)
        f[static_cast<std::size_t>(e)] =
            x[static_cast<std::size_t>((*e2)[static_cast<std::size_t>(e)] - 1)] -
            x[static_cast<std::size_t>((*e1)[static_cast<std::size_t>(e)] - 1)];
      for (int i = 0; i < nn; ++i)
        x[static_cast<std::size_t>(i)] += 0.125 * x[static_cast<std::size_t>(i)];
    }
    return f;
  };
  return p;
}

Program particles(Rng& rng) {
  const int np = kParticles;
  ITable map = owner_map(rng, np);
  // BIN must be a permutation so the overwrite scatter is deterministic.
  auto bin = std::make_shared<std::vector<long long>>(permutation(rng, np));
  for (long long& b : *bin) b += 1;
  Table w = random_table(rng, static_cast<std::size_t>(np), 4, 60, 0.25);
  Program p;
  p.name = "particle_bin";
  p.source = f90d::apps::particle_bin_source(np, kIrregularProcs, kParticleSteps, kIndirect);
  p.nprocs = kIrregularProcs;
  p.array = "H";
  p.init.ints["MAP"] = int1(map);
  p.init.ints["BIN"] = int1(bin);
  p.init.real["W"] = real1(w);
  p.init.real["H"] = [](std::span<const Index>) { return 0.0; };
  p.oracle = [np, bin, w] {
    std::vector<double> h(static_cast<std::size_t>(np), 0.0);
    for (int it = 1; it <= kParticleSteps; ++it)
      for (int i = 0; i < np; ++i)
        h[static_cast<std::size_t>((*bin)[static_cast<std::size_t>(i)] - 1)] =
            (*w)[static_cast<std::size_t>(i)] + it;
    return h;
  };
  return p;
}

}  // namespace

bool is_inprocess_workload(const std::string& name) {
  return name == "stencil" || name == "gauss" || name == "irregular";
}

std::vector<Program> make_programs(const std::string& name, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Program> out;
  if (name == "stencil") {
    out.push_back(stencil(rng));
  } else if (name == "gauss") {
    out.push_back(gauss(rng));
  } else if (name == "irregular") {
    out.push_back(spmv(rng));
    out.push_back(mesh(rng));
    out.push_back(particles(rng));
  }
  return out;
}

double max_rel_diff(const std::vector<double>& got, const std::vector<double>& want,
                    const std::function<bool(std::size_t)>& defined) {
  if (got.size() != want.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t k = 0; k < want.size(); ++k) {
    if (defined && !defined(k)) continue;
    const double d = std::fabs(got[k] - want[k]) / std::max(1.0, std::fabs(want[k]));
    if (!std::isfinite(d)) return std::numeric_limits<double>::infinity();
    worst = std::max(worst, d);
  }
  return worst;
}

}  // namespace perfbench
