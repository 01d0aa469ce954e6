// Golden-traffic tests: the simulated wire traffic of the paper workloads,
// pinned per (workload, grid, comm_opt config, execution mode) under
// tests/golden/traffic_*.txt.  Each line records the message count, the
// byte count, the simulated time (exact, as a hexadecimal float) and a
// hash of the final array bits, on the iPSC/860 cost model.
//
// The file is the oracle for the communication layer: every regular
// pre-communication action (overlap shifts, element broadcasts, multicast
// and transfer slabs, hoisted preheader actions) must reproduce these
// numbers to the message and the tick on the tree, plan, native and
// skeleton modes alike.  The arrays must also be bit-identical across the
// tree, plan and native modes of one configuration.
//
// Regenerate the snapshots with:
//   ./test_golden_traffic --update-golden
// (F90D_GOLDEN_DIR is baked in by CMake and points at the source tree.)
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sources.hpp"
#include "harness.hpp"
#include "service/service.hpp"
#include "support/diag.hpp"

namespace f90d {
namespace {

using interp::Index;

bool g_update_golden = false;

std::string golden_path(const std::string& workload) {
  return std::string(F90D_GOLDEN_DIR) + "/traffic_" + workload + ".txt";
}

struct Mode {
  const char* name;
  interp::RunOptions run;
};

std::vector<Mode> modes() {
  std::vector<Mode> out;
  interp::RunOptions tree;
  tree.exec_plans = false;
  out.push_back({"tree", tree});
  out.push_back({"plan", {}});
  interp::RunOptions native;
  native.native_backend = true;
  out.push_back({"native", native});
  interp::RunOptions skeleton;
  skeleton.skeleton = true;
  out.push_back({"skeleton", skeleton});
  return out;
}

struct Grid {
  int p, q;
};

const std::vector<Grid> kGrids2d = {{1, 1}, {1, 4}, {2, 2}, {4, 1}, {4, 4}};
/// A 1-D program sees only p*q, so 1x4, 2x2 and 4x1 are one machine.
const std::vector<Grid> kGrids1d = {{1, 1}, {1, 4}, {4, 4}};

/// FNV-1a over the bits of every gathered array, in name order.
std::uint64_t array_hash(const interp::ProgramResult& r) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t k = 0; k < n; ++k) h = (h ^ b[k]) * 1099511628211ULL;
  };
  for (const auto& [name, v] : r.real_arrays) {
    mix(name.data(), name.size());
    mix(v.data(), v.size() * sizeof(double));
  }
  for (const auto& [name, v] : r.int_arrays) {
    mix(name.data(), name.size());
    mix(v.data(), v.size() * sizeof(long long));
  }
  return h;
}

/// One workload: its source for a grid, and its initial data.
struct Workload {
  std::string name;
  std::string (*source)(Grid);
  interp::Init (*init)();
  bool one_d = false;  ///< lines say "p<N>" instead of "<p>x<q>"
};

interp::Init jacobi_init() {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  init.real["C"] = [](std::span<const Index> g) {
    return harness::jacobi_c_entry(g[0], g[1]);
  };
  return init;
}

interp::Init gauss_init() {
  interp::Init init;
  init.real["A"] = [](std::span<const Index> g) {
    return apps::gauss_matrix_entry(16, g[0], g[1]);
  };
  return init;
}

interp::Init fft_init() {
  interp::Init init;
  init.real["X"] = [](std::span<const Index> g) { return g[0] + 1.0; };
  init.real["TERM2"] = [](std::span<const Index> g) { return g[0] * 0.5; };
  return init;
}

/// Run every (grid, config, mode) of `w` and render one line each.  Also
/// checks that tree, plan and native agree bit for bit on the arrays.
std::string render(const Workload& w) {
  std::ostringstream out;
  for (const Grid& grid : w.one_d ? kGrids1d : kGrids2d) {
    for (const auto& [config, codegen] : harness::pass_ladder()) {
      std::uint64_t tree_hash = 0;
      for (const Mode& mode : modes()) {
        service::RunSpec spec;
        spec.codegen = codegen;
        spec.init = w.init();
        spec.run = mode.run;
        const interp::ProgramResult r =
            service::compile_and_run(w.source(grid), spec).result;
        const std::uint64_t h = array_hash(r);
        const std::string shape =
            w.one_d ? strformat("p%d", grid.p * grid.q)
                    : strformat("%dx%d", grid.p, grid.q);
        const std::string what = strformat(
            "%s %s %s %s", w.name.c_str(), shape.c_str(), config, mode.name);
        if (std::strcmp(mode.name, "tree") == 0) {
          tree_hash = h;
        } else if (std::strcmp(mode.name, "skeleton") != 0) {
          EXPECT_EQ(h, tree_hash) << what << ": arrays differ from the tree";
        }
        out << what
            << strformat(" messages=%llu bytes=%llu sim=%a hash=%016llx\n",
                         static_cast<unsigned long long>(
                             r.machine.total_messages()),
                         static_cast<unsigned long long>(
                             r.machine.total_bytes()),
                         r.machine.exec_time,
                         static_cast<unsigned long long>(h));
      }
    }
  }
  return out.str();
}

void check_golden(const Workload& w) {
  const std::string got = render(w);
  const std::string path = golden_path(w.name);
  if (g_update_golden) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in) << "missing golden file " << path
                  << " — run `test_golden_traffic --update-golden`";
  std::ostringstream ss;
  ss << in.rdbuf();
  // Line by line, so a mismatch names the configuration that moved.
  std::istringstream gs(got), ws(ss.str());
  std::string gl, wl;
  int line = 0;
  for (;;) {
    const bool gok = static_cast<bool>(std::getline(gs, gl));
    const bool wok = static_cast<bool>(std::getline(ws, wl));
    ++line;
    if (!gok && !wok) break;
    EXPECT_EQ(gl, wl) << path << ":" << line;
  }
}

// Problem sizes are part of the snapshot contract.

TEST(GoldenTraffic, Jacobi) {
  check_golden({"jacobi",
                [](Grid g) { return apps::jacobi_source(16, g.p, g.q, 3); },
                jacobi_init});
}

TEST(GoldenTraffic, JacobiHoisted) {
  check_golden(
      {"jacobi_hoisted",
       [](Grid g) { return apps::jacobi_hoisted_source(12, g.p, g.q, 3); },
       jacobi_init});
}

// Gauss and the FFT butterfly run on a 1-D grid of p*q processors.

TEST(GoldenTraffic, Gauss) {
  check_golden({"gauss",
                [](Grid g) { return apps::gauss_source(16, g.p * g.q); },
                gauss_init, true});
}

TEST(GoldenTraffic, Fft) {
  check_golden({"fft",
                [](Grid g) { return apps::fft_source(32, g.p * g.q, 4); },
                fft_init, true});
}

}  // namespace
}  // namespace f90d

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--update-golden") == 0)
      f90d::g_update_golden = true;
  return RUN_ALL_TESTS();
}
