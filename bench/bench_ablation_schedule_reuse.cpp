// Ablation for §7 optimization 3, "reuse of scheduling information":
// the irregular kernel FORALL(I) A(U(I)) = B(V(I)) + C(I) inside a time
// loop builds its gather/scatter schedules once and reuses them each step
// when the cache is on; with the cache off, every step pays the inspector
// (including its fan-in communication).
#include <cstdio>

#include "bench_util.hpp"

#include "comm/grid_comm.hpp"
#include "rts/dist_array.hpp"
#include "rts/matmul.hpp"

namespace {

using namespace f90d;

void BM_IrregularScheduleReuse(benchmark::State& state) {
  const bool reuse = state.range(0) != 0;
  const int n = 4096, p = 16, steps = 10;
  double secs = 0;
  std::uint64_t messages = 0;
  int hits = 0;
  for (auto _ : state) {
    auto compiled =
        compile::compile_source(apps::irregular_source(n, p, steps));
    machine::SimMachine m =
        bench::make_machine(p, machine::CostModel::ipsc860());
    interp::Init init;
    init.ints["U"] = [n](std::span<const rts::Index> g) {
      return (g[0] * 7 + 3) % n + 1;
    };
    init.ints["V"] = [n](std::span<const rts::Index> g) {
      return (g[0] * 11 + 5) % n + 1;
    };
    init.real["B"] = [](std::span<const rts::Index> g) { return g[0] * 2.0; };
    init.real["C"] = [](std::span<const rts::Index> g) { return g[0] * 1.0; };
    interp::RunOptions ro;
    ro.schedule_cache = reuse;
    auto r = interp::run_compiled(compiled, m, init, ro);
    secs = r.machine.exec_time;
    messages = r.machine.total_messages();
    hits = r.schedule_hits;
  }
  state.counters["sim_seconds"] = secs;
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["schedule_hits"] = hits;
  state.SetLabel(reuse ? "schedules cached and reused"
                       : "inspector re-run every step");
}
BENCHMARK(BM_IrregularScheduleReuse)->Arg(0)->Arg(1)->Iterations(1);

// --- irregular workload ladder ----------------------------------------------
// The three inspector/executor scenario workloads (ELL SpMV, unstructured
// mesh edge sweep, particle binning), each with the schedule cache on and
// off: the reuse win is the inspector's fan-in communication and schedule
// construction amortized across the time loop.  Swept on BLOCK and
// INDIRECT(MAP); counters expose the PARTI traffic either way.  The last
// argument is the execution rung (bench::kExecPlan tapes or
// bench::kNative kernels for the executor, scatter and needs
// enumeration); the native rows run with schedule reuse on, and
// scripts/check_perf_smoke.py pins one of them exactly.

enum IrrWorkload { kSpmv = 0, kMesh = 1, kPbin = 2 };

const char* irr_name(int w) {
  switch (w) {
    case kSpmv: return "ell-spmv";
    case kMesh: return "mesh-sweep";
    default: return "particle-bin";
  }
}

int owner_of(rts::Index i, int p) { return static_cast<int>((i * 5 + 2) % p); }

void BM_IrregularWorkloadReuse(benchmark::State& state) {
  const int workload = static_cast<int>(state.range(0));
  const bool reuse = state.range(1) != 0;
  const char* dist = state.range(2) != 0 ? "INDIRECT(MAP)" : "BLOCK";
  const int rung = static_cast<int>(state.range(3));
  constexpr int p = 8, steps = 8;
  constexpr int n = 2048, nk = 8;

  std::string source;
  interp::Init init;
  init.ints["MAP"] = [p](std::span<const rts::Index> g) {
    return owner_of(g[0], p) + 1;
  };
  const char* result_array = nullptr;
  switch (workload) {
    case kSpmv:
      source = apps::spmv_ell_source(n, nk, p, steps, dist);
      init.ints["COL"] = [](std::span<const rts::Index> g) {
        return (g[0] * 13 + g[1] * 5 + 1) % n + 1;
      };
      init.real["A"] = [](std::span<const rts::Index> g) {
        return ((g[0] + 1) * (g[1] + 1)) % 7 + 0.25;
      };
      init.real["X"] = [](std::span<const rts::Index> g) {
        return (g[0] % 17) * 0.5 + 1.0;
      };
      result_array = "Y";
      break;
    case kMesh:
      source = apps::mesh_sweep_source(n, 2 * n, p, steps, dist);
      init.ints["E1"] = [](std::span<const rts::Index> g) {
        return (g[0] * 7 + 3) % n + 1;
      };
      init.ints["E2"] = [](std::span<const rts::Index> g) {
        return (g[0] * 11 + 5) % n + 1;
      };
      init.real["XN"] = [](std::span<const rts::Index> g) {
        return g[0] * 0.5 + 1.0;
      };
      result_array = "F";
      break;
    default:
      source = apps::particle_bin_source(n, p, steps, dist);
      init.ints["BIN"] = [](std::span<const rts::Index> g) {
        return (n - 1 - g[0] + 3) % n + 1;  // permutation of 1..n
      };
      init.real["W"] = [](std::span<const rts::Index> g) {
        return g[0] * 0.25 + 1.0;
      };
      result_array = "H";
      break;
  }

  double secs = 0;
  std::uint64_t messages = 0;
  interp::ProgramResult r;
  for (auto _ : state) {
    auto compiled = compile::compile_source(source);
    machine::SimMachine m =
        bench::make_machine(p, machine::CostModel::ipsc860());
    interp::RunOptions ro = bench::ladder_options(rung);
    ro.schedule_cache = reuse;
    r = interp::run_compiled(compiled, m, init, ro);
    benchmark::DoNotOptimize(r.real_arrays.at(result_array).data());
    secs = r.machine.exec_time;
    messages = r.machine.total_messages();
  }
  state.counters["sim_seconds"] = secs;
  state.counters["messages"] = static_cast<double>(messages);
  state.counters["bytes"] = static_cast<double>(r.machine.total_bytes());
  state.counters["schedule_hits"] = r.schedule_hits;
  state.counters["schedules_built"] = static_cast<double>(r.schedules_built);
  state.counters["gather_bytes"] = static_cast<double>(r.gather_bytes);
  state.counters["scatter_bytes"] = static_cast<double>(r.scatter_bytes);
  state.counters["irregular_hits"] = r.irregular_hits;
  state.counters["native_runs"] = static_cast<double>(r.native_runs);
  state.counters["native_compile_ms"] = r.native_compile_ms;
  state.SetLabel(std::string(irr_name(workload)) + " / " + dist +
                 (reuse ? " / schedules reused" : " / inspector every trip") +
                 " / " + bench::ladder_label(rung));
}
BENCHMARK(BM_IrregularWorkloadReuse)
    ->ArgsProduct({{kSpmv, kMesh, kPbin}, {0, 1}, {0, 1}, {bench::kExecPlan}})
    ->ArgsProduct({{kSpmv, kMesh, kPbin}, {1}, {0, 1}, {bench::kNative}})
    ->Iterations(1);

void BM_MatmulFoxVsGather(benchmark::State& state) {
  // Special-routines design choice: Fox's algorithm vs the gather fallback.
  const bool fox = state.range(0) != 0;
  const rts::Index n = 256;
  double secs = 0;
  for (auto _ : state) {
    machine::SimMachine m =
        bench::make_machine(16, machine::CostModel::ipsc860());
    auto r = m.run([&](machine::Proc& proc) {
      comm::GridComm gc(proc, comm::ProcGrid({4, 4}));
      rts::DimMap m0;
      m0.kind = rts::DistKind::kBlock;
      m0.grid_dim = 0;
      m0.template_extent = n;
      rts::DimMap m1 = m0;
      m1.grid_dim = 1;
      rts::Dad dad({n, n}, {m0, m1}, gc.grid());
      // Offsetting the alignment by 0 keeps Fox applicable; the fallback is
      // forced by collapsing B's columns instead.
      rts::DistArray<double> a(dad, gc);
      a.fill_global([](std::span<const rts::Index> g) {
        return g[0] == g[1] ? 2.0 : 0.1;
      });
      if (fox) {
        rts::DistArray<double> b(dad, gc);
        b.fill_global([](std::span<const rts::Index> g) {
          return g[0] == g[1] ? 1.0 : 0.2;
        });
        auto c = rts::matmul_dist(gc, a, b);
        benchmark::DoNotOptimize(c.storage().data());
      } else {
        rts::DimMap c0 = m0;
        rts::DimMap c1;
        c1.kind = rts::DistKind::kCollapsed;
        c1.template_extent = n;
        rts::Dad bdad({n, n}, {c0, c1}, gc.grid());
        rts::DistArray<double> b(bdad, gc);
        b.fill_global([](std::span<const rts::Index> g) {
          return g[0] == g[1] ? 1.0 : 0.2;
        });
        auto c = rts::matmul_dist(gc, a, b);
        benchmark::DoNotOptimize(c.storage().data());
      }
    });
    secs = r.exec_time;
  }
  state.counters["sim_seconds"] = secs;
  state.SetLabel(fox ? "Fox broadcast-multiply-roll" : "gather fallback");
}
BENCHMARK(BM_MatmulFoxVsGather)->Arg(1)->Arg(0)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
