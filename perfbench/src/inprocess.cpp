// The stencil, gauss and irregular workloads: compile the workload's
// programs, run them on the simulated iPSC/860 on the native rung, and
// check every run against the sequential oracles.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>

#include "calibrate.hpp"
#include "machine/topology.hpp"
#include "native/jit.hpp"
#include "phases.hpp"
#include "service/service.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using f90d::interp::ProgramResult;
using f90d::interp::RunOptions;

constexpr double kOracleTolerance = 1e-9;

RunOptions rung(const std::string& name) {
  RunOptions ro;
  ro.skeleton = name == "skeleton";
  ro.native_backend = name == "native";
  return ro;
}

/// One run of every program of the workload: host wall of the
/// run_compiled calls only (machine construction stays outside).
struct Pass {
  double ms = 0;
  std::vector<ProgramResult> results;
};

Pass run_pass(const std::vector<Program>& programs,
              const std::vector<f90d::compile::Compiled>& compiled,
              const RunOptions& ro, Tracer* tracer = nullptr,
              const char* span = nullptr) {
  Pass pass;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    f90d::machine::SimMachine machine(programs[i].nprocs,
                                      f90d::machine::CostModel::ipsc860(),
                                      f90d::machine::make_hypercube());
    const auto t0 = Clock::now();
    std::optional<Tracer::Scope> s;
    if (tracer != nullptr) s.emplace(*tracer, span);
    pass.results.push_back(
        f90d::interp::run_compiled(compiled[i], machine, programs[i].init, ro));
    pass.ms += ms_between(t0, Clock::now());
  }
  return pass;
}

Structure structure_of(const Pass& pass,
                       const std::vector<f90d::compile::Compiled>& compiled) {
  Structure s;
  for (const ProgramResult& r : pass.results) s.add(r);
  for (const auto& c : compiled) s.comm_actions += comm_counts(c.program).actions;
  return s;
}

/// Structure with the per-process JIT count masked: only the first (cold)
/// run of a process compiles kernels.
Structure warm_view(Structure s) {
  s.native_compiles = 0;
  return s;
}

/// Compare every program's checked array with its oracle; one attempted
/// operation per program run.
void check_arrays(const std::vector<Program>& programs, const Pass& pass,
                  const std::vector<std::vector<double>>& oracles,
                  const char* what, Failures& f) {
  for (std::size_t i = 0; i < programs.size(); ++i) {
    const auto& arrays = pass.results[i].real_arrays;
    const auto it = arrays.find(std::string(programs[i].array));
    const double d = it == arrays.end()
                         ? INFINITY
                         : max_rel_diff(it->second, oracles[i], programs[i].defined);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %s: %s differs from the oracle by %.3g",
                  what, programs[i].name.c_str(), programs[i].array, d);
    f.record(d <= kOracleTolerance, buf);
  }
}

std::vector<std::vector<double>> compute_oracles(const std::vector<Program>& programs) {
  std::vector<std::vector<double>> out;
  for (const Program& p : programs) out.push_back(p.oracle());
  return out;
}

/// The environment guard: a run that silently measured the plan
/// interpreter instead of native kernels would be a different benchmark.
bool native_guard(const std::string& workload, const Pass& cold) {
  if (!f90d::native::NativeCache::instance().available()) {
    std::fprintf(stderr,
                 "perfbench: the native toolchain is unavailable (F90D_NATIVE "
                 "off, F90D_NATIVE=0, or no working compiler); refusing to "
                 "measure the plan interpreter as the native rung\n");
    return false;
  }
  long long runs = 0;
  for (const ProgramResult& r : cold.results) runs += r.native_runs;
  if (workload == "stencil" && runs == 0) {
    std::fprintf(stderr, "perfbench: native.runs == 0 on stencil; the native "
                         "backend is not running kernels\n");
    return false;
  }
  return true;
}

std::vector<f90d::compile::Compiled> compile_all(const std::vector<Program>& programs) {
  std::vector<f90d::compile::Compiled> out;
  for (const Program& p : programs) out.push_back(f90d::compile::compile_source(p.source));
  return out;
}

// --- measure / setup ---------------------------------------------------------

int measure(const Args& args, const std::vector<Program>& programs) {
  Failures f;
  const auto compiled = compile_all(programs);
  const Pass cold = run_pass(programs, compiled, rung("native"));
  const Structure cold_s = structure_of(cold, compiled);
  emit_setup(cold_s);
  if (!native_guard(args.workload, cold)) return 3;
  const double setup_kernel_ms = setup_calibration();
  const auto oracles = compute_oracles(programs);
  check_arrays(programs, cold, oracles, "cold run", f);
  if (args.phase == "setup") {
    emit_result(f, cold_s, {}, {{"setup_factor", kReferenceMs / setup_kernel_ms}});
    return 0;
  }

  std::vector<double> raw, at_s;
  Calibrator cal;
  const auto start = Clock::now();
  cal.record(0.0);
  double last_cal = 0;
  while (seconds_since(start) < args.seconds) {
    const double t = seconds_since(start);
    const Pass warm = run_pass(programs, compiled, rung("native"));
    raw.push_back(warm.ms);
    at_s.push_back(t);
    check_arrays(programs, warm, oracles, "warm run", f);
    if (warm_view(structure_of(warm, compiled)) != warm_view(cold_s))
      f.fail("warm run: structural counts drifted from the cold run");
    if (seconds_since(start) - last_cal >= kCalibrateEvery_s) {
      last_cal = seconds_since(start);
      cal.record(last_cal);
    }
  }
  std::vector<double> samples;
  double sum_ms = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    samples.push_back(raw[i] * cal.factor(at_s[i]));
    sum_ms += samples.back();
  }
  const std::map<std::string, double> metrics = {
      {"run_ms_p80", percentile(samples, 0.8)},
      {"throughput_per_s", 1e3 * static_cast<double>(samples.size()) / sum_ms},
      {"sim_s", cold_s.sim_s},
      {"peak_rss_mb", peak_rss_mb()},
  };
  emit_result(f, cold_s, metrics,
               {{"samples", static_cast<double>(samples.size())},
                {"run_ms_p50", percentile(samples, 0.5)},
                {"raw_run_ms_p50", percentile(raw, 0.5)},
                {"kernel_ms", cal.median_ms()},
                {"setup_factor", kReferenceMs / setup_kernel_ms}});
  return 0;
}

// --- trace -------------------------------------------------------------------

double sim_of(const Pass& p) {
  double s = 0;
  for (const ProgramResult& r : p.results) s += r.machine.exec_time;
  return s;
}

/// The service layer without the daemon and the wire: each program
/// submitted three times to a private in-process ServiceCore (one artifact
/// miss: compile and run; two hits: run only) on the native rung.
std::map<std::string, double> service_layer(const Args& args,
                                            const std::vector<Program>& programs,
                                            Calibrator& cal, const Tracer& tracer,
                                            const std::vector<std::vector<double>>& oracles,
                                            Failures& f) {
  constexpr int kSubmits = 3;
  f90d::service::ServiceCore core;
  std::vector<double> compile_ms, run_ms, queue_ms;
  double hits = 0, shared_schedule = 0, shared_plan = 0;
  for (std::size_t i = 0; i < programs.size(); ++i) {
    f90d::service::RunSpec spec;
    spec.init = programs[i].init;
    spec.init_tag = "seed" + std::to_string(args.seed);
    spec.run = rung("native");
    for (int rep = 0; rep < kSubmits; ++rep) {
      cal.record(tracer.elapsed_s());
      const double factor = cal.factor(tracer.elapsed_s());
      const auto t0 = Clock::now();
      const f90d::service::Outcome o = core.submit(programs[i].source, spec);
      const double wall = ms_between(t0, Clock::now());
      f.record(o.ok, programs[i].name + ": in-process service run failed: " + o.error);
      if (!o.ok) continue;
      Pass p;
      p.results.push_back(o.result);
      check_arrays({programs[i]}, p, {oracles[i]}, "service-core run", f);
      // An Outcome reports its artifact's compile time on a hit as well.
      const double compiled_now = o.artifact_hit ? 0.0 : o.compile_ms;
      if (!o.artifact_hit) compile_ms.push_back(o.compile_ms * factor);
      run_ms.push_back(o.run_ms * factor);
      queue_ms.push_back((wall - compiled_now - o.run_ms) * factor);
      hits += o.artifact_hit ? 1 : 0;
      shared_schedule += o.result.shared_schedule_hits;
      shared_plan += o.result.shared_plan_hits;
    }
  }
  const double n = static_cast<double>(programs.size() * kSubmits);
  return {{"service.compile_ms", percentile(compile_ms, 0.5)},
          {"service.run_ms", percentile(run_ms, 0.5)},
          {"service.queue_ms", percentile(queue_ms, 0.5)},
          {"service.artifact_hit_ratio", hits / n},
          {"service.fresh_share", (n - hits) / n},
          {"service.shared_schedule_hits", shared_schedule / n},
          {"service.shared_plan_hits", shared_plan / n}};
}

int trace(const Args& args, const std::vector<Program>& programs) {
  Failures f;
  Tracer tracer;
  Calibrator cal;
  const double budget = args.seconds;
  // Run `body` at least `min_reps` times and until `budget_s` has passed,
  // timing the calibration kernel between bodies.
  double last_cal = -1;
  auto repeat_for = [&](double budget_s, int min_reps, auto&& body) {
    const auto t0 = Clock::now();
    for (int i = 0; i < min_reps || seconds_since(t0) < budget_s; ++i) {
      if (tracer.elapsed_s() - last_cal >= kCalibrateEvery_s) {
        last_cal = tracer.elapsed_s();
        cal.record(last_cal);
      }
      body();
    }
  };

  // Compile layer by layer; the first traced compile is checked against the
  // one-call driver.
  std::vector<f90d::compile::Compiled> compiled;
  for (const Program& p : programs) {
    compiled.push_back(compile_traced(tracer, p.source));
    f.record(compiled.back().listing == f90d::compile::compile_source(p.source).listing,
             "traced compile of " + p.name + " differs from compile_source");
  }
  repeat_for(0.1 * budget, 3, [&] {
    for (const Program& p : programs) (void)compile_traced(tracer, p.source);
  });
  CommCounts comm;
  for (const auto& c : compiled) {
    const CommCounts cc = comm_counts(c.program);
    comm.actions += cc.actions;
    comm.eliminated += cc.eliminated;
  }

  const Pass cold =
      run_pass(programs, compiled, rung("native"), &tracer, "interp.run_compiled.cold");
  const Structure cold_s = structure_of(cold, compiled);
  emit_setup(cold_s);
  if (!native_guard(args.workload, cold)) return 3;
  const auto oracles = compute_oracles(programs);
  check_arrays(programs, cold, oracles, "cold native run", f);
  double jit_ms = 0, jit_compiles = 0;
  for (const ProgramResult& r : cold.results) {
    jit_ms += r.native_compile_ms;
    jit_compiles += static_cast<double>(r.native_compiles);
  }

  // Warm native runs, untraced and traced in alternation: the difference of
  // their medians is the tracing overhead.
  std::vector<std::pair<double, double>> untraced;  // (start s, ms)
  Pass last_native;
  repeat_for(0.4 * budget, 3, [&] {
    const double at = tracer.elapsed_s();
    const Pass u = run_pass(programs, compiled, rung("native"));
    untraced.emplace_back(at, u.ms);
    check_arrays(programs, u, oracles, "warm native run", f);
    last_native = run_pass(programs, compiled, rung("native"), &tracer, "interp.run_compiled");
    check_arrays(programs, last_native, oracles, "traced native run", f);
    if (warm_view(structure_of(last_native, compiled)) != warm_view(cold_s))
      f.fail("traced native run: structural counts drifted");
  });

  // The skeleton floor: the same program with arithmetic charged in bulk.
  repeat_for(0.2 * budget, 3, [&] {
    const Pass s = run_pass(programs, compiled, rung("skeleton"), &tracer, "interp.skeleton");
    f.record(sim_of(s) == cold_s.sim_s, "skeleton sim_s differs from the native rung");
  });
  // The plan rung: bit-identical arrays and equal sim_s to the native rung.
  repeat_for(0.25 * budget, 2, [&] {
    const Pass p = run_pass(programs, compiled, rung("plan"), &tracer, "interp.plan");
    f.record(sim_of(p) == cold_s.sim_s, "plan-rung sim_s differs from the native rung");
    for (std::size_t i = 0; i < programs.size(); ++i)
      f.record(p.results[i].real_arrays == last_native.results[i].real_arrays,
               programs[i].name + ": plan-rung arrays are not bit-identical to native");
  });

  // Per-pass span totals: a pass over several programs records one span per
  // program, so sum them in groups of programs.size().
  auto pass_median = [&](const std::string& name) {
    const std::vector<double> d = tracer.durations(name, cal);
    std::vector<double> per_pass;
    for (std::size_t i = 0; i + programs.size() <= d.size(); i += programs.size()) {
      double s = 0;
      for (std::size_t k = 0; k < programs.size(); ++k) s += d[i + k];
      per_pass.push_back(s);
    }
    return percentile(per_pass, 0.5);
  };

  std::map<std::string, double> m = layer_counters(last_native.results);
  for (const std::string& stage : compile_stages()) m[stage + "_ms"] = pass_median(stage);
  m["compile.comm_actions"] = static_cast<double>(comm.actions);
  m["compile.comm_eliminated"] = static_cast<double>(comm.eliminated);
  std::vector<double> untraced_ms;
  for (const auto& [at, ms] : untraced) untraced_ms.push_back(ms * cal.factor(at));
  const double run_p50 = percentile(untraced_ms, 0.5);
  const double skeleton = pass_median("interp.skeleton");
  m["interp.skeleton_ms"] = skeleton;
  m["interp.plan_ms"] = pass_median("interp.plan");
  m["interp.above_floor_ms"] = run_p50 - skeleton;
  m["native.compiles"] = jit_compiles;
  m["native.jit_ms"] = jit_ms;
  for (const auto& [k, v] : service_layer(args, programs, cal, tracer, oracles, f)) m[k] = v;
  m["trace.overhead_pct"] = 100.0 * (pass_median("interp.run_compiled") - run_p50) / run_p50;

  if (!args.trace_out.empty()) std::ofstream(args.trace_out) << tracer.chrome_json();
  emit_result(f, cold_s, m,
               {{"samples", static_cast<double>(untraced.size())},
                {"sim_s", cold_s.sim_s},
                {"run_ms_p50", run_p50}});
  return 0;
}

}  // namespace

int inprocess_main(const Args& args) {
  const std::vector<Program> programs = make_programs(args.workload, args.seed);
  return args.phase == "trace" ? trace(args, programs) : measure(args, programs);
}

}  // namespace perfbench
