#pragma once
// Spans recorded by the traced run (--trace 1) around calls into each
// layer's public entry points, plus the layer-by-layer compile pipeline
// that makes those calls.  Nothing inside the program is instrumented: a
// span is the host wall of one call, taken from the benchmark's side.
#include <map>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "common.hpp"
#include "compile/driver.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;   ///< "<layer>.<entry point>", e.g. "frontend.parse"
    int parent = -1;    ///< index of the enclosing span, -1 at top level
    double start_ms = 0;
    double end_ms = 0;
  };

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(Tracer& t, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& t_;
    int index_;
  };

  /// Seconds since the tracer was made (the clock spans are recorded on).
  [[nodiscard]] double elapsed_s() const { return now_ms() / 1e3; }
  /// Durations (ms, at the calibrator's reference speed) of every span
  /// named `name`, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name,
                                              const Calibrator& cal) const;
  /// Median of durations(name, cal); 0 when never recorded.
  [[nodiscard]] double median_ms(const std::string& name, const Calibrator& cal) const;
  /// Chrome trace-event JSON (load in Perfetto or chrome://tracing).
  [[nodiscard]] std::string chrome_json() const;

 private:
  double now_ms() const { return ms_between(origin_, Clock::now()); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  int open_ = -1;
};

/// compile::compile_source, one layer call at a time, each in its own span
/// under a "compile.total" parent: frontend.parse, frontend.sema,
/// mapping.build, compile.normalize, compile.codegen, compile.comm_opt,
/// compile.emit.  The result must equal compile_source's (the caller checks
/// the listings match).
[[nodiscard]] f90d::compile::Compiled compile_traced(
    Tracer& tracer, const std::string& source,
    const std::vector<int>& grid_override = {},
    const f90d::compile::CodegenOptions& options = {});

/// The compile-layer span names, in pipeline order.
inline const std::vector<std::string>& compile_stages() {
  static const std::vector<std::string> kStages = {
      "frontend.parse",   "frontend.sema",    "mapping.build", "compile.normalize",
      "compile.codegen",  "compile.comm_opt", "compile.emit"};
  return kStages;
}

/// Communication actions the optimized program executes, and the ones the
/// comm_opt passes eliminated (SpmdProgram::action_histogram).
struct CommCounts {
  long long actions = 0;
  long long eliminated = 0;
};
[[nodiscard]] CommCounts comm_counts(const f90d::compile::SpmdProgram& prog);

/// The exec, native, PARTI and machine layer counters of one run of a
/// workload's programs, summed over the programs.  Exec, native and PARTI
/// counts are ProgramResult's, which reports processor 0 only; machine
/// counts are summed over every processor's ProcStats.
[[nodiscard]] std::map<std::string, double> layer_counters(
    const std::vector<f90d::interp::ProgramResult>& results);

}  // namespace perfbench
