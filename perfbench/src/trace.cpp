#include "trace.hpp"

#include <algorithm>
#include <utility>

#include "compile/comm_opt.hpp"
#include "frontend/parser.hpp"
#include "frontend/sema.hpp"
#include "mapping/mapping.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& t, std::string name) : t_(t) {
  index_ = static_cast<int>(t_.spans_.size());
  const double start = t_.now_ms();
  t_.spans_.push_back(Span{std::move(name), t_.open_, start, start});
  t_.open_ = index_;
}

Tracer::Scope::~Scope() {
  Span& s = t_.spans_[static_cast<std::size_t>(index_)];
  s.end_ms = t_.now_ms();
  t_.open_ = s.parent;
}

std::vector<double> Tracer::durations(const std::string& name, const Calibrator& cal) const {
  std::vector<double> out;
  for (const Span& s : spans_)
    if (s.name == name) out.push_back((s.end_ms - s.start_ms) * cal.factor(s.start_ms / 1e3));
  return out;
}

double Tracer::median_ms(const std::string& name, const Calibrator& cal) const {
  return percentile(durations(name, cal), 0.5);
}

std::string Tracer::chrome_json() const {
  f90d::JsonWriter w;
  w.begin_object().key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object()
        .field("name", s.name)
        .field("ph", "X")
        .field("pid", 1)
        .field("tid", 1)
        .field("ts", s.start_ms * 1e3)
        .field("dur", (s.end_ms - s.start_ms) * 1e3);
    w.key("args").begin_object().field("id", static_cast<long long>(i))
        .field("parent", s.parent).end_object();
    w.end_object();
  }
  w.end_array().end_object();
  return w.str();
}

namespace {

/// compile/driver.cpp's pre-order statement numbering (the plan-cache
/// identity); a driver-internal step, so it is not a span of its own.
void number_stmts(std::vector<f90d::compile::SpmdStmtPtr>& body, int& next) {
  for (f90d::compile::SpmdStmtPtr& s : body) {
    s->stmt_id = next++;
    number_stmts(s->body, next);
    number_stmts(s->else_body, next);
  }
}

}  // namespace

f90d::compile::Compiled compile_traced(Tracer& tracer, const std::string& source,
                                       const std::vector<int>& grid_override,
                                       const f90d::compile::CodegenOptions& options) {
  using namespace f90d;
  Tracer::Scope total(tracer, "compile.total");
  ast::Program ast = [&] {
    Tracer::Scope s(tracer, "frontend.parse");
    return frontend::parse_program(source);
  }();
  frontend::SemaResult sema = [&] {
    Tracer::Scope s(tracer, "frontend.sema");
    return frontend::analyze(std::move(ast));
  }();
  mapping::MappingTable mapping = [&] {
    Tracer::Scope s(tracer, "mapping.build");
    return mapping::build_mapping(sema, grid_override, 1);
  }();
  compile::NormProgram norm = [&] {
    Tracer::Scope s(tracer, "compile.normalize");
    return compile::normalize(sema.program, sema.symbols);
  }();
  compile::SpmdProgram prog = [&] {
    Tracer::Scope s(tracer, "compile.codegen");
    return compile::generate(norm, mapping, sema.symbols, options);
  }();
  {
    Tracer::Scope s(tracer, "compile.comm_opt");
    compile::optimize_comm(prog, options);
  }
  int next_id = 0;
  number_stmts(prog.body, next_id);
  std::string listing = [&] {
    Tracer::Scope s(tracer, "compile.emit");
    return compile::emit_f77(prog);
  }();
  return compile::Compiled{std::move(sema), std::move(mapping), std::move(prog),
                           std::move(listing)};
}

using f90d::interp::ProgramResult;

std::map<std::string, double> layer_counters(const std::vector<ProgramResult>& results) {
  double plan_hits = 0, plan_misses = 0, irr_hits = 0, irr_misses = 0;
  double cp_hits = 0, cp_misses = 0, cp_fast = 0;
  double nat_runs = 0, nat_fallbacks = 0, nat_cache_hits = 0;
  double built = 0, s_hits = 0, s_misses = 0, gather = 0, scatter = 0;
  double msgs = 0, bytes = 0, reuses = 0, compute = 0, comm = 0;
  std::vector<double> clock, comm_per_proc;
  for (const ProgramResult& r : results) {
    plan_hits += r.plan_hits;
    plan_misses += r.plan_misses;
    irr_hits += r.irregular_hits;
    irr_misses += r.irregular_misses;
    cp_hits += static_cast<double>(r.comm_plan_hits);
    cp_misses += static_cast<double>(r.comm_plan_misses);
    cp_fast += static_cast<double>(r.comm_plan_fast_bytes);
    nat_runs += static_cast<double>(r.native_runs);
    nat_fallbacks += static_cast<double>(r.native_fallbacks);
    nat_cache_hits += static_cast<double>(r.native_cache_hits);
    built += static_cast<double>(r.schedules_built);
    s_hits += r.schedule_hits;
    s_misses += r.schedule_misses;
    gather += static_cast<double>(r.gather_bytes);
    scatter += static_cast<double>(r.scatter_bytes);
    const auto& st = r.machine.stats;
    clock.resize(std::max(clock.size(), st.size()), 0.0);
    comm_per_proc.resize(clock.size(), 0.0);
    for (std::size_t k = 0; k < st.size(); ++k) {
      msgs += static_cast<double>(st[k].messages_sent);
      bytes += static_cast<double>(st[k].bytes_sent);
      reuses += static_cast<double>(st[k].pool_reuses);
      compute += st[k].compute_time;
      comm += st[k].comm_time;
      comm_per_proc[k] += st[k].comm_time;
      clock[k] += r.machine.proc_times[k];
    }
  }
  double clock_sum = 0, clock_max = 0;
  for (double c : clock) {
    clock_sum += c;
    clock_max = std::max(clock_max, c);
  }
  const double planned = plan_hits + plan_misses;
  return {
      {"exec.plan_hits", plan_hits},
      {"exec.plan_misses", plan_misses},
      {"exec.plan_hit_ratio", planned > 0 ? plan_hits / planned : 0.0},
      {"exec.irregular_hits", irr_hits},
      {"exec.irregular_misses", irr_misses},
      {"exec.comm_plan_hits", cp_hits},
      {"exec.comm_plan_misses", cp_misses},
      {"exec.comm_plan_fast_bytes", cp_fast},
      {"native.runs", nat_runs},
      {"native.fallbacks", nat_fallbacks},
      {"native.run_ratio", planned > 0 ? nat_runs / planned : 0.0},
      {"native.cache_hits", nat_cache_hits},
      {"parti.schedules_built", built},
      {"parti.schedule_hits", s_hits},
      {"parti.schedule_misses", s_misses},
      {"parti.gather_bytes", gather},
      {"parti.scatter_bytes", scatter},
      {"machine.messages", msgs},
      {"machine.bytes", bytes},
      {"machine.pool_reuses", reuses},
      {"machine.compute_s_sum", compute},
      {"machine.comm_s_sum", comm},
      {"machine.comm_s_max",
       comm_per_proc.empty()
           ? 0.0
           : *std::max_element(comm_per_proc.begin(), comm_per_proc.end())},
      {"machine.imbalance",
       clock_sum > 0 ? clock_max / (clock_sum / static_cast<double>(clock.size())) : 0.0},
  };
}

CommCounts comm_counts(const f90d::compile::SpmdProgram& prog) {
  static const std::string kEliminated = "(eliminated)";
  CommCounts c;
  for (const auto& [kind, n] : prog.action_histogram) {
    const bool elim = kind.size() > kEliminated.size() &&
                      kind.compare(kind.size() - kEliminated.size(),
                                   kEliminated.size(), kEliminated) == 0;
    (elim ? c.eliminated : c.actions) += n;
  }
  return c;
}

}  // namespace perfbench
