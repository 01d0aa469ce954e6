#include "interp/interp.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>

#include "comm/grid_comm.hpp"
#include "exec/comm_plan.hpp"
#include "exec/exec_env.hpp"
#include "exec/exec_plan.hpp"
#include "exec/irregular_plan.hpp"
#include "exec/stmt_cache.hpp"
#include "native/jit.hpp"
#include "parti/schedule.hpp"
#include "parti/schedule_cache.hpp"
#include "rts/dist_array.hpp"
#include "rts/intrinsics.hpp"
#include "rts/matmul.hpp"
#include "rts/reductions.hpp"
#include "rts/remap.hpp"
#include "rts/set_bound.hpp"

namespace f90d::interp {

using namespace compile;
using ast::BinOpKind;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::UnOpKind;
using exec::Buf;
using exec::Value;
using frontend::Symbol;
using Family = exec::StmtCache::Family;
using rts::Dad;
using rts::DistArray;
using rts::DistKind;

namespace {

/// One local iteration range of a forall variable.  Uniform-stride ranges
/// (BLOCK, CYCLIC, collapsed) use val0/step; block-cyclic CYCLIC(k) ranges
/// may be irregular, in which case `values` enumerates the iteration values
/// explicitly (val0/step still describe the first element for callers that
/// only need it).
struct VarRange {
  Index val0 = 0;   ///< first value (source coordinates)
  Index step = 1;
  Index count = 0;
  std::vector<Index> values;  ///< non-empty = explicit enumeration

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step
                          : values[static_cast<size_t>(i)];
  }
};

struct Shared {
  std::mutex mu;
  ProgramResult result;
  /// Program-only clock/stats snapshots, taken before the (instrumentation)
  /// result-gathering phase so timings exclude it.
  std::vector<double> clock_snapshot;
  std::vector<machine::ProcStats> stats_snapshot;
};

using exec::trip_count;

/// INDIRECT map arrays resolve their ownership tables from the same
/// initializers that will later fill the (replicated) map array itself, so
/// the table and the visible array contents agree on every processor.
exec::MapResolver map_resolver(const Init& init) {
  return [&init](const std::string& name, Index n) {
    std::vector<long long> out;
    auto f = init.ints.find(name);
    if (f == init.ints.end()) return out;
    out.reserve(static_cast<size_t>(n));
    std::vector<Index> g(1);
    for (Index t = 0; t < n; ++t) {
      g[0] = t;
      out.push_back(f->second(g));
    }
    return out;
  };
}

// --- node program -------------------------------------------------------------
// The node program is a thin driver over the exec layer: every FORALL is
// first offered to the execution planner (exec/exec_plan.hpp) whose cached
// plans run the strength-reduced loop nest; statements the planner declines
// (PARTI gather/scatter, buffered writes, non-affine subscripts) fall back
// to the tree walk below, which operates on the same exec::Env state.

class Node {
 public:
  Node(const Compiled& c, machine::Proc& proc, const Init& init,
       const RunOptions& opt, Shared& shared)
      : c_(c),
        proc_(proc),
        gc_(proc, c.mapping.grid),
        init_(init),
        opt_(opt),
        shared_(shared),
        env_(c, gc_, map_resolver(init)),
        comm_plans_(env_, make_comm_hooks(), opt.native_backend) {
    cache_.set_enabled(opt_.schedule_cache);
    if (opt_.schedule_session != nullptr)
      cache_.set_session(opt_.schedule_session, gc_.my_logical());
    if (opt_.plan_meta != nullptr)
      stmts_.set_shared(opt_.plan_meta, opt_.cache_prefix);
    apply_init();
  }

  /// Callbacks the comm-plan builder uses to bake descriptors: the same
  /// expression evaluation and range derivation as the tree walk.  The
  /// lambdas capture `this` and fire only after construction completes.
  exec::CommHooks make_comm_hooks() {
    exec::CommHooks h;
    h.eval = [this](const Expr& e) { return eval(e); };
    h.eval_bound = [this](const Expr& e, std::span<const std::string> vars,
                          std::span<const Index> vals) {
      for (size_t k = 0; k < vars.size(); ++k) frame_[vars[k]] = vals[k];
      const exec::Value v = eval(e);
      for (const std::string& var : vars) frame_.erase(var);
      return v;
    };
    h.ranges = [this](const SpmdStmt& s) {
      auto all = ranges_for_coords_no_guards(s, gc_.my_coords());
      std::vector<exec::CommRange> out(all.size());
      for (size_t k = 0; k < all.size(); ++k) {
        out[k].val0 = all[k].val0;
        out[k].step = all[k].step;
        out[k].count = all[k].count;
        out[k].values = std::move(all[k].values);
      }
      return out;
    };
    return h;
  }

  void run() {
    for (const SpmdStmtPtr& s : c_.program.body) exec(*s);
    {
      // Snapshot the node program's virtual time and traffic before the
      // verification gathers below add theirs.
      std::lock_guard<std::mutex> lock(shared_.mu);
      shared_.clock_snapshot[static_cast<size_t>(proc_.rank())] = proc_.clock();
      shared_.stats_snapshot[static_cast<size_t>(proc_.rank())] = proc_.stats();
      shared_.result.tree_stmts += stmts_.stats().tree_stmts;
    }
    collect_results();
  }

 private:
  // --- environment ------------------------------------------------------------
  void apply_init() {
    for (auto& [name, a] : env_.dar) {
      auto f = init_.real.find(name);
      if (f != init_.real.end()) a.fill_global(f->second);
    }
    for (auto& [name, a] : env_.iar) {
      auto f = init_.ints.find(name);
      if (f != init_.ints.end()) a.fill_global(f->second);
    }
    for (auto& [name, a] : env_.lar) {
      auto f = init_.logical.find(name);
      if (f != init_.logical.end()) a.fill_global(f->second);  // bool -> 0/1
    }
    for (auto& [name, v] : env_.scalars) {
      const Symbol& s = env_.sym(name);
      if (s.is_parameter) continue;
      auto f = init_.scalars.find(name);
      if (f == init_.scalars.end()) continue;
      v = s.type == ast::BaseType::kInteger
              ? Value::integer(static_cast<long long>(f->second))
              : Value::real(f->second);
    }
  }

  // --- expression evaluation -----------------------------------------------------
  Value eval(const Expr& e) {
    switch (e.kind) {
      case ExprKind::kIntLit: return Value::integer(e.int_value);
      case ExprKind::kRealLit: return Value::real(e.real_value);
      case ExprKind::kLogicalLit: return Value::logical(e.logical_value);
      case ExprKind::kVarRef: {
        auto fit = frame_.find(e.name);
        if (fit != frame_.end()) return Value::integer(fit->second);
        auto sit = env_.scalars.find(e.name);
        require(sit != env_.scalars.end(), "scalar variable bound");
        return sit->second;
      }
      case ExprKind::kUnOp: {
        Value v = eval(*e.args[0]);
        switch (e.un_op) {
          case UnOpKind::kNeg:
            return v.k == Value::K::kI ? Value::integer(-v.as_i())
                                       : Value::real(-v.as_d());
          case UnOpKind::kPlus: return v;
          case UnOpKind::kNot: return Value::logical(!v.as_b());
        }
        return v;
      }
      case ExprKind::kBinOp: return eval_bin(e);
      case ExprKind::kArrayRef: return eval_ref(e);
      default:
        throw RtsError("cannot evaluate expression kind");
    }
  }

  Value eval_bin(const Expr& e) {
    const Value l = eval(*e.args[0]);
    // Short-circuit logicals; everything else shares the exec-layer
    // operator tables with the plan tapes (bit-identical by construction).
    if (e.bin_op == BinOpKind::kAnd)
      return Value::logical(l.as_b() && eval(*e.args[1]).as_b());
    if (e.bin_op == BinOpKind::kOr)
      return Value::logical(l.as_b() || eval(*e.args[1]).as_b());
    return exec::bin_value(exec::bin_op_of(e.bin_op), l, eval(*e.args[1]));
  }

  Value eval_ref(const Expr& e) {
    // Elementwise intrinsics.
    if (!c_.sema.symbols.count(e.name) ||
        !c_.sema.symbols.at(e.name).is_array())
      return eval_intrinsic(e);

    const RefInfo* ref = find_ref(&e);
    const Access access = ref ? ref->access : Access::kDirect;
    switch (access) {
      case Access::kDirect: {
        eval_subs(e, gidx_scratch_);
        return env_.read_element(e.name, gidx_scratch_, /*ghost=*/true);
      }
      case Access::kIterBuf: {
        const Buf& b = env_.bufs[static_cast<size_t>(ref->buffer_id)];
        const Symbol& s = env_.sym(e.name);
        if (s.type == ast::BaseType::kInteger)
          return Value::integer(b.ivals[static_cast<size_t>(flat_iter_)]);
        return Value::real(b.dvals[static_cast<size_t>(flat_iter_)]);
      }
      case Access::kSlabBuf: {
        // Slabs travel as doubles whatever the element type; convert on
        // read, like a broadcast's scalar slot.
        const Buf& b = env_.bufs[static_cast<size_t>(ref->buffer_id)];
        Index idx = 0;
        for (const std::string& v : ref->slab_vars) {
          const auto& vb = var_state_.at(v);
          idx = idx * vb.count + vb.counter;
        }
        const double d = b.dvals[static_cast<size_t>(idx)];
        if (env_.sym(e.name).type == ast::BaseType::kInteger)
          return Value::integer(static_cast<long long>(d));
        return Value::real(d);
      }
      case Access::kScalarSlot:
        return env_.bufs[static_cast<size_t>(ref->buffer_id)].scalar;
    }
    return Value::real(0);
  }

  Value eval_intrinsic(const Expr& e) {
    exec::Op op{};
    int argc = 0;
    if (!exec::intrinsic_op_of(e.name, op, argc))
      throw RtsError("unsupported intrinsic in node program: " + e.name);
    require(argc >= 0 ? e.args.size() == static_cast<size_t>(argc)
                      : !e.args.empty(),
            "intrinsic argument count");
    // Local buffer: eval() recurses back here for nested intrinsics.
    std::vector<Value> args;
    args.reserve(e.args.size());
    for (const ExprPtr& a : e.args) args.push_back(eval(*a));
    return exec::intrinsic_value(op, args);
  }

  /// Evaluate the subscripts of an array reference into 0-based global
  /// indices, raising the out-of-range diagnostic every rung shares.
  void eval_subs(const Expr& ref, std::vector<Index>& out) {
    const Dad& dad = env_.dads.at(ref.name);
    out.resize(ref.args.size());
    for (size_t d = 0; d < ref.args.size(); ++d) {
      const int dim = static_cast<int>(d);
      const Index val = eval(*ref.args[d]).as_i();
      const long long lo = env_.lower_of(ref.name, dim);
      out[d] = val - lo;
      if (out[d] < 0 || out[d] >= dad.extent(dim))
        throw exec::subscript_error(val, ref.name, lo, dad.extent(dim), dim);
    }
  }

  // --- iteration machinery ----------------------------------------------------
  struct VarState {
    Index value = 0;
    Index counter = 0;
    Index count = 0;
  };

  /// Convert one set_BOUND result into the iteration values of a forall
  /// variable (source coordinates).  For BLOCK and CYCLIC(1) a uniform
  /// local range maps to a uniform global progression, so the triplet
  /// stays symbolic.  For block-cyclic CYCLIC(k>1) even a contiguous
  /// local range crosses course boundaries in global space (locals
  /// 0,1,2,3 may be globals 2,3,6,7), so every local index is mapped
  /// through mu^-1 explicitly; the list collapses back to a progression
  /// when it happens to be uniform.
  VarRange range_from_bound(const Dad& dad, int dim, int coord,
                            long long lower, const rts::LocalRange& lr,
                            Index st) {
    VarRange r;
    if (lr.empty) {
      r.count = 0;
      return r;
    }
    r.count = lr.count();
    const rts::DimMap& m = dad.dim(dim);
    // INDIRECT joins block-cyclic here: local-to-global is not affine, so
    // uniform local triplets must be mapped through mu^-1 element by element.
    const bool nonaffine_local =
        (m.kind == DistKind::kCyclic && m.block > 1) ||
        m.kind == DistKind::kIndirect;
    if (lr.enumerated() || nonaffine_local) {
      r.values.reserve(static_cast<size_t>(r.count));
      if (lr.enumerated()) {
        for (Index l : lr.indices)
          r.values.push_back(dad.global_of_local(dim, l, coord) + lower);
      } else {
        for (Index l = lr.lb; l <= lr.ub; l += lr.st)
          r.values.push_back(dad.global_of_local(dim, l, coord) + lower);
      }
      r.val0 = r.values.front();
      r.step = r.count > 1 ? r.values[1] - r.values[0] : st;
      bool uniform = true;
      for (size_t i = 2; i < r.values.size(); ++i)
        uniform = uniform &&
                  r.values[i] - r.values[i - 1] == r.step;
      if (uniform) r.values.clear();  // progression form is exact
    } else {
      r.val0 = dad.global_of_local(dim, lr.lb, coord) + lower;
      r.step = r.count > 1
                   ? dad.global_of_local(dim, lr.lb + lr.st, coord) + lower -
                         r.val0
                   : st;
    }
    return r;
  }

  /// Ranges a given processor (grid coords) iterates for the statement, or
  /// nullopt when guards mask it out.
  std::optional<std::vector<VarRange>> ranges_for_coords(
      const SpmdStmt& s, const std::vector<int>& coords) {
    for (const ProcGuard& g : s.guards) {
      const Dad& dad = env_.dads.at(g.array);
      const Index val =
          eval(*affine_to_expr(g.sub)).as_i() - env_.lower_of(g.array, g.dim);
      const int owner = dad.owner_coord(g.dim, val);
      const int gd = dad.dim(g.dim).grid_dim;
      if (coords[static_cast<size_t>(gd)] != owner) return std::nullopt;
    }
    return ranges_for_coords_no_guards(s, coords);
  }

  /// Ranges ignoring the processor guards (slab packing: the source line
  /// packs exactly the ranges the destinations iterate).
  std::vector<VarRange> ranges_for_coords_no_guards(
      const SpmdStmt& s, const std::vector<int>& coords) {
    std::vector<VarRange> out;
    for (const IndexPartition& ip : s.indices) {
      const Index lo = eval(*ip.lo).as_i();
      const Index hi = eval(*ip.hi).as_i();
      const Index st = ip.st ? eval(*ip.st).as_i() : 1;
      VarRange r;
      if (!ip.array.empty()) {
        const Dad& dad = env_.dads.at(ip.array);
        const long long lower = env_.lower_of(ip.array, ip.dim);
        const int gd = dad.dim(ip.dim).grid_dim;
        const int coord = coords[static_cast<size_t>(gd)];
        const rts::LocalRange lr =
            rts::set_bound(dad, ip.dim, coord, lo - lower, hi - lower, st);
        r = range_from_bound(dad, ip.dim, coord, lower, lr, st);
      } else if (ip.synth_grid_dim >= 0) {
        const Index total = trip_count(lo, hi, st);
        const Index p = c_.mapping.grid.extent(ip.synth_grid_dim);
        const Index chunk = (total + p - 1) / p;
        const int coord = coords[static_cast<size_t>(ip.synth_grid_dim)];
        const Index first = static_cast<Index>(coord) * chunk;
        const Index last = std::min(first + chunk, total);
        r.count = std::max<Index>(0, last - first);
        r.val0 = lo + first * st;
        r.step = st;
      } else {
        r.count = trip_count(lo, hi, st);
        r.val0 = lo;
        r.step = st;
      }
      out.push_back(r);
    }
    return out;
  }

  /// Iterate a range vector in spec order, invoking f() per iteration with
  /// frame_/var_state_/flat_iter_ set.
  template <typename F>
  void iterate(const SpmdStmt& s, const std::vector<VarRange>& ranges, F&& f) {
    const size_t nv = ranges.size();
    for (const VarRange& r : ranges)
      if (r.count == 0) return;
    std::vector<VarState> st(nv);
    for (size_t k = 0; k < nv; ++k) {
      st[k].value = ranges[k].val0;
      st[k].count = ranges[k].count;
      st[k].counter = 0;
    }
    for (size_t k = 0; k < nv; ++k) {
      frame_[s.indices[k].var] = st[k].value;
      var_state_[s.indices[k].var] = st[k];
    }
    flat_iter_ = 0;
    for (;;) {
      f();
      ++flat_iter_;
      // Odometer: last variable fastest (matches buffer packing order).
      // An index-free statement (one element write) runs exactly once.
      size_t k = nv;
      if (k == 0) {
        cleanup_frame(s);
        return;
      }
      while (k > 0) {
        --k;
        VarState& v = st[k];
        if (++v.counter < v.count) {
          v.value = ranges[k].value_at(v.counter);
          frame_[s.indices[k].var] = v.value;
          var_state_[s.indices[k].var] = v;
          break;
        }
        v.counter = 0;
        v.value = ranges[k].val0;
        frame_[s.indices[k].var] = v.value;
        var_state_[s.indices[k].var] = v;
        if (k == 0) {
          cleanup_frame(s);
          return;
        }
      }
    }
  }

  void cleanup_frame(const SpmdStmt& s) {
    for (const IndexPartition& ip : s.indices) {
      frame_.erase(ip.var);
      var_state_.erase(ip.var);
    }
  }

  // --- statements ----------------------------------------------------------------
  void exec(const SpmdStmt& s) {
    try {
      exec_inner(s);
    } catch (const Error& e) {
      if (s.kind == SpmdKind::kSeqDo || s.kind == SpmdKind::kIf) throw;
      throw Error(strformat("at source line %d (stmt kind %d): %s", s.loc.line,
                            static_cast<int>(s.kind), e.what()));
    }
  }

  void exec_inner(const SpmdStmt& s) {
    switch (s.kind) {
      case SpmdKind::kForall: exec_forall(s); break;
      case SpmdKind::kScalarAssign: exec_scalar_assign(s); break;
      case SpmdKind::kReduce: exec_reduce(s); break;
      case SpmdKind::kArrayIntrinsic: exec_array_intrinsic(s); break;
      case SpmdKind::kSeqDo: {
        const Index lo = eval(*s.do_lo).as_i();
        const Index hi = eval(*s.do_hi).as_i();
        const Index st = s.do_st ? eval(*s.do_st).as_i() : 1;
        // Hoisted loop-invariant communication: once, before the first
        // iteration.  Guarded on the trip count so a zero-trip loop stays
        // communication-free (and never evaluates hoisted subscripts the
        // original program would not have touched).  Collective-consistent:
        // the bounds are replicated scalars, so every processor agrees.
        if (trip_count(lo, hi, st) > 0) {
          for (const PreheaderAction& pa : s.preheader)
            if (!pa.action.eliminated) comm_plans_.run_hoisted(pa);
        }
        for (Index v = lo; st > 0 ? v <= hi : v >= hi; v += st) {
          env_.scalars[s.do_var] = Value::integer(v);
          for (const SpmdStmtPtr& b : s.body) exec(*b);
        }
        break;
      }
      case SpmdKind::kIf: {
        if (eval(*s.mask).as_b()) {
          for (const SpmdStmtPtr& b : s.body) exec(*b);
        } else {
          for (const SpmdStmtPtr& b : s.else_body) exec(*b);
        }
        break;
      }
      case SpmdKind::kPrint: {
        if (proc_.rank() != 0) break;
        std::ostringstream os;
        bind_refs(s);
        for (const ExprPtr& e : s.items) {
          Value v = eval(*e);
          os << " " << (v.k == Value::K::kI
                            ? std::to_string(v.as_i())
                            : strformat("%g", v.as_d()));
        }
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.printed.push_back(os.str());
        break;
      }
    }
  }

  void bind_refs(const SpmdStmt& s) {
    ref_of_.clear();
    for (const RefInfo& r : s.refs)
      if (r.expr != nullptr) ref_of_.emplace_back(r.expr, &r);
  }

  [[nodiscard]] const RefInfo* find_ref(const Expr* e) const {
    for (const auto& [expr, ref] : ref_of_)
      if (expr == e) return ref;
    return nullptr;
  }

  /// The statement's regular plan, looked up (or lazily built) in the
  /// statement cache and bound to the current parameter values — or null
  /// when the planner declines: the caller falls back to the next rung.
  /// Structural declines are remembered per statement so fallback
  /// statements skip key construction entirely; a failed bind declines
  /// this execution only.
  exec::StmtCache::Entry* planned_entry(const SpmdStmt& s) {
    if (opt_.skeleton || !opt_.exec_plans) return nullptr;
    // Unnumbered statements (hand-built programs that bypassed the driver)
    // have no stable cache identity: run them on the tree walk.
    if (s.stmt_id < 0) return nullptr;
    if (stmts_.declined_structurally(Family::kRegular, s.stmt_id))
      return nullptr;
    exec::StmtCache::Entry& e =
        stmts_.entry(s, env_, stmts_.key_scalars(s, env_, Family::kRegular));
    const exec::PlanEntry& pe = stmts_.regular(
        s.stmt_id, e, [&] { return exec::build_exec_plan(s, env_); });
    if (!pe.plan || !exec::bind_exec_plan(*pe.plan)) return nullptr;
    return &e;
  }

  /// Planned fast path of a FORALL with a direct or concatenation-buffered
  /// lhs.  Returns false when the planner declined.
  bool try_planned_forall(const SpmdStmt& s) {
    exec::StmtCache::Entry* e = planned_entry(s);
    if (e == nullptr) return false;
    const exec::ExecPlan& plan = *e->regular->plan;
    // Pre-communication is collective and statement-scoped, not
    // per-element: it runs through compiled descriptors cached in the
    // same entry.  (The planner admits no schedule-based read buffers, so
    // the guarded iteration ranges those would need are not required.)
    run_cached_pre(s, *e, Family::kRegular);
    // Backend ladder: native kernel when enabled and attachable, tape
    // interpreter otherwise.  Both return the same iteration count (and
    // fill the same value/destination streams for a buffered lhs), so the
    // simulated cost charged below is identical either way.
    Index iters = -1;
    if (opt_.native_backend)
      iters = stmts_.run_native(*e, 0, &plan_scratch_.values,
                                &plan_scratch_.dest_ids);
    if (iters < 0) iters = exec::run_exec_plan(plan, plan_scratch_);
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);
    // A buffered lhs hands its values to the same concatenation as the
    // tree walk's.
    if (plan.lhs.kind == exec::RefPlan::Kind::kValueBuf)
      run_post_actions(s, plan_scratch_.values, plan_scratch_.dest_ids);
    return true;
  }

  /// Planned PARTI inspector/executor: schedule-bearing foralls the
  /// regular planner declines.  The plan replays the local iteration
  /// space through compiled subscript tapes; the needs enumeration (the
  /// inspector) only runs when the shared ScheduleCache misses, so
  /// steady-state DO trips skip the subscript walk entirely.  Schedules,
  /// gathers and scatters go through the exact same machinery as the
  /// tree walk — same keys, same messages, same simulated cost.
  bool try_irregular_forall(const SpmdStmt& s) {
    if (opt_.skeleton || !opt_.exec_plans) return false;
    if (s.stmt_id < 0) return false;
    if (stmts_.declined_structurally(Family::kIrregular, s.stmt_id))
      return false;
    exec::StmtCache::Entry& e = stmts_.entry(
        s, env_, stmts_.key_scalars(s, env_, Family::kIrregular));
    const exec::IrrPlanEntry& pe = stmts_.irregular(
        s.stmt_id, e, [&] { return exec::build_irregular_plan(s, env_); });
    if (!pe.plan) return false;
    const exec::IrregularPlan& plan = *pe.plan;

    // Non-schedule pre actions (ghost fills, broadcasts, slabs) first,
    // through the entry's cached comm part.
    if (has_regular_pre(s)) run_cached_pre(s, e, Family::kIrregular);
    // Gathers in descending ref-id order (inner indirections first); the
    // inspector closure fires only on a schedule-cache miss.  Inspector
    // and executor take the same native → tape ladder as regular plans:
    // kernel mode 1 + r enumerates read r's needs, mode 0 executes.
    for (size_t r = 0; r < plan.reads.size(); ++r) {
      const exec::IrrRead& rd = plan.reads[r];
      gather_via_schedule(s, *rd.action,
                          s.refs[static_cast<size_t>(rd.ref_id)],
                          [&](std::vector<Index>& needs) {
                            if (!opt_.native_backend ||
                                stmts_.run_native(e, static_cast<int>(r) + 1,
                                                  nullptr, &needs) < 0)
                              exec::run_irregular_needs(plan, rd,
                                                        plan_scratch_, needs);
                          });
    }
    // The executor reuses the scratch value/destination streams: no
    // allocation once warm.
    std::vector<double>& values = plan_scratch_.values;
    std::vector<Index>& dest_ids = plan_scratch_.dest_ids;
    Index iters = -1;
    if (opt_.native_backend) iters = stmts_.run_native(e, 0, &values, &dest_ids);
    if (iters < 0)
      iters = plan.lhs_buffered
                  ? exec::run_irregular_scatter(plan, plan_scratch_)
                  : exec::run_exec_plan(plan.core, plan_scratch_);
    if (!plan.lhs_buffered) {
      values.clear();
      dest_ids.clear();
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);
    run_post_actions(s, values, dest_ids);
    return true;
  }

  /// Collective zero-trip test: FORALL bounds are replicated scalar
  /// expressions, so every processor computes the same answer.  A
  /// zero-trip statement has nothing to inspect — the paper's
  /// inspector/executor (and our planned paths) must not build empty
  /// schedules or exchange empty slabs for it.
  bool globally_zero_trip(const SpmdStmt& s) {
    for (const IndexPartition& ip : s.indices) {
      const Index lo = eval(*ip.lo).as_i();
      const Index hi = eval(*ip.hi).as_i();
      const Index st = ip.st ? eval(*ip.st).as_i() : 1;
      if (st != 0 && exec::trip_count(lo, hi, st) == 0) return true;
    }
    return false;
  }

  void exec_forall(const SpmdStmt& s) {
    bind_refs(s);
    // The destination's contents are about to change: advance its write
    // version so schedule keys derived from it (when it doubles as an
    // indirection array) go stale.  Bumped before key construction and on
    // every processor alike, so cached lookups stay collective.
    if (!s.refs.empty()) env_.bump_version(s.refs[0].array);
    if (globally_zero_trip(s)) return;
    if (try_planned_forall(s)) return;
    if (try_irregular_forall(s)) return;
    if (!opt_.skeleton) stmts_.note_tree_stmt();

    auto my_ranges = ranges_for_coords(s, gc_.my_coords());

    // Pre-communication: collective — every processor participates even
    // when guarded out of the local loop.
    run_comm_once(s, my_ranges);

    Index iters = 0;
    std::vector<double> values;   // buffered lhs values
    std::vector<Index> dest_ids;  // buffered lhs destinations
    const bool need_iteration =
        s.lhs_buffered || stmt_has_iterbuf(s) || !opt_.skeleton;

    if (my_ranges) {
      if (!need_iteration) {
        // Skeleton fast path: bulk cost, no per-element interpretation.
        iters = 1;
        for (const VarRange& r : *my_ranges) iters *= r.count;
        if (iters < 0) iters = 0;
      } else {
        iterate(s, *my_ranges, [&]() {
          ++iters;
          if (s.mask && !opt_.skeleton && !eval(*s.mask).as_b()) {
            if (s.lhs_buffered) {
              // Keep slots aligned with iteration order for executors.
              eval_subs(*s.lhs, gidx_scratch_);
              dest_ids.push_back(flat_global_of(s.refs[0].array, gidx_scratch_));
              values.push_back(read_back(s, gidx_scratch_));
            }
            return;
          }
          const Value v =
              opt_.skeleton ? Value::real(0.0) : eval(*s.rhs);
          if (s.lhs_buffered) {
            eval_subs(*s.lhs, gidx_scratch_);
            dest_ids.push_back(flat_global_of(s.refs[0].array, gidx_scratch_));
            values.push_back(v.as_d());
          } else {
            eval_subs(*s.lhs, gidx_scratch_);
            env_.write_element(s.refs[0].array, gidx_scratch_, v);
          }
        });
      }
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);
    proc_.charge_int_ops(static_cast<double>(iters) * 4.0);

    run_post_actions(s, values, dest_ids);
  }

  /// Re-read the current lhs element (masked iterations keep old values in
  /// the buffered-write path).
  double read_back(const SpmdStmt& s, const std::vector<Index>& g) {
    const std::string& name = s.refs[0].array;
    // The element may live remotely for buffered writes; a masked slot will
    // simply rewrite whatever value the owner already has, so send 0 when
    // not locally available (the combine overwrite is benign only when the
    // owner re-receives its own value; to stay safe, read ghost when owned).
    auto& dad = env_.dads.at(name);
    std::vector<int> coords = gc_.my_coords();
    bool owned = true;
    for (int d = 0; d < dad.rank(); ++d) {
      const rts::DimMap& m = dad.dim(d);
      if (m.kind == DistKind::kCollapsed) continue;
      owned = owned && dad.owner_coord(d, g[static_cast<size_t>(d)]) ==
                           coords[static_cast<size_t>(m.grid_dim)];
    }
    if (!owned) return 0.0;
    return env_.read_element(name, g, false).as_d();
  }

  [[nodiscard]] static bool stmt_has_iterbuf(const SpmdStmt& s) {
    for (const CommAction& a : s.pre)
      if (!a.eliminated && is_schedule_read(a.kind)) return true;
    return false;
  }

  /// Does `s` have an overlap shift, element broadcast or slab to run?
  /// Planned reductions and irregular plans consult their entry's comm
  /// part only then, so comm-free ones never count as comm-plan lookups.
  [[nodiscard]] static bool has_regular_pre(const SpmdStmt& s) {
    for (const CommAction& a : s.pre)
      if (!a.eliminated && !is_schedule_read(a.kind)) return true;
    return false;
  }

  /// Flat global id of in-range global indices (eval_subs checked them).
  Index flat_global_of(const std::string& name, std::span<const Index> g) {
    const Dad& dad = env_.dads.at(name);
    Index flat = 0;
    for (int d = 0; d < dad.rank(); ++d)
      flat = flat * dad.extent(d) + g[static_cast<size_t>(d)];
    return flat;
  }

  // --- communication actions --------------------------------------------------
  /// A planned statement's overlap shifts, broadcasts and slabs, through
  /// the comm part of its cache entry (built under the `family` key).
  void run_cached_pre(const SpmdStmt& s, exec::StmtCache::Entry& e,
                      Family family) {
    comm_plans_.run_pre(s, stmts_.comm(e, [&] {
      return comm_plans_.build_stmt(s, stmts_.key_scalars(s, env_, family));
    }));
  }

  /// Pre-communication of a statement that runs on the tree walk: a comm
  /// plan built for this execution, then the schedule-based read buffers
  /// over this processor's (guarded) iteration ranges.
  void run_comm_once(const SpmdStmt& s,
                     const std::optional<std::vector<VarRange>>& my_ranges) {
    exec::CommPlans::StmtPlan plan = comm_plans_.build_once(s);
    comm_plans_.run_pre(s, plan);
    for (const CommAction* a : plan.reads)
      run_read_buffer_action(s, *a, s.refs[static_cast<size_t>(a->ref_id)],
                             my_ranges);
  }

  /// Schedule-based read buffers (precomp_read / temporary_shift / gather),
  /// tree-walk entry: needs enumerate by subscript-tree evaluation over
  /// the guarded iteration ranges.
  void run_read_buffer_action(
      const SpmdStmt& s, const CommAction& a, const RefInfo& ref,
      const std::optional<std::vector<VarRange>>& my_ranges) {
    gather_via_schedule(s, a, ref, [&](std::vector<Index>& needs) {
      if (!my_ranges) return;
      iterate(s, *my_ranges, [&]() {
        eval_subs(*ref.expr, gidx_scratch_);
        needs.push_back(flat_global_of(ref.array, gidx_scratch_));
      });
    });
  }

  /// Build (or hit) the schedule for one read action and run the gather
  /// into the action's buffer.  `my_needs_fn` supplies this processor's
  /// needs in iteration order; it is only invoked on a cache miss — the
  /// inspector/executor split both execution paths share.
  void gather_via_schedule(
      const SpmdStmt& s, const CommAction& a, const RefInfo& ref,
      const std::function<void(std::vector<Index>&)>& my_needs_fn) {
    const Dad& dad = env_.dads.at(ref.array);
    parti::SchedulePtr sched;
    const std::string key = runtime_key(s, a);
    auto build = [&]() -> parti::SchedulePtr {
      ++schedules_built_;
      // My needs, in iteration order (the inspector).
      std::vector<Index> needs;
      my_needs_fn(needs);
      if (a.kind == CommKind::kGather) return parti::schedule2(gc_, dad, needs);
      // schedule1: compute any peer's needs locally.
      auto needs_of_peer = [&](int q, std::vector<Index>& out) {
        const std::vector<int> qc = c_.mapping.grid.coords_of(q);
        auto qr = ranges_for_coords(s, qc);
        if (!qr) return;
        iterate(s, *qr, [&]() {
          eval_subs(*ref.expr, gidx_scratch_);
          out.push_back(flat_global_of(ref.array, gidx_scratch_));
        });
      };
      return parti::schedule1_read(gc_, dad, needs, needs_of_peer);
    };
    if (!key.empty() && opt_.schedule_cache) {
      std::vector<std::string> deps = schedule_dep_arrays(s, a);
      deps.push_back(ref.array);
      sched = cache_.get_or_build(key, deps, build);
    } else {
      sched = build();
    }

    Buf& b = env_.bufs[static_cast<size_t>(a.buffer_id)];
    const Symbol& sm = env_.sym(ref.array);
    // Compiled executor first (pre-resolved offsets, pooled payloads) on
    // the plan rungs; falls back to the generic executor when the entry
    // declines.  The tree rung stays the uncompiled reference.  Both
    // produce identical buffers, messages and charges.
    const bool compiled =
        opt_.exec_plans && comm_plans_.execute_read(sched, ref.array, b);
    if (sm.type == ast::BaseType::kInteger) {
      if (!compiled)
        b.ivals = parti::execute_read(gc_, *sched, env_.iar.at(ref.array));
      gather_bytes_ +=
          sched->remote_read_bytes(gc_.my_logical(), sizeof(long long));
    } else {
      if (!compiled)
        b.dvals = parti::execute_read(gc_, *sched, env_.dar.at(ref.array));
      gather_bytes_ +=
          sched->remote_read_bytes(gc_.my_logical(), sizeof(double));
    }
  }

  /// Arrays whose *values* feed the needs/destination computation of a
  /// schedule action: indirection arrays appearing in the reference's
  /// subscripts or the statement's bounds.  These are the schedule's data
  /// dependencies — the send/receive lists go stale when their contents
  /// change, even though the DAD signature does not.
  std::vector<std::string> schedule_dep_arrays(const SpmdStmt& s,
                                               const CommAction& a) {
    std::set<std::string> deps;
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == ExprKind::kArrayRef && c_.sema.symbols.count(e.name) &&
          c_.sema.symbols.at(e.name).is_array())
        deps.insert(e.name);
      for (const ExprPtr& x : e.args)
        if (x) self(*x, self);
    };
    for (const IndexPartition& ip : s.indices) {
      walk(*ip.lo, walk);
      walk(*ip.hi, walk);
      if (ip.st) walk(*ip.st, walk);
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    for (const ExprPtr& x : ref.expr->args)
      if (x) walk(*x, walk);
    return {deps.begin(), deps.end()};
  }

  /// Runtime schedule key: static key + evaluated scalars it references +
  /// the write-versions of every indirection array the needs computation
  /// reads (a write to U between trips of `A(U(I))` must rebuild — the
  /// versions are bumped identically on every processor, so the rebuild
  /// stays collective).
  std::string runtime_key(const SpmdStmt& s, const CommAction& a) {
    if (a.sched_key.empty()) return {};
    std::ostringstream os;
    os << a.sched_key << "@";
    // Append the values of every scalar variable used in bounds/subscripts.
    std::set<std::string> names;
    auto walk = [&](const Expr& e, auto&& self) -> void {
      if (e.kind == ExprKind::kVarRef && env_.scalars.count(e.name))
        names.insert(e.name);
      for (const ExprPtr& x : e.args)
        if (x) self(*x, self);
    };
    for (const IndexPartition& ip : s.indices) {
      walk(*ip.lo, walk);
      walk(*ip.hi, walk);
      if (ip.st) walk(*ip.st, walk);
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a.ref_id)];
    for (const ExprPtr& x : ref.expr->args)
      if (x) walk(*x, walk);
    for (const std::string& nm : names)
      os << nm << "=" << env_.scalars.at(nm).as_i() << ";";
    for (const std::string& nm : schedule_dep_arrays(s, a))
      os << "v:" << nm << "=" << env_.version(nm) << ";";
    return os.str();
  }

  // --- post actions ----------------------------------------------------------
  void run_post_actions(const SpmdStmt& s, const std::vector<double>& values,
                        const std::vector<Index>& dest_ids) {
    for (const CommAction& a : s.post) {
      if (a.eliminated) continue;
      const RefInfo& lhs = s.refs[0];
      const Dad& dad = env_.dads.at(lhs.array);
      switch (a.kind) {
        case CommKind::kConcatWrite: {
          // Tree-combined concatenation, run-length encoded: iteration
          // spaces are mostly contiguous, so destinations compress to a few
          // (start, count) runs and the payload is ~one double per value —
          // the same wire cost as the hand-written broadcast of the data.
          // Block layout: [nruns, (start, count)*, values...] per
          // contributor; self-delimiting so tree-combining order is free.
          std::vector<double> blk;
          {
            std::vector<std::pair<Index, Index>> runs;
            for (size_t k = 0; k < dest_ids.size(); ++k) {
              if (!runs.empty() &&
                  runs.back().first + runs.back().second == dest_ids[k]) {
                ++runs.back().second;
              } else {
                runs.emplace_back(dest_ids[k], 1);
              }
            }
            blk.reserve(1 + 2 * runs.size() + values.size());
            blk.push_back(static_cast<double>(runs.size()));
            for (const auto& [start, count] : runs) {
              blk.push_back(static_cast<double>(start));
              blk.push_back(static_cast<double>(count));
            }
            blk.insert(blk.end(), values.begin(), values.end());
            if (values.empty()) blk.clear();  // nothing to contribute
          }
          gc_.concat_tree<double>(blk);
          unpack_concat(lhs.array, blk);
          break;
        }
        case CommKind::kPostcompWrite:
        case CommKind::kScatter: {
          parti::SchedulePtr sched;
          const std::string key = runtime_key(s, a);
          auto build = [&]() -> parti::SchedulePtr {
            ++schedules_built_;
            if (a.kind == CommKind::kScatter)
              return parti::schedule3(gc_, dad, dest_ids);
            auto dests_of_peer = [&](int q, std::vector<Index>& out) {
              const std::vector<int> qc = c_.mapping.grid.coords_of(q);
              auto qr = ranges_for_coords(s, qc);
              if (!qr) return;
              iterate(s, *qr, [&]() {
                eval_subs(*s.lhs, gidx_scratch_);
                out.push_back(flat_global_of(lhs.array, gidx_scratch_));
              });
            };
            return parti::schedule1_write(gc_, dad, dest_ids, dests_of_peer);
          };
          if (!key.empty() && opt_.schedule_cache) {
            std::vector<std::string> deps = schedule_dep_arrays(s, a);
            deps.push_back(lhs.array);
            sched = cache_.get_or_build(key, deps, build);
          } else {
            sched = build();
          }
          const Symbol& sm = env_.sym(lhs.array);
          const bool compiled =
              opt_.exec_plans &&
              comm_plans_.execute_write(sched, lhs.array,
                                        std::span<const double>(values));
          if (sm.type == ast::BaseType::kInteger) {
            if (!compiled) {
              std::vector<long long> iv(values.size());
              for (size_t k = 0; k < values.size(); ++k)
                iv[k] = static_cast<long long>(values[k]);
              parti::execute_write(gc_, *sched, env_.iar.at(lhs.array),
                                   std::span<const long long>(iv));
            }
            scatter_bytes_ +=
                sched->remote_write_bytes(gc_.my_logical(), sizeof(long long));
          } else {
            if (!compiled)
              parti::execute_write(gc_, *sched, env_.dar.at(lhs.array),
                                   std::span<const double>(values));
            scatter_bytes_ +=
                sched->remote_write_bytes(gc_.my_logical(), sizeof(double));
          }
          break;
        }
        default:
          throw RtsError("unexpected post-action");
      }
    }
  }

  /// Write a combined concatenation block into the (replicated) lhs.
  /// Each received (start, count) run resolves its local offset once per
  /// contiguous segment — a row of the last dimension when that dimension
  /// is collapsed, a single element otherwise — and copies the values
  /// straight into storage, converting like Env::write_element.
  void unpack_concat(const std::string& name, const std::vector<double>& blk) {
    switch (env_.sym(name).type) {
      case ast::BaseType::kReal:
        unpack_runs(env_.dar.at(name), blk, [](double v) { return v; });
        break;
      case ast::BaseType::kInteger:
        unpack_runs(env_.iar.at(name), blk,
                    [](double v) { return static_cast<long long>(v); });
        break;
      case ast::BaseType::kLogical:
        unpack_runs(env_.lar.at(name), blk, [](double v) {
          return static_cast<unsigned char>(v != 0.0 ? 1 : 0);
        });
        break;
    }
  }

  template <typename T, typename Convert>
  void unpack_runs(DistArray<T>& arr, const std::vector<double>& blk,
                   Convert convert) {
    const Dad& dad = arr.dad();
    const int last = dad.rank() - 1;
    const bool rows = dad.dim(last).kind == DistKind::kCollapsed;
    std::vector<Index>& g = gidx_scratch_;
    // Block layout per contributor: [nruns, (start, count)*, values...].
    size_t pos = 0;
    while (pos < blk.size()) {
      const size_t nruns = static_cast<size_t>(blk[pos++]);
      size_t val = pos + 2 * nruns;
      for (size_t rr = 0; rr < nruns; ++rr, pos += 2) {
        Index start = static_cast<Index>(blk[pos]);
        Index count = static_cast<Index>(blk[pos + 1]);
        while (count > 0) {
          rts::unflatten_global(dad, start, g);
          const Index seg =
              rows ? std::min(count, dad.extent(last) -
                                         g[static_cast<size_t>(last)])
                   : 1;
          T* dst = &arr.at_global(g);
          for (Index k = 0; k < seg; ++k) dst[k] = convert(blk[val++]);
          start += seg;
          count -= seg;
        }
      }
      pos = val;
    }
  }

  // --- scalar assignment / reduction ------------------------------------------
  void exec_scalar_assign(const SpmdStmt& s) {
    bind_refs(s);
    run_comm_once(s, std::nullopt);
    const Value v = eval(*s.rhs);
    const Symbol& sm = env_.sym(s.target);
    env_.scalars[s.target] = sm.type == ast::BaseType::kInteger
                                 ? Value::integer(v.as_i())
                                 : (sm.type == ast::BaseType::kLogical
                                        ? Value::logical(v.as_b())
                                        : Value::real(v.as_d()));
    proc_.charge_flops(count_scalar_flops(*s.rhs));
  }

  static double count_scalar_flops(const Expr& e) {
    double n = e.kind == ExprKind::kBinOp ? 1 : 0;
    for (const ExprPtr& a : e.args)
      if (a) n += count_scalar_flops(*a);
    return n;
  }

  void exec_reduce(const SpmdStmt& s) {
    bind_refs(s);
    exec::Reduction red;
    Index iters = 0;
    if (exec::StmtCache::Entry* e = planned_entry(s)) {
      // Planned section reduction: the pre-actions (broadcasts, slabs —
      // the planner admits no schedule-based reads) through the entry's
      // cached comm part, then the local fold on the plan tape.
      if (has_regular_pre(s)) run_cached_pre(s, *e, Family::kRegular);
      iters = exec::run_reduce_plan(*e->regular->plan, plan_scratch_, red);
    } else {
      if (!opt_.skeleton) stmts_.note_tree_stmt();
      iters = tree_reduce(s, red);
    }
    proc_.charge_flops(static_cast<double>(iters) * s.flops_per_iter);

    // Reduction tree (paper Table 3 category 2).
    if (red.want_loc()) {
      struct VL {
        double v;
        Index loc;
        unsigned char valid;
      };
      std::vector<VL> box{
          {red.acc, red.loc, static_cast<unsigned char>(red.have_loc ? 1 : 0)}};
      const bool mx = red.op == exec::ReduceOp::kMaxloc;
      gc_.allreduce(box, [mx](const VL& x, const VL& y) {
        if (!x.valid) return y;
        if (!y.valid) return x;
        if (mx ? (x.v > y.v) : (x.v < y.v)) return x;
        if (mx ? (y.v > x.v) : (y.v < x.v)) return y;
        return x.loc <= y.loc ? x : y;
      });
      env_.scalars[s.target] = Value::integer(box[0].valid ? box[0].loc : 0);
      return;
    }
    std::vector<double> box{red.acc};
    const exec::ReduceOp op = red.op;
    gc_.allreduce(box, [op](double x, double y) {
      return exec::reduce_combine(op, x, y);
    });
    const Symbol& sm = env_.sym(s.target);
    env_.scalars[s.target] = sm.type == ast::BaseType::kInteger
                                 ? Value::integer(static_cast<long long>(box[0]))
                                 : Value::real(box[0]);
  }

  /// The tree walk's local fold: pre-actions, then the section walked
  /// element by element (skeleton runs charge the count without
  /// evaluating).  Returns the iteration count.
  Index tree_reduce(const SpmdStmt& s, exec::Reduction& red) {
    auto my_ranges = ranges_for_coords(s, gc_.my_coords());
    run_comm_once(s, my_ranges);
    exec::ReduceOp op{};
    if (!exec::reduce_op_of(s.reduce_op, op))
      throw RtsError("unsupported reduction " + s.reduce_op);
    red.reset(op);
    if (!my_ranges) return 0;
    if (!my_ranges->empty() && (*my_ranges)[0].count > 0)
      red.start((*my_ranges)[0].val0);
    Index iters = 0;
    if (opt_.skeleton) {
      Index total = 1;
      for (const VarRange& r : *my_ranges) total *= r.count;
      return std::max<Index>(total, 0);
    }
    iterate(s, *my_ranges, [&]() {
      ++iters;
      if (s.mask && !eval(*s.mask).as_b()) return;
      red.add(eval(*s.rhs).as_d(), frame_.at(s.indices[0].var));
    });
    return iters;
  }

  // --- whole-array intrinsics ---------------------------------------------------
  void exec_array_intrinsic(const SpmdStmt& s) {
    auto array_arg = [&](size_t k) -> const std::string& {
      require(k < s.call_args.size() &&
                  s.call_args[k]->kind == ExprKind::kVarRef,
              "array intrinsic argument is a whole array name");
      return s.call_args[k]->name;
    };
    auto int_arg = [&](size_t k) { return eval(*s.call_args[k]).as_i(); };

    DistArray<double>* dest = &env_.dar.at(s.dest_array);
    DistArray<double> result = [&]() -> DistArray<double> {
      if (s.intrinsic == "CSHIFT") {
        const Index sh = int_arg(1);
        const int dim =
            s.call_args.size() > 2 ? static_cast<int>(int_arg(2)) - 1 : 0;
        return rts::cshift(gc_, env_.dar.at(array_arg(0)), dim, sh);
      }
      if (s.intrinsic == "EOSHIFT") {
        const Index sh = int_arg(1);
        const double boundary =
            s.call_args.size() > 2 ? eval(*s.call_args[2]).as_d() : 0.0;
        const int dim =
            s.call_args.size() > 3 ? static_cast<int>(int_arg(3)) - 1 : 0;
        return rts::eoshift(gc_, env_.dar.at(array_arg(0)), dim, sh, boundary);
      }
      if (s.intrinsic == "SPREAD") {
        const int dim = static_cast<int>(int_arg(1)) - 1;
        const Index nc = int_arg(2);
        return rts::spread(gc_, env_.dar.at(array_arg(0)), dim, nc);
      }
      if (s.intrinsic == "TRANSPOSE")
        return rts::transpose(gc_, env_.dar.at(array_arg(0)));
      if (s.intrinsic == "MATMUL")
        return rts::matmul_dist(gc_, env_.dar.at(array_arg(0)),
                                env_.dar.at(array_arg(1)));
      if (s.intrinsic == "RESHAPE")
        return rts::reshape(gc_, env_.dar.at(array_arg(0)), dest->dad());
      if (s.intrinsic == "PACK")
        return rts::pack(gc_, env_.dar.at(array_arg(0)),
                         env_.lar.at(array_arg(1)), dest->dad());
      if (s.intrinsic == "UNPACK")
        return rts::unpack(gc_, env_.dar.at(array_arg(0)),
                           env_.lar.at(array_arg(1)),
                           env_.dar.at(array_arg(2)));
      throw RtsError("unsupported array intrinsic " + s.intrinsic);
    }();

    // Route the result into the destination's own mapping.
    if (result.dad().same_mapping(dest->dad())) {
      result.for_each_owned([&](const std::vector<Index>& g, double& v) {
        dest->at_global(g) = v;
      });
    } else {
      DistArray<double> re = rts::redistribute(gc_, result, dest->dad());
      re.for_each_owned([&](const std::vector<Index>& g, double& v) {
        dest->at_global(g) = v;
      });
    }
    // Redistribution/remap contract (docs/EXECUTION.md): any operation
    // that may replace an array's descriptor or storage drops the
    // statement-cache entries bound to it (plans, comm slots and native
    // kernels together), the compiled PARTI executors over it — and the
    // PARTI schedules whose send/receive lists were derived from it,
    // whether as the data array or as an indirection array feeding another
    // statement's subscripts.
    stmts_.invalidate_array(s.dest_array);
    cache_.invalidate_array(s.dest_array);
    comm_plans_.invalidate_array(s.dest_array);
    env_.bump_version(s.dest_array);
  }

  // --- result collection -----------------------------------------------------
  void store_cache_stats() {
    shared_.result.schedule_hits = cache_.hits();
    shared_.result.schedule_misses = cache_.misses();
    shared_.result.schedule_invalidations = cache_.invalidations();
    shared_.result.shared_schedule_hits = cache_.shared_hits();
    shared_.result.schedules_built = schedules_built_;
    shared_.result.gather_bytes = gather_bytes_;
    shared_.result.scatter_bytes = scatter_bytes_;
    const exec::StmtCache::Stats& st = stmts_.stats();
    shared_.result.shared_plan_hits = st.shared_hits;
    shared_.result.plan_hits = st.regular.hits;
    shared_.result.plan_misses = st.regular.misses;
    shared_.result.plan_invalidations = st.regular.invalidations;
    shared_.result.stmt_cache_entries = static_cast<long long>(stmts_.size());
    shared_.result.irregular_hits = st.irregular.hits;
    shared_.result.irregular_misses = st.irregular.misses;
    shared_.result.irregular_invalidations = st.irregular.invalidations;
    shared_.result.native_runs = st.native_runs;
    shared_.result.native_attaches = st.native_attaches;
    shared_.result.native_fallbacks = st.native_fallbacks;
    shared_.result.native_invalidations = st.native_invalidations;
    // Comm-plan counters: the statement slots (StmtCache) plus the
    // schedule-keyed PARTI executors (CommPlans).
    const exec::CommPlanStats& cs = comm_plans_.stats();
    shared_.result.comm_plan_hits = st.comm_hits + cs.hits;
    shared_.result.comm_plan_misses = st.comm_misses + cs.misses;
    shared_.result.comm_plan_invalidations =
        st.comm_invalidations + cs.invalidations;
    shared_.result.comm_plan_fast_bytes = cs.bytes_memcpy_fast_path;
    shared_.result.pool_reuses = proc_.stats().pool_reuses;
  }

  void collect_results() {
    if (opt_.skeleton) {
      if (proc_.rank() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        for (const auto& [name, v] : env_.scalars)
          shared_.result.scalars[name] = v.as_d();
        store_cache_stats();
      }
      return;
    }
    // Collective gathers must run on every processor; only the logical
    // root receives (this runs after the clock/stats snapshot, so it is
    // instrumentation, not simulated traffic — the root-only gather keeps
    // it off the host-wall profile too).
    for (auto& [name, arr] : env_.dar) {
      auto full = arr.gather_global_root(gc_);
      if (gc_.my_logical() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.real_arrays[name] = std::move(full);
      }
    }
    for (auto& [name, arr] : env_.iar) {
      auto full = arr.gather_global_root(gc_);
      if (gc_.my_logical() == 0) {
        std::lock_guard<std::mutex> lock(shared_.mu);
        shared_.result.int_arrays[name] = std::move(full);
      }
    }
    if (proc_.rank() == 0) {
      std::lock_guard<std::mutex> lock(shared_.mu);
      for (const auto& [name, v] : env_.scalars)
        shared_.result.scalars[name] = v.as_d();
      store_cache_stats();
    }
  }

  const Compiled& c_;
  machine::Proc& proc_;
  comm::GridComm gc_;
  const Init& init_;
  RunOptions opt_;
  Shared& shared_;

  exec::Env env_;
  exec::CommPlans comm_plans_;
  exec::StmtCache stmts_;
  exec::PlanScratch plan_scratch_;
  parti::ScheduleCache cache_;

  std::map<std::string, Index> frame_;
  std::map<std::string, VarState> var_state_;
  long long schedules_built_ = 0;
  long long gather_bytes_ = 0;
  long long scatter_bytes_ = 0;
  Index flat_iter_ = 0;
  /// Flat expr→ref binding for the current statement.  A statement has a
  /// handful of refs, so a linear pointer scan beats a node-based map — and
  /// the reused capacity keeps warm trips allocation-free.
  std::vector<std::pair<const Expr*, const RefInfo*>> ref_of_;
  std::vector<Index> gidx_scratch_;
};

}  // namespace

ProgramResult run_compiled(const compile::Compiled& compiled,
                           machine::SimMachine& machine, const Init& init,
                           const RunOptions& options) {
  require(machine.nprocs() == compiled.mapping.grid.size(),
          "machine size matches the compiled processor grid");
  Shared shared;
  shared.clock_snapshot.assign(static_cast<size_t>(machine.nprocs()), 0.0);
  shared.stats_snapshot.assign(static_cast<size_t>(machine.nprocs()),
                               machine::ProcStats{});
  // The JIT cache is process-global; report this run's share as deltas.
  const native::JitStats jit0 = native::NativeCache::instance().stats();
  machine::RunResult mr = machine.run([&](machine::Proc& proc) {
    Node node(compiled, proc, init, options, shared);
    node.run();
  });
  const native::JitStats jit1 = native::NativeCache::instance().stats();
  // Install this run's staged schedules into the shared store (complete
  // per-rank sets only; see SharedScheduleSession::finish).
  if (options.schedule_session != nullptr) options.schedule_session->finish();
  shared.result.native_cache_hits = jit1.cache_hits - jit0.cache_hits;
  shared.result.native_compiles = jit1.compiles - jit0.compiles;
  shared.result.native_dlopens = jit1.dlopens - jit0.dlopens;
  shared.result.native_compile_ms = jit1.compile_ms - jit0.compile_ms;
  // Report program-only timing/traffic (excluding result gathering).
  mr.proc_times = shared.clock_snapshot;
  mr.stats = shared.stats_snapshot;
  mr.exec_time = 0.0;
  for (double t : mr.proc_times) mr.exec_time = std::max(mr.exec_time, t);
  shared.result.machine = std::move(mr);
  return std::move(shared.result);
}

}  // namespace f90d::interp
