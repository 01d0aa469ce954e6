#include "exec/exec_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <sstream>

#include "compile/affine.hpp"
#include "exec/irregular_plan.hpp"
#include "rts/set_bound.hpp"

namespace f90d::exec {

using ast::BinOpKind;
using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using ast::UnOpKind;
using compile::Access;
using compile::AffineSub;
using compile::CommAction;
using compile::CommKind;
using compile::IndexPartition;
using compile::ProcGuard;
using compile::RefInfo;
using compile::SpmdKind;
using compile::SpmdStmt;
using frontend::Symbol;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;
using rts::LocalRange;

// --- shared Value semantics ---------------------------------------------------
// One implementation serves the plan tapes, the planner's scalar-context
// evaluation AND the tree-walking fallback (interp/ delegates here), so
// the two execution paths cannot diverge.

Value un_value(Op op, const Value& v) {
  switch (op) {
    case Op::kNeg:
      return v.k == Value::K::kI ? Value::integer(-v.as_i())
                                 : Value::real(-v.as_d());
    case Op::kNot: return Value::logical(!v.as_b());
    default: break;
  }
  throw RtsError("exec plan: bad unary op");
}

Value bin_value(Op op, const Value& l, const Value& r) {
  // AND/OR need no short-circuit here: plan operands are pure loads, so
  // evaluating both sides is value-identical to the interpreter.
  if (op == Op::kAnd) return Value::logical(l.as_b() && r.as_b());
  if (op == Op::kOr) return Value::logical(l.as_b() || r.as_b());
  const bool both_int = l.k == Value::K::kI && r.k == Value::K::kI;
  switch (op) {
    case Op::kAdd:
      return both_int ? Value::integer(l.i + r.i)
                      : Value::real(l.as_d() + r.as_d());
    case Op::kSub:
      return both_int ? Value::integer(l.i - r.i)
                      : Value::real(l.as_d() - r.as_d());
    case Op::kMul:
      return both_int ? Value::integer(l.i * r.i)
                      : Value::real(l.as_d() * r.as_d());
    case Op::kDiv:
      if (both_int) return Value::integer(r.i == 0 ? 0 : l.i / r.i);
      return Value::real(l.as_d() / r.as_d());
    case Op::kPow:
      if (both_int) {
        long long acc = 1;
        for (long long k = 0; k < r.i; ++k) acc *= l.i;
        return Value::integer(acc);
      }
      return Value::real(std::pow(l.as_d(), r.as_d()));
    case Op::kEq: return Value::logical(l.as_d() == r.as_d());
    case Op::kNe: return Value::logical(l.as_d() != r.as_d());
    case Op::kLt: return Value::logical(l.as_d() < r.as_d());
    case Op::kLe: return Value::logical(l.as_d() <= r.as_d());
    case Op::kGt: return Value::logical(l.as_d() > r.as_d());
    case Op::kGe: return Value::logical(l.as_d() >= r.as_d());
    default: break;
  }
  throw RtsError("exec plan: bad binary op");
}

Value intrinsic_value(Op op, std::span<const Value> args) {
  switch (op) {
    case Op::kAbs: {
      const Value& v = args[0];
      return v.k == Value::K::kI ? Value::integer(std::llabs(v.i))
                                 : Value::real(std::fabs(v.as_d()));
    }
    case Op::kSqrt: return Value::real(std::sqrt(args[0].as_d()));
    case Op::kExp: return Value::real(std::exp(args[0].as_d()));
    case Op::kLog: return Value::real(std::log(args[0].as_d()));
    case Op::kSin: return Value::real(std::sin(args[0].as_d()));
    case Op::kCos: return Value::real(std::cos(args[0].as_d()));
    case Op::kMod: {
      const Value& a = args[0];
      const Value& b = args[1];
      if (a.k == Value::K::kI && b.k == Value::K::kI)
        return Value::integer(b.i == 0 ? 0 : a.i % b.i);
      return Value::real(std::fmod(a.as_d(), b.as_d()));
    }
    case Op::kMin:
    case Op::kMax: {
      Value acc = args[0];
      for (size_t k = 1; k < args.size(); ++k) {
        const Value& v = args[k];
        const bool take = op == Op::kMin ? v.as_d() < acc.as_d()
                                         : v.as_d() > acc.as_d();
        if (take) acc = v;
      }
      return acc;
    }
    case Op::kToReal: return Value::real(args[0].as_d());
    case Op::kToInt: return Value::integer(args[0].as_i());
    case Op::kNint:
      return Value::integer(
          static_cast<long long>(std::llround(args[0].as_d())));
    default: break;
  }
  throw RtsError("exec plan: bad intrinsic op");
}

Op bin_op_of(BinOpKind k) {
  switch (k) {
    case BinOpKind::kAdd: return Op::kAdd;
    case BinOpKind::kSub: return Op::kSub;
    case BinOpKind::kMul: return Op::kMul;
    case BinOpKind::kDiv: return Op::kDiv;
    case BinOpKind::kPow: return Op::kPow;
    case BinOpKind::kEq: return Op::kEq;
    case BinOpKind::kNe: return Op::kNe;
    case BinOpKind::kLt: return Op::kLt;
    case BinOpKind::kLe: return Op::kLe;
    case BinOpKind::kGt: return Op::kGt;
    case BinOpKind::kGe: return Op::kGe;
    case BinOpKind::kAnd: return Op::kAnd;
    case BinOpKind::kOr: return Op::kOr;
  }
  throw RtsError("exec plan: bad binop kind");
}

bool intrinsic_op_of(const std::string& n, Op& op, int& argc) {
  struct Row {
    const char* name;
    Op op;
    int argc;
  };
  static const Row kRows[] = {
      {"ABS", Op::kAbs, 1},    {"SQRT", Op::kSqrt, 1}, {"EXP", Op::kExp, 1},
      {"LOG", Op::kLog, 1},    {"SIN", Op::kSin, 1},   {"COS", Op::kCos, 1},
      {"MOD", Op::kMod, 2},    {"MIN", Op::kMin, -1},  {"MAX", Op::kMax, -1},
      {"REAL", Op::kToReal, 1}, {"INT", Op::kToInt, 1}, {"NINT", Op::kNint, 1},
  };
  for (const Row& r : kRows) {
    if (n == r.name) {
      op = r.op;
      argc = r.argc;
      return true;
    }
  }
  return false;
}

Index trip_count(Index lo, Index hi, Index st) {
  if (st > 0) return hi < lo ? 0 : (hi - lo) / st + 1;
  return hi > lo ? 0 : (lo - hi) / (-st) + 1;
}

namespace {

/// Internal control flow of the planner: a decline unwinds the build and
/// becomes a cached PlanEntry with a null plan.
struct Decline {
  std::string reason;
  bool structural = true;
};

/// Add an affine (stride-per-counter) contribution into a merged term.
void term_add_affine(OffsetTerm& t, long long stride, Index count) {
  if (t.table.empty()) {
    t.stride += stride;
  } else {
    for (Index c = 0; c < count; ++c)
      t.table[static_cast<size_t>(c)] += stride * c;
  }
}

/// Add a per-counter table contribution (scaled by `scale`).
void term_add_table(OffsetTerm& t, const std::vector<long long>& tab,
                    long long scale, Index count) {
  if (t.table.empty()) {
    t.table.resize(static_cast<size_t>(count));
    for (Index c = 0; c < count; ++c)
      t.table[static_cast<size_t>(c)] = t.stride * c;
    t.stride = 0;
  }
  for (Index c = 0; c < count; ++c)
    t.table[static_cast<size_t>(c)] += scale * tab[static_cast<size_t>(c)];
}

/// Two array dimensions share one element-to-coordinate mapping.
bool same_dim_map(const DimMap& a, const DimMap& b) {
  return a.kind == b.kind && a.grid_dim == b.grid_dim &&
         a.template_extent == b.template_extent &&
         a.align_stride == b.align_stride && a.align_offset == b.align_offset &&
         a.block == b.block &&
         // INDIRECT: same resolved ownership table (env DADs share the
         // per-map table instance, so pointer identity is exact).
         (a.kind != DistKind::kIndirect ||
          (a.table == b.table && a.table != nullptr));
}

/// Local-to-global is non-affine on block-cyclic CYCLIC(k>1) and INDIRECT
/// dimensions: their local ranges map through mu^-1 element by element
/// into explicit value tables.
bool nonaffine_local(const DimMap& m) {
  return (m.kind == DistKind::kCyclic && m.block > 1) ||
         m.kind == DistKind::kIndirect;
}

// --- binding -------------------------------------------------------------------

long long eval_int(const Tape& t, ExecPlan& p) {
  return eval_tape(t, p.refs, nullptr, nullptr, p.binding.stack).as_i();
}

/// Guards and set_BOUND loop ranges; mirrors the interpreter's
/// ranges_for_coords()/range_from_bound() so the planned iteration order
/// and values are identical to the tree walk's.  False: a zero stride.
bool bind_nest(ExecPlan& p) {
  PlanBinding& b = p.binding;
  p.masked_out = false;
  for (const GuardBind& g : b.guards) {
    const Index val = eval_int(g.sub, p) - g.lower;
    if (g.dad->owner_coord(g.dim, val) != g.coord) {
      p.masked_out = true;
      return true;
    }
  }
  for (size_t k = 0; k < b.loops.size(); ++k) {
    LoopBind& lb = b.loops[k];
    PlanLoop& L = p.loops[k];
    const Index lo = eval_int(lb.lo, p);
    const Index hi = eval_int(lb.hi, p);
    const Index st = lb.st.empty() ? 1 : eval_int(lb.st, p);
    if (st == 0) return false;
    L.count = 0;
    L.val0 = 0;
    L.step = 1;
    L.values.clear();
    if (lb.dad != nullptr) {
      const Dad& dad = *lb.dad;
      lb.range = rts::set_bound(dad, lb.dim, lb.coord, lo - lb.lower,
                                hi - lb.lower, st);
      const LocalRange& r = lb.range;
      if (r.empty) continue;
      L.count = r.count();
      if (r.enumerated() || nonaffine_local(dad.dim(lb.dim))) {
        L.values.reserve(static_cast<size_t>(L.count));
        if (r.enumerated()) {
          for (Index l : r.indices)
            L.values.push_back(dad.global_of_local(lb.dim, l, lb.coord) +
                               lb.lower);
        } else {
          for (Index l = r.lb; l <= r.ub; l += r.st)
            L.values.push_back(dad.global_of_local(lb.dim, l, lb.coord) +
                               lb.lower);
        }
        L.val0 = L.values.front();
        L.step = L.count > 1 ? L.values[1] - L.values[0] : st;
        bool uniform = true;
        for (size_t i = 2; i < L.values.size(); ++i)
          uniform = uniform && L.values[i] - L.values[i - 1] == L.step;
        if (uniform) L.values.clear();  // progression form is exact
      } else {
        L.val0 = dad.global_of_local(lb.dim, r.lb, lb.coord) + lb.lower;
        L.step = L.count > 1
                     ? dad.global_of_local(lb.dim, r.lb + r.st, lb.coord) +
                           lb.lower - L.val0
                     : st;
      }
    } else if (lb.synth_p > 0) {
      const Index total = trip_count(lo, hi, st);
      const Index chunk = (total + lb.synth_p - 1) / lb.synth_p;
      const Index first = static_cast<Index>(lb.coord) * chunk;
      const Index last = std::min(first + chunk, total);
      L.count = std::max<Index>(0, last - first);
      L.val0 = lo + first * st;
      L.step = st;
    } else {
      L.count = trip_count(lo, hi, st);
      L.val0 = lo;
      L.step = st;
    }
  }
  return true;
}

bool nest_empty(const ExecPlan& p) {
  if (p.masked_out) return true;
  for (const PlanLoop& l : p.loops)
    if (l.count == 0) return true;
  return false;
}

/// One reference's base offset and per-level terms at the bound loops.
/// False when a touched index leaves the admissible range: reads may use
/// the overlap (ghost) area, writes must be owned, buffered destinations
/// must lie inside the array.  This is the planner's replacement for the
/// per-element at_global/_ghost require() checks.
bool bind_ref(ExecPlan& p, RefPlan& rp, const RefBind& rb) {
  PlanBinding& b = p.binding;
  const size_t nv = p.loops.size();
  if (!rb.odometer.empty()) {
    // One value per odometer position, last level fastest.
    long long mult = 1;
    for (int k : rb.odometer) {
      rp.terms[static_cast<size_t>(k)].stride = mult;
      mult *= p.loops[static_cast<size_t>(k)].count;
    }
    return true;
  }
  if (rb.dims.empty()) return true;  // scalar slot: offset 0
  for (OffsetTerm& t : rp.terms) {
    t.stride = 0;
    t.table.clear();
  }
  long long base = 0;
  std::vector<OffsetTerm>& dterms = b.dterms;
  dterms.resize(nv);
  for (const DimBind& d : rb.dims) {
    for (OffsetTerm& t : dterms) {
      t.stride = 0;
      t.table.clear();
    }
    long long c0 = d.c0;
    if (!d.rt.empty()) c0 += eval_int(d.rt, p);
    if (d.owner != nullptr) {
      if (c0 < 0 || c0 >= d.owner->extent(d.dim) ||
          !d.owner->owns(d.dim, c0, d.coord))
        return false;
      c0 = d.owner->local_of_global(d.dim, c0);
    } else if (d.range_level >= 0) {
      const LocalRange& lr = b.loops[static_cast<size_t>(d.range_level)].range;
      OffsetTerm& t = dterms[static_cast<size_t>(d.range_level)];
      if (lr.enumerated()) {
        t.table.assign(lr.indices.begin(), lr.indices.end());
      } else {
        c0 += lr.lb;
        t.stride = lr.st;
      }
    } else {
      for (const auto& [k, coef] : d.coefs) {
        const PlanLoop& L = p.loops[static_cast<size_t>(k)];
        OffsetTerm& t = dterms[static_cast<size_t>(k)];
        if (L.values.empty()) {
          c0 += coef * L.val0;
          t.stride += coef * L.step;
        } else {
          t.table.resize(static_cast<size_t>(L.count));
          for (Index c = 0; c < L.count; ++c)
            t.table[static_cast<size_t>(c)] =
                coef * L.values[static_cast<size_t>(c)];
        }
      }
    }
    long long mn = c0;
    long long mx = c0;
    for (size_t k = 0; k < nv; ++k) {
      const OffsetTerm& t = dterms[k];
      if (!t.table.empty()) {
        const auto [lo_it, hi_it] =
            std::minmax_element(t.table.begin(), t.table.end());
        mn += *lo_it;
        mx += *hi_it;
      } else if (t.stride != 0) {
        const long long end = t.stride * (p.loops[k].count - 1);
        mn += std::min<long long>(0, end);
        mx += std::max<long long>(0, end);
      }
    }
    if (mn < d.lo_ok || mx > d.hi_ok) return false;
    // Flatten into the merged per-level flat-offset recurrence.
    base += d.scale * (c0 + d.shift);
    for (size_t k = 0; k < nv; ++k) {
      const Index count = p.loops[k].count;
      if (!dterms[k].table.empty())
        term_add_table(rp.terms[k], dterms[k].table, d.scale, count);
      else if (dterms[k].stride != 0)
        term_add_affine(rp.terms[k], d.scale * dterms[k].stride, count);
    }
  }
  rp.base = base;
  return true;
}

bool bind_refs(ExecPlan& p) {
  const size_t nr = p.refs.size();
  for (size_t r = 0; r <= nr; ++r)
    if (!bind_ref(p, r < nr ? p.refs[r] : p.lhs, p.binding.refs[r]))
      return false;
  return true;
}

bool same_value(const Value& a, const Value& b) {
  return a.k == b.k && a.i == b.i && a.b == b.b &&
         std::memcmp(&a.d, &b.d, sizeof a.d) == 0;
}

// --- planner -----------------------------------------------------------------

class Builder {
 public:
  Builder(const SpmdStmt& s, Env& env, bool irregular = false)
      : s_(s), env_(env), coords_(env.gc.my_coords()), irregular_(irregular) {}

  /// Regular entry point: the whole structure, unbound — bind_exec_plan
  /// resolves the values on every execution whose parameters changed.
  PlanEntry build() {
    try {
      structural_gates();
      plan_ = std::make_shared<ExecPlan>();
      plan_->stmt_id = s_.stmt_id;
      build_nest();
      index_refs();
      if (s_.kind == SpmdKind::kReduce) {
        if (!reduce_op_of(s_.reduce_op, plan_->reduce))
          decline("unsupported reduction " + s_.reduce_op);
        no_lhs();
      } else if (s_.lhs_buffered) {
        plan_->lhs = value_buffer_ref(s_.refs.at(0), lhs_bind_);
      } else {
        plan_->lhs = build_ref_plan(s_.refs.at(0), /*is_write=*/true, lhs_bind_);
      }
      build_body();
      PlanBinding& b = plan_->binding;
      auto collect = [&b](const Tape& t) {
        for (const Ins& ins : t.ins)
          if (ins.op == Op::kScalar &&
              std::find(b.params.begin(), b.params.end(), ins.scalar) ==
                  b.params.end())
            b.params.push_back(ins.scalar);
      };
      for (const GuardBind& g : b.guards) collect(g.sub);
      for (const LoopBind& l : b.loops) {
        collect(l.lo);
        collect(l.hi);
        collect(l.st);
      }
      for (const RefBind& r : b.refs)
        for (const DimBind& d : r.dims) collect(d.rt);
      b.last.resize(b.params.size());
      return PlanEntry{plan_, {}, false};
    } catch (const Decline& d) {
      return PlanEntry{nullptr, d.reason, d.structural};
    }
  }

  /// Irregular entry point: lower a schedule-bearing kForall into an
  /// inspector/executor plan, or decline back to the tree walk.  Irregular
  /// plans key every scalar they read, so they bind exactly once, here.
  IrrPlanEntry build_irr() {
    try {
      structural_gates();
      plan_ = std::make_shared<ExecPlan>();
      plan_->stmt_id = s_.stmt_id;
      auto irr = std::make_shared<IrregularPlan>();
      irr->lhs_buffered = s_.lhs_buffered;
      for (const CommAction& a : s_.pre) {
        if (a.eliminated || a.kind != CommKind::kGather) continue;
        IrrRead r;
        r.action = &a;
        r.ref_id = a.ref_id;
        r.buffer_id = a.buffer_id;
        irr->reads.push_back(std::move(r));
      }
      // Inner indirection arrays resolve before the references that
      // subscript with them (the tree walk's pre-action order).
      std::sort(irr->reads.begin(), irr->reads.end(),
                [](const IrrRead& x, const IrrRead& y) {
                  return x.ref_id > y.ref_id;
                });
      for (const CommAction& a : s_.post)
        if (!a.eliminated && a.kind == CommKind::kScatter) irr->scatter = &a;
      build_nest();
      if (!bind_nest(*plan_)) decline("zero stride", /*structural=*/false);
      // Masked-out and empty-nest plans keep the reads/scatter metadata
      // but build no tapes: this processor still participates in the
      // collective schedule builds, with empty needs.
      if (nest_empty(*plan_)) {
        irr->empty_nest = true;
        irr->core = std::move(*plan_);
        return IrrPlanEntry{std::move(irr), {}, false};
      }
      index_refs();
      for (IrrRead& r : irr->reads)
        r.idx = build_indexer(s_.refs.at(static_cast<size_t>(r.ref_id)));
      if (s_.lhs_buffered) {
        irr->lhs_idx = build_indexer(s_.refs.at(0));
        no_lhs();
      } else {
        plan_->lhs = build_ref_plan(s_.refs.at(0), /*is_write=*/true, lhs_bind_);
      }
      build_body();
      if (!bind_refs(*plan_))
        decline("subscript range outside local allocation",
                /*structural=*/false);
      irr->core = std::move(*plan_);
      return IrrPlanEntry{std::move(irr), {}, false};
    } catch (const Decline& d) {
      return IrrPlanEntry{nullptr, d.reason, d.structural};
    }
  }

 private:
  [[noreturn]] static void decline(std::string reason, bool structural = true) {
    throw Decline{std::move(reason), structural};
  }

  void structural_gates() const {
    const bool reduce = s_.kind == SpmdKind::kReduce && !irregular_;
    if (s_.kind != SpmdKind::kForall && !reduce) decline("not a forall");
    if (s_.indices.empty()) decline("no iteration variables");
    if (s_.refs.empty() || !s_.rhs || (!reduce && !s_.lhs))
      decline("incomplete forall");
    if (!irregular_) {
      if (s_.lhs_buffered) {
        // The replicated-lhs concatenation consumes exactly the buffered
        // values the tree walk produces; the PARTI write paths stay with
        // the irregular planner.
        for (const CommAction& a : s_.post)
          if (!a.eliminated && a.kind != CommKind::kConcatWrite)
            decline("buffered lhs (PARTI write path)");
        if (s_.mask) decline("masked buffered lhs (read-back semantics)");
      } else if (!s_.post.empty()) {
        decline("post-communication actions");
      }
      for (const CommAction& a : s_.pre) {
        if (a.eliminated) continue;
        if (compile::is_schedule_read(a.kind))
          decline("schedule-based read buffers (PARTI)");
      }
      return;
    }
    // Irregular mode accepts exactly the schedule-bearing statements.
    // Gathers (schedule2) enumerate needs from this processor's own
    // iteration space, which the plan replays; the schedule1 kinds also
    // need every *peer's* range enumerated, so they stay on the tree walk.
    bool any_sched = false;
    for (const CommAction& a : s_.pre) {
      if (a.eliminated) continue;
      if (a.kind == CommKind::kPrecompRead ||
          a.kind == CommKind::kTemporaryShift)
        decline("schedule1 read (peer-range enumeration)");
      any_sched = any_sched || a.kind == CommKind::kGather;
    }
    for (const CommAction& a : s_.post) {
      if (a.eliminated) continue;
      if (a.kind != CommKind::kScatter) decline("non-scatter write combining");
      any_sched = true;
    }
    if (!any_sched) decline("no schedule actions (regular plan territory)");
    if (s_.lhs_buffered) {
      if (s_.mask) decline("masked buffered lhs (read-back semantics)");
      if (env_.sym(s_.refs.at(0).array).type != ast::BaseType::kReal)
        decline("non-REAL scattered lhs");
      bool has_scatter = false;
      for (const CommAction& a : s_.post)
        has_scatter =
            has_scatter || (!a.eliminated && a.kind == CommKind::kScatter);
      if (!has_scatter) decline("buffered lhs without scatter");
    }
  }

  /// Guard and loop-level recipes (bind_nest evaluates them).
  void build_nest() {
    PlanBinding& b = plan_->binding;
    for (const ProcGuard& g : s_.guards) {
      const Dad& dad = env_.dads.at(g.array);
      GuardBind gb;
      gb.sub = scalar_tape(*compile::affine_to_expr(g.sub));
      gb.dad = &dad;
      gb.dim = g.dim;
      gb.lower = env_.lower_of(g.array, g.dim);
      gb.coord = coords_[static_cast<size_t>(dad.dim(g.dim).grid_dim)];
      b.guards.push_back(std::move(gb));
    }
    for (const IndexPartition& ip : s_.indices) {
      LoopBind lb;
      lb.lo = scalar_tape(*ip.lo);
      lb.hi = scalar_tape(*ip.hi);
      if (ip.st) lb.st = scalar_tape(*ip.st);
      if (!ip.array.empty()) {
        const Dad& dad = env_.dads.at(ip.array);
        lb.dad = &dad;
        lb.dim = ip.dim;
        lb.lower = env_.lower_of(ip.array, ip.dim);
        lb.coord = coords_[static_cast<size_t>(dad.dim(ip.dim).grid_dim)];
      } else if (ip.synth_grid_dim >= 0) {
        lb.synth_p = env_.compiled.mapping.grid.extent(ip.synth_grid_dim);
        lb.coord = coords_[static_cast<size_t>(ip.synth_grid_dim)];
      }
      b.loops.push_back(std::move(lb));
      PlanLoop L;
      L.var = ip.var;
      plan_->loops.push_back(std::move(L));
    }
  }

  void index_refs() {
    for (const RefInfo& r : s_.refs)
      if (r.expr != nullptr) ref_of_.emplace(r.expr, &r);
  }

  /// Section reductions (and scattered irregular lhs) store nothing.
  void no_lhs() {
    plan_->lhs.kind = RefPlan::Kind::kNone;
    plan_->lhs.terms.resize(plan_->loops.size());
  }

  /// Mask/rhs tapes, then the reference recipes in plan order.
  void build_body() {
    plan_->rhs = compile_tape(*s_.rhs);
    if (s_.mask) plan_->mask = compile_tape(*s_.mask);
    plan_->arrays.assign(arrays_.begin(), arrays_.end());
    plan_->binding.refs = std::move(read_binds_);
    plan_->binding.refs.push_back(std::move(lhs_bind_));
  }

  int level_of(const std::string& var) const {
    for (size_t k = 0; k < s_.indices.size(); ++k)
      if (s_.indices[k].var == var) return static_cast<int>(k);
    decline("free variable " + var + " in subscript");
  }

  RefPlan build_ref_plan(const RefInfo& ref, bool is_write, RefBind& rb) {
    const size_t nv = plan_->loops.size();
    switch (ref.access) {
      case Access::kScalarSlot: {
        RefPlan r;
        r.kind = RefPlan::Kind::kScalarSlot;
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        r.terms.resize(nv);
        return r;
      }
      case Access::kSlabBuf: {
        if (is_write) decline("slab-buffered lhs");
        if (env_.sym(ref.array).type != ast::BaseType::kReal)
          decline("non-REAL slab buffer");
        RefPlan r;
        r.kind = RefPlan::Kind::kRealSlab;
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        r.terms.resize(nv);
        // Slab index: odometer over the slab variables in spec order, last
        // variable fastest (matches the pack order).
        for (auto it = ref.slab_vars.rbegin(); it != ref.slab_vars.rend();
             ++it)
          rb.odometer.push_back(level_of(*it));
        return r;
      }
      case Access::kIterBuf: {
        if (!irregular_) decline("iteration buffer (PARTI)");
        if (is_write) decline("iteration-buffered write reference");
        // One gathered value per iteration, in exact iteration order: the
        // flat iteration index is an odometer over the loop counts, last
        // variable fastest (matches the tree walk's flat_iter_ slots and
        // the needs enumeration order).
        RefPlan r;
        const Symbol& sm = env_.sym(ref.array);
        if (sm.type == ast::BaseType::kInteger)
          r.kind = RefPlan::Kind::kIntIterBuf;
        else if (sm.type == ast::BaseType::kReal)
          r.kind = RefPlan::Kind::kRealIterBuf;
        else
          decline("logical gather buffer");
        r.buf = &env_.bufs.at(static_cast<size_t>(ref.buffer_id));
        r.terms.resize(nv);
        for (size_t k = nv; k-- > 0;) rb.odometer.push_back(static_cast<int>(k));
        arrays_.insert(ref.array);
        return r;
      }
      case Access::kDirect:
        break;
    }
    return direct_ref_plan(ref, is_write, rb);
  }

  /// Compile one vector-subscripted reference's subscript expressions to
  /// tapes folding to 0-based flat global element ids — the id space the
  /// PARTI schedules speak.  Mirrors the tree walk's eval_subs +
  /// flat_global_of.
  GlobalIndexer build_indexer(const RefInfo& ref) {
    GlobalIndexer gi;
    const Dad& dad = env_.dads.at(ref.array);
    const int rank = dad.rank();
    if (ref.expr == nullptr ||
        static_cast<int>(ref.expr->args.size()) != rank)
      decline("subscript rank mismatch");
    gi.array = ref.array;
    gi.gstrides = global_strides(dad);
    for (int d = 0; d < rank; ++d) {
      gi.lowers.push_back(env_.lower_of(ref.array, d));
      gi.extents.push_back(dad.extent(d));
      gi.subs.push_back(compile_tape(*ref.expr->args[static_cast<size_t>(d)]));
    }
    arrays_.insert(ref.array);
    return gi;
  }

  static std::vector<long long> global_strides(const Dad& dad) {
    std::vector<long long> g(static_cast<size_t>(dad.rank()), 1);
    for (int d = dad.rank() - 2; d >= 0; --d)
      g[static_cast<size_t>(d)] =
          g[static_cast<size_t>(d + 1)] * dad.extent(d + 1);
    return g;
  }

  /// The affine part of one subscript dimension: constant, runtime term
  /// and per-level coefficients.
  DimBind affine_dim(const RefInfo& ref, int d) {
    const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
    DimBind db;
    db.c0 = sub.cst - env_.lower_of(ref.array, d);
    if (sub.runtime) db.rt = scalar_tape(*sub.runtime);
    for (const auto& [var, coef] : sub.coefs)
      if (coef != 0) db.coefs.emplace_back(level_of(var), coef);
    return db;
  }

  /// Concatenation-buffered lhs: the recurrence yields the flat global
  /// element id each iteration writes (the tree walk's eval_subs +
  /// flat_global_of); an out-of-range destination fails the bind, and the
  /// tree walk raises the diagnostic.
  RefPlan value_buffer_ref(const RefInfo& ref, RefBind& rb) {
    const Dad& dad = env_.dads.at(ref.array);
    if (static_cast<int>(ref.subs.size()) != dad.rank())
      decline("subscript rank mismatch");
    const std::vector<long long> gstrides = global_strides(dad);
    RefPlan rp;
    rp.kind = RefPlan::Kind::kValueBuf;
    rp.terms.resize(plan_->loops.size());
    for (int d = 0; d < dad.rank(); ++d) {
      if (ref.subs[static_cast<size_t>(d)].kind != AffineSub::Kind::kAffine)
        decline("non-affine buffered lhs subscript");
      DimBind db = affine_dim(ref, d);
      db.scale = gstrides[static_cast<size_t>(d)];
      db.hi_ok = dad.extent(d) - 1;
      rb.dims.push_back(std::move(db));
    }
    arrays_.insert(ref.array);
    return rp;
  }

  RefPlan direct_ref_plan(const RefInfo& ref, bool is_write, RefBind& rb) {
    RefPlan rp;
    const Dad* dad = nullptr;
    std::vector<Index> aext;
    const Symbol& sm = env_.sym(ref.array);
    switch (sm.type) {
      case ast::BaseType::kReal: {
        auto& a = env_.dar.at(ref.array);
        rp.kind = RefPlan::Kind::kRealDirect;
        rp.dbase = a.storage().data();
        dad = &a.dad();
        for (int d = 0; d < a.rank(); ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kInteger: {
        auto& a = env_.iar.at(ref.array);
        rp.kind = RefPlan::Kind::kIntDirect;
        rp.ibase = a.storage().data();
        dad = &a.dad();
        for (int d = 0; d < a.rank(); ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kLogical: {
        auto& a = env_.lar.at(ref.array);
        rp.kind = RefPlan::Kind::kLogicalDirect;
        rp.lbase = a.storage().data();
        dad = &a.dad();
        for (int d = 0; d < a.rank(); ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
    }
    const int rank = dad->rank();
    if (static_cast<int>(ref.subs.size()) != rank)
      decline("subscript rank mismatch");
    std::vector<long long> strides(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      strides[static_cast<size_t>(d)] =
          strides[static_cast<size_t>(d + 1)] * aext[static_cast<size_t>(d + 1)];

    rp.terms.resize(plan_->loops.size());
    for (int d = 0; d < rank; ++d) {
      const AffineSub& sub = ref.subs[static_cast<size_t>(d)];
      if (sub.kind != AffineSub::Kind::kAffine)
        decline("non-affine subscript");
      const DimMap& m = dad->dim(d);
      const int coord = m.kind == DistKind::kCollapsed
                            ? 0
                            : coords_[static_cast<size_t>(m.grid_dim)];
      const Index lext = dad->local_extent(d, coord);

      // Per-dim local-index decomposition: constant + per-level terms.
      DimBind db;
      const bool simple =
          m.kind == DistKind::kCollapsed ||
          (m.kind == DistKind::kBlock && m.align_stride == 1);
      if (simple) {
        db = affine_dim(ref, d);
        // BLOCK: local = global - first owned global (unit alignment
        // stride).  An empty local block admits no index at all.
        if (m.kind == DistKind::kBlock && lext > 0)
          db.c0 -= dad->global_of_local(d, 0, coord);
      } else if (sub.is_scalar()) {
        // CYCLIC / CYCLIC(k) / strided alignment, scalar subscript (the
        // pivot column of A(I, K)): resolved through the DAD at bind time.
        db = affine_dim(ref, d);
        db.owner = dad;
        db.dim = d;
        db.coord = coord;
      } else {
        // ... otherwise only the identity access on the dimension the
        // iteration was partitioned by — the local index progression is
        // then exactly the set_BOUND LocalRange.
        const std::string var = sub.single_var();
        if (var.empty() || sub.coef(var) != 1 || sub.has_runtime())
          decline("non-identity subscript on cyclic dimension");
        const int k = level_of(var);
        const IndexPartition& ip = s_.indices[static_cast<size_t>(k)];
        if (ip.array.empty())
          decline("cyclic subscript variable not set_BOUND partitioned");
        const Dad& pdad = env_.dads.at(ip.array);
        if (!same_dim_map(m, pdad.dim(ip.dim)) ||
            dad->extent(d) != pdad.extent(ip.dim))
          decline("cyclic dimension mapped differently from partition source");
        if (sub.cst - env_.lower_of(ref.array, d) !=
            -env_.lower_of(ip.array, ip.dim))
          decline("offset subscript on cyclic dimension");
        db.range_level = k;
      }
      db.scale = strides[static_cast<size_t>(d)];
      db.shift = m.overlap_lo;
      db.lo_ok = is_write ? 0 : -static_cast<long long>(m.overlap_lo);
      db.hi_ok = is_write ? lext - 1
                          : lext + static_cast<long long>(m.overlap_hi) - 1;
      if (lext == 0) {
        db.lo_ok = 0;
        db.hi_ok = -1;
      }
      rb.dims.push_back(std::move(db));
    }
    arrays_.insert(ref.array);
    return rp;
  }

  int ref_id_of(const RefInfo* ref) {
    auto it = ref_ids_.find(ref);
    if (it != ref_ids_.end()) return it->second;
    RefBind rb;
    RefPlan rp = build_ref_plan(*ref, /*is_write=*/false, rb);
    const int id = static_cast<int>(plan_->refs.size());
    plan_->refs.push_back(std::move(rp));
    read_binds_.push_back(std::move(rb));
    ref_ids_.emplace(ref, id);
    return id;
  }

  Tape compile_tape(const Expr& e) {
    Tape t;
    emit(e, t);
    return t;
  }

  /// A scalar-context tape (loop bounds, guard subscripts, runtime
  /// subscript terms): literals, scalar variables, arithmetic and
  /// elementwise intrinsics — the interpreter's scalar eval().
  Tape scalar_tape(const Expr& e) {
    scalar_ctx_ = true;
    Tape t = compile_tape(e);
    scalar_ctx_ = false;
    return t;
  }

  void emit(const Expr& e, Tape& t) {
    std::vector<Ins>& out = t.ins;
    switch (e.kind) {
      case ExprKind::kIntLit:
        out.push_back({Op::kConst, 0, nullptr, Value::integer(e.int_value)});
        return;
      case ExprKind::kRealLit:
        out.push_back({Op::kConst, 0, nullptr, Value::real(e.real_value)});
        return;
      case ExprKind::kLogicalLit:
        out.push_back(
            {Op::kConst, 0, nullptr, Value::logical(e.logical_value)});
        return;
      case ExprKind::kVarRef: {
        if (!scalar_ctx_) {
          for (size_t k = 0; k < s_.indices.size(); ++k) {
            if (s_.indices[k].var == e.name) {
              out.push_back({Op::kVar, static_cast<int>(k), nullptr, {}});
              return;
            }
          }
        }
        auto it = env_.scalars.find(e.name);
        if (it == env_.scalars.end()) decline("unbound scalar " + e.name);
        out.push_back({Op::kScalar, 0, &it->second, {}});
        return;
      }
      case ExprKind::kUnOp: {
        if (e.un_op == UnOpKind::kPlus) {
          emit(*e.args[0], t);
          return;
        }
        emit(*e.args[0], t);
        out.push_back({e.un_op == UnOpKind::kNeg ? Op::kNeg : Op::kNot, 0,
                       nullptr, {}});
        return;
      }
      case ExprKind::kBinOp: {
        emit(*e.args[0], t);
        emit(*e.args[1], t);
        out.push_back({bin_op_of(e.bin_op), 0, nullptr, {}});
        return;
      }
      case ExprKind::kArrayRef: {
        if (env_.compiled.sema.symbols.count(e.name) &&
            env_.compiled.sema.symbols.at(e.name).is_array()) {
          if (scalar_ctx_) decline("array element in scalar context");
          auto rit = ref_of_.find(&e);
          if (rit != ref_of_.end()) {
            out.push_back({Op::kRef, ref_id_of(rit->second), nullptr, {}});
            return;
          }
          emit_elem(e, t);
          return;
        }
        Op op{};
        int argc = 0;
        if (!intrinsic_op_of(e.name, op, argc))
          decline("unsupported intrinsic " + e.name);
        if (argc >= 0 ? e.args.size() != static_cast<size_t>(argc)
                      : e.args.empty())
          decline("bad intrinsic arity " + e.name);
        for (const ExprPtr& a : e.args) emit(*a, t);
        out.push_back({op, static_cast<int>(e.args.size()), nullptr, {}});
        return;
      }
      default:
        decline("unsupported expression kind in forall body");
    }
  }

  /// Array references with no RefInfo: codegen classifies only the reads
  /// that may need communication, so a fully replicated array subscripting
  /// a buffered lhs (H(BIN(I))) reaches the tape compiler unclassified.
  /// It is readable in place on every processor — compile a direct
  /// element access over its (whole-array) local storage.
  void emit_elem(const Expr& e, Tape& t) {
    auto dit = env_.dads.find(e.name);
    if (dit == env_.dads.end() || !dit->second.fully_replicated())
      decline("distributed array element without reference info");
    const Dad& dad = dit->second;
    const int rank = dad.rank();
    if (static_cast<int>(e.args.size()) != rank)
      decline("subscript rank mismatch");
    ElemRef er;
    er.array = e.name;
    std::vector<Index> aext;
    switch (env_.sym(e.name).type) {
      case ast::BaseType::kReal: {
        const auto& a = env_.dar.at(e.name);
        er.dbase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kInteger: {
        const auto& a = env_.iar.at(e.name);
        er.ibase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
      case ast::BaseType::kLogical: {
        const auto& a = env_.lar.at(e.name);
        er.lbase = a.storage().data();
        for (int d = 0; d < rank; ++d) aext.push_back(a.alloc_extent(d));
        break;
      }
    }
    er.strides.assign(static_cast<size_t>(rank), 1);
    for (int d = rank - 2; d >= 0; --d)
      er.strides[static_cast<size_t>(d)] =
          er.strides[static_cast<size_t>(d + 1)] * aext[static_cast<size_t>(d + 1)];
    for (int d = 0; d < rank; ++d) {
      er.lowers.push_back(env_.lower_of(e.name, d));
      er.extents.push_back(dad.extent(d));
      er.shifts.push_back(dad.dim(d).overlap_lo);
      emit(*e.args[static_cast<size_t>(d)], t);
    }
    arrays_.insert(e.name);
    t.elems.push_back(std::move(er));
    t.ins.push_back(
        {Op::kElem, static_cast<int>(t.elems.size()) - 1, nullptr, {}});
  }

  const SpmdStmt& s_;
  Env& env_;
  std::vector<int> coords_;
  bool irregular_ = false;
  bool scalar_ctx_ = false;
  std::shared_ptr<ExecPlan> plan_;
  std::map<const Expr*, const RefInfo*> ref_of_;
  std::map<const RefInfo*, int> ref_ids_;
  std::vector<RefBind> read_binds_;  ///< parallel to plan_->refs
  RefBind lhs_bind_;
  std::set<std::string> arrays_;
};

// --- runner ------------------------------------------------------------------

Value load_ref(const RefPlan& r, long long off) {
  switch (r.kind) {
    case RefPlan::Kind::kRealDirect:
      return Value::real(r.dbase[off]);
    case RefPlan::Kind::kIntDirect:
      return Value::integer(r.ibase[off]);
    case RefPlan::Kind::kLogicalDirect:
      return Value::logical(r.lbase[off] != 0);
    case RefPlan::Kind::kRealSlab:
    case RefPlan::Kind::kRealIterBuf:
      return Value::real(r.buf->dvals[static_cast<size_t>(off)]);
    case RefPlan::Kind::kIntIterBuf:
      return Value::integer(r.buf->ivals[static_cast<size_t>(off)]);
    case RefPlan::Kind::kScalarSlot:
      return r.buf->scalar;
    case RefPlan::Kind::kValueBuf:
    case RefPlan::Kind::kNone:
      break;  // write-only kinds: never addressed by kRef
  }
  return Value::real(0);
}

}  // namespace

RtsError subscript_error(long long sub, const std::string& array,
                         long long lower, long long extent, int dim) {
  return RtsError(strformat(
      "subscript %lld of %s is out of range [%lld, %lld] in dimension %d",
      sub, array.c_str(), lower, lower + extent - 1, dim + 1));
}

Value eval_tape(const Tape& t, const std::vector<RefPlan>& refs,
                const Index* varvals, const long long* offs,
                std::vector<Value>& stack) {
  stack.clear();
  for (const Ins& ins : t.ins) {
    switch (ins.op) {
      case Op::kConst: stack.push_back(ins.cst); break;
      case Op::kScalar: stack.push_back(*ins.scalar); break;
      case Op::kVar:
        stack.push_back(Value::integer(varvals[ins.a]));
        break;
      case Op::kRef:
        stack.push_back(load_ref(refs[static_cast<size_t>(ins.a)],
                                 offs[ins.a]));
        break;
      case Op::kElem: {
        const ElemRef& er = t.elems[static_cast<size_t>(ins.a)];
        const size_t rank = er.lowers.size();
        long long off = 0;
        for (size_t d = 0; d < rank; ++d) {
          const long long sub =
              stack[stack.size() - rank + d].as_i();
          const long long rel = sub - er.lowers[d];
          if (rel < 0 || rel >= er.extents[d])
            throw subscript_error(sub, er.array, er.lowers[d],
                                  er.extents[d], static_cast<int>(d));
          off += (rel + er.shifts[d]) * er.strides[d];
        }
        stack.resize(stack.size() - rank);
        if (er.dbase != nullptr)
          stack.push_back(Value::real(er.dbase[off]));
        else if (er.ibase != nullptr)
          stack.push_back(Value::integer(er.ibase[off]));
        else
          stack.push_back(Value::logical(er.lbase[off] != 0));
        break;
      }
      case Op::kNeg:
      case Op::kNot:
        stack.back() = un_value(ins.op, stack.back());
        break;
      case Op::kAbs:
      case Op::kSqrt:
      case Op::kExp:
      case Op::kLog:
      case Op::kSin:
      case Op::kCos:
      case Op::kMod:
      case Op::kMin:
      case Op::kMax:
      case Op::kToReal:
      case Op::kToInt:
      case Op::kNint: {
        const size_t argc = static_cast<size_t>(ins.a);
        const Value v = intrinsic_value(
            ins.op, std::span<const Value>(stack.data() + stack.size() - argc,
                                           argc));
        stack.resize(stack.size() - argc);
        stack.push_back(v);
        break;
      }
      default: {
        const Value r = stack.back();
        stack.pop_back();
        stack.back() = bin_value(ins.op, stack.back(), r);
        break;
      }
    }
  }
  return stack.back();
}

Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch) {
  const size_t nr = p.refs.size();
  std::vector<Value>& stack = scratch.stack;
  stack.reserve(p.rhs.ins.size() + p.mask.ins.size() + 4);
  if (p.lhs.kind == RefPlan::Kind::kValueBuf) {
    // Buffered values for the concatenation (masks are declined: the
    // read-back of masked slots stays on the tree walk).
    scratch.values.clear();
    scratch.dest_ids.clear();
    return for_each_iteration(
        p, scratch, [&](const Index* varvals, const long long* offs) {
          const Value v = eval_tape(p.rhs, p.refs, varvals, offs, stack);
          scratch.values.push_back(v.as_d());
          scratch.dest_ids.push_back(offs[nr]);
        });
  }
  return for_each_iteration(
      p, scratch, [&](const Index* varvals, const long long* offs) {
        if (!p.mask.empty() &&
            !eval_tape(p.mask, p.refs, varvals, offs, stack).as_b())
          return;
        const Value v = eval_tape(p.rhs, p.refs, varvals, offs, stack);
        const long long off = offs[nr];
        switch (p.lhs.kind) {
          case RefPlan::Kind::kRealDirect: p.lhs.dbase[off] = v.as_d(); break;
          case RefPlan::Kind::kIntDirect: p.lhs.ibase[off] = v.as_i(); break;
          case RefPlan::Kind::kLogicalDirect:
            p.lhs.lbase[off] = static_cast<unsigned char>(v.as_b() ? 1 : 0);
            break;
          default:
            throw RtsError("exec plan: bad lhs kind");
        }
      });
}

Index run_reduce_plan(const ExecPlan& p, PlanScratch& scratch,
                      Reduction& red) {
  red.reset(p.reduce);
  if (!p.masked_out && p.loops.front().count > 0)
    red.start(p.loops.front().value_at(0));
  std::vector<Value>& stack = scratch.stack;
  return for_each_iteration(
      p, scratch, [&](const Index* varvals, const long long* offs) {
        if (!p.mask.empty() &&
            !eval_tape(p.mask, p.refs, varvals, offs, stack).as_b())
          return;
        red.add(eval_tape(p.rhs, p.refs, varvals, offs, stack).as_d(),
                varvals[0]);
      });
}

PlanEntry build_exec_plan(const SpmdStmt& s, Env& env) {
  return Builder(s, env).build();
}

bool bind_exec_plan(ExecPlan& p) {
  PlanBinding& b = p.binding;
  if (b.bound) {
    bool same = true;
    for (size_t i = 0; i < b.params.size() && same; ++i)
      same = same_value(*b.params[i], b.last[i]);
    if (same) return b.ok;
  }
  for (size_t i = 0; i < b.params.size(); ++i) b.last[i] = *b.params[i];
  b.bound = true;
  ++b.generation;
  b.ok = bind_nest(p) && (nest_empty(p) || bind_refs(p));
  return b.ok;
}

IrrPlanEntry build_irregular_plan(const SpmdStmt& s, Env& env) {
  return Builder(s, env, /*irregular=*/true).build_irr();
}

bool reduce_op_of(const std::string& name, ReduceOp& op) {
  static const std::pair<const char*, ReduceOp> kOps[] = {
      {"SUM", ReduceOp::kSum},       {"PRODUCT", ReduceOp::kProduct},
      {"COUNT", ReduceOp::kCount},   {"MAXVAL", ReduceOp::kMaxval},
      {"MINVAL", ReduceOp::kMinval}, {"MAXLOC", ReduceOp::kMaxloc},
      {"MINLOC", ReduceOp::kMinloc}, {"ANY", ReduceOp::kAny},
      {"ALL", ReduceOp::kAll},
  };
  for (const auto& [n, o] : kOps) {
    if (name == n) {
      op = o;
      return true;
    }
  }
  return false;
}

void Reduction::reset(ReduceOp o) {
  op = o;
  switch (o) {
    case ReduceOp::kProduct:
    case ReduceOp::kAll: acc = 1; break;
    case ReduceOp::kMaxval:
    case ReduceOp::kMaxloc: acc = -1e300; break;
    case ReduceOp::kMinval:
    case ReduceOp::kMinloc: acc = 1e300; break;
    default: acc = 0; break;
  }
  loc = 0;
  have_loc = false;
}

double reduce_combine(ReduceOp op, double x, double y) {
  switch (op) {
    case ReduceOp::kProduct: return x * y;
    case ReduceOp::kMaxval: return std::max(x, y);
    case ReduceOp::kMinval: return std::min(x, y);
    case ReduceOp::kAny: return x != 0 || y != 0 ? 1.0 : 0.0;
    case ReduceOp::kAll: return x != 0 && y != 0 ? 1.0 : 0.0;
    default: return x + y;  // SUM, COUNT
  }
}

std::vector<std::string> plan_key_scalars(const SpmdStmt& s, const Env& env,
                                          bool parametric) {
  std::set<std::string> names;
  auto walk = [&](const Expr& e, auto&& self) -> void {
    if (e.kind == ExprKind::kVarRef && env.scalars.count(e.name)) {
      // PARAMETER constants never change: nothing to key on.
      auto sit = env.compiled.sema.symbols.find(e.name);
      const bool constant = sit != env.compiled.sema.symbols.end() &&
                            sit->second.is_parameter;
      if (!(parametric && constant)) names.insert(e.name);
    }
    for (const ExprPtr& x : e.args)
      if (x) self(*x, self);
  };
  for (const IndexPartition& ip : s.indices) {
    // Parametric plans bake only what fixes their shape: strides, and the
    // bounds of partitions whose local ranges enumerate value tables.
    const bool tables = !ip.array.empty() &&
                        nonaffine_local(env.dads.at(ip.array).dim(ip.dim));
    if (!parametric || tables) {
      walk(*ip.lo, walk);
      walk(*ip.hi, walk);
    }
    if (ip.st) walk(*ip.st, walk);
  }
  if (!parametric) {
    for (const ProcGuard& g : s.guards)
      if (g.sub.runtime) walk(*g.sub.runtime, walk);
    for (const RefInfo& ref : s.refs)
      for (const AffineSub& sub : ref.subs)
        if (sub.runtime) walk(*sub.runtime, walk);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

// ---------------------------------------------------------------------------
// SharedPlanMeta

std::string SharedPlanMeta::slot(const std::string& ns, int stmt_id) {
  return ns + "#" + std::to_string(stmt_id);
}

bool SharedPlanMeta::declined_structurally(const std::string& ns,
                                           int stmt_id) const {
  std::shared_lock lk(mu_);
  const bool hit = declines_.count(slot(ns, stmt_id)) > 0;
  if (hit) {
    std::lock_guard slk(stats_mu_);
    ++stats_.decline_hits;
  }
  return hit;
}

void SharedPlanMeta::record_structural_decline(const std::string& ns,
                                               int stmt_id) {
  {
    std::unique_lock lk(mu_);
    if (!declines_.insert(slot(ns, stmt_id)).second) return;
  }
  std::lock_guard slk(stats_mu_);
  ++stats_.installs;
}

bool SharedPlanMeta::lookup_key_scalars(const std::string& ns, int stmt_id,
                                        std::vector<std::string>& out) const {
  std::shared_lock lk(mu_);
  auto it = scalars_.find(slot(ns, stmt_id));
  if (it == scalars_.end()) return false;
  out = it->second;
  {
    std::lock_guard slk(stats_mu_);
    ++stats_.scalar_hits;
  }
  return true;
}

void SharedPlanMeta::install_key_scalars(
    const std::string& ns, int stmt_id,
    const std::vector<std::string>& scalars) {
  {
    std::unique_lock lk(mu_);
    if (!scalars_.emplace(slot(ns, stmt_id), scalars).second) return;
  }
  std::lock_guard slk(stats_mu_);
  ++stats_.installs;
}

SharedPlanMeta::Stats SharedPlanMeta::stats() const {
  std::lock_guard lk(stats_mu_);
  return stats_;
}

std::size_t SharedPlanMeta::size() const {
  std::shared_lock lk(mu_);
  return declines_.size() + scalars_.size();
}

void SharedPlanMeta::clear() {
  {
    std::unique_lock lk(mu_);
    declines_.clear();
    scalars_.clear();
  }
  std::lock_guard slk(stats_mu_);
  stats_ = Stats{};
}

}  // namespace f90d::exec
