#pragma once
// Execution plans: the "decide once, run many" split of the SPMD executor.
//
// The paper's generated node programs (§4–§5, Fig. 3) resolve ownership
// once per statement — set_BOUND computes the local loop bounds, and the
// inner loops are strength-reduced local-index loops over preallocated
// storage.  The tree-walking interpreter instead re-evaluated subscript
// trees and re-queried the DAD owner/local algebra for every element on
// every DO-loop trip.  An ExecPlan recovers the compiled shape at run time,
// in three steps:
//
//   build (once per statement × baked scalars): the structure — postfix
//     tapes for the mask and rhs, every reference's storage binding and
//     per-dimension offset recipe, scalar tapes for the loop bounds, guard
//     subscripts and runtime subscript terms.
//   bind (only when a plan parameter changed since the last bind): the
//     values — guards evaluated, set_BOUND local ranges resolved
//     (including the enumerated CYCLIC(k) case), every affine subscript
//     strength-reduced to a per-loop-level base + stride (or per-counter
//     table) flat-offset recurrence, and the allocation range check.
//   run (every trip): a counter odometer, incremental offsets, and a
//     stack machine — zero Expr-tree walks, zero DAD calls, zero map
//     lookups per element.
//
// Plan parameters are the runtime scalars the bind step reads (the Gauss
// pivot K in `FORALL (I = K+1:N, ...)`), so one plan serves every pivot,
// the way the paper's set_BOUND resolves loop bounds at run time.  Only
// the scalars the plan's *shape* depends on — the bounds of CYCLIC(k>1)
// and INDIRECT partitions, whose local ranges enumerate explicit tables,
// and loop strides — are baked into the StmtCache key
// (exec/stmt_cache.hpp).  Statements the planner declines — PARTI
// gather/scatter, non-concatenation buffered writes, non-affine subscripts
// — fall back to the next rung; the decline itself is cached.
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "compile/spmd_ir.hpp"
#include "exec/exec_env.hpp"
#include "rts/set_bound.hpp"

namespace f90d::exec {

/// One loop level of the planned nest, iterating source-coordinate values.
/// Uniform progressions stay symbolic; block-cyclic CYCLIC(k) intersections
/// that are not arithmetic progressions enumerate their values.
struct PlanLoop {
  std::string var;
  Index count = 0;
  Index val0 = 0;
  Index step = 1;
  std::vector<Index> values;  ///< non-empty = explicit enumeration

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step : values[static_cast<size_t>(i)];
  }
};

/// Per-loop-level contribution to a reference's flat local offset: either
/// an affine stride in the loop counter or an explicit per-counter table
/// (enumerated CYCLIC(k) local index lists).
struct OffsetTerm {
  long long stride = 0;
  std::vector<long long> table;

  [[nodiscard]] long long at(Index c) const {
    return table.empty() ? stride * c : table[static_cast<size_t>(c)];
  }
};

/// A pre-bound array reference: storage pointer + offset recurrence.
struct RefPlan {
  enum class Kind {
    kRealDirect,     ///< flat offset into the local REAL chunk (incl. ghosts)
    kIntDirect,      ///< ... INTEGER chunk
    kLogicalDirect,  ///< ... LOGICAL chunk
    kRealSlab,       ///< multicast/transfer slab, offset into Buf::dvals
    kScalarSlot,     ///< broadcast element in Buf::scalar
    kRealIterBuf,    ///< gathered value per iteration, Buf::dvals (irregular)
    kIntIterBuf,     ///< ... Buf::ivals
    kValueBuf,       ///< buffered lhs: the offset is the flat global element
                     ///< id; values stream into PlanScratch (concatenation)
    kNone,           ///< no store: the plan folds a section reduction
  };
  Kind kind = Kind::kRealDirect;
  double* dbase = nullptr;
  long long* ibase = nullptr;
  unsigned char* lbase = nullptr;
  Buf* buf = nullptr;            ///< kRealSlab / kScalarSlot
  long long base = 0;            ///< flat offset at all-counters-zero
  std::vector<OffsetTerm> terms; ///< one per loop level
};

/// Postfix tape instruction.  Operands live on an explicit Value stack.
enum class Op : unsigned char {
  kConst, kScalar, kVar, kRef, kElem,
  kNeg, kNot,
  kAdd, kSub, kMul, kDiv, kPow,
  kEq, kNe, kLt, kLe, kGt, kGe, kAnd, kOr,
  kAbs, kSqrt, kExp, kLog, kSin, kCos, kMod, kMin, kMax,
  kToReal, kToInt, kNint,
};

/// A whole-array element access compiled into a tape (kElem): the rank
/// subscript values come off the stack and the element is read directly
/// from storage the executing processor holds in full.  Only fully
/// replicated arrays qualify — the irregular lhs indirection arrays
/// (H(BIN(I)): BIN carries no RefInfo because no communication serves it).
struct ElemRef {
  std::string array;
  const double* dbase = nullptr;  ///< exactly one base is set, by type
  const long long* ibase = nullptr;
  const unsigned char* lbase = nullptr;
  std::vector<long long> lowers;   ///< declared lower bound per dimension
  std::vector<Index> extents;      ///< global extent per dimension
  std::vector<long long> strides;  ///< row-major allocation stride per dim
  std::vector<long long> shifts;   ///< overlap_lo allocation shift per dim
};

struct Ins {
  Op op = Op::kConst;
  int a = 0;                      ///< kVar: loop level; kRef: ref id; kElem: elem id; kMin/kMax: argc
  const Value* scalar = nullptr;  ///< kScalar: bound slot in Env::scalars
  Value cst;                      ///< kConst
};

struct Tape {
  std::vector<Ins> ins;
  std::vector<ElemRef> elems;  ///< kElem descriptors, addressed by Ins::a
  [[nodiscard]] bool empty() const { return ins.empty(); }
};

// --- shared Value semantics --------------------------------------------------
// One implementation serves both the plan tape runner and the tree-walking
// fallback in interp/ — the two execution paths must stay bit-identical,
// so they share the operator tables instead of mirroring them.

[[nodiscard]] Value un_value(Op op, const Value& v);
[[nodiscard]] Value bin_value(Op op, const Value& l, const Value& r);
[[nodiscard]] Value intrinsic_value(Op op, std::span<const Value> args);
[[nodiscard]] Op bin_op_of(ast::BinOpKind k);
/// Intrinsic name -> op + required arg count (-1 = one or more).
/// False when the name is not a supported elementwise intrinsic.
[[nodiscard]] bool intrinsic_op_of(const std::string& n, Op& op, int& argc);
/// Trip count of the inclusive triplet lo:hi:st (st != 0).
[[nodiscard]] Index trip_count(Index lo, Index hi, Index st);

/// The out-of-range diagnostic of a checked subscript: `sub` of `array`
/// outside [lower, lower+extent-1] in 0-based dimension `dim`.  One text
/// for the tree walk, the tapes and the native kernels' error records.
[[nodiscard]] RtsError subscript_error(long long sub, const std::string& array,
                                       long long lower, long long extent,
                                       int dim);

/// Evaluate a postfix tape against bound references.  `varvals` holds the
/// current loop-variable values (kVar), `offs` the flat offset of each
/// reference (kRef, indexed by Ins::a).  Shared by run_exec_plan and the
/// irregular inspector/executor runners.
[[nodiscard]] Value eval_tape(const Tape& t, const std::vector<RefPlan>& refs,
                              const Index* varvals, const long long* offs,
                              std::vector<Value>& stack);

// --- section reductions ----------------------------------------------------
// One operator table serves the tree walk's exec_reduce and the planned
// reduction (run_reduce_plan), the way bin_value serves both expression
// paths: the op string is resolved once, never compared per element.

enum class ReduceOp {
  kSum, kProduct, kCount, kMaxval, kMinval, kMaxloc, kMinloc, kAny, kAll,
};

/// Reduction name (SpmdStmt::reduce_op) -> op; false when unsupported.
[[nodiscard]] bool reduce_op_of(const std::string& name, ReduceOp& op);

/// One processor's partial reduction: the accumulator (identity on
/// reset) plus, for MAXLOC/MINLOC, the first-dimension index of the best
/// value.
struct Reduction {
  ReduceOp op = ReduceOp::kSum;
  double acc = 0;
  Index loc = 0;
  bool have_loc = false;

  void reset(ReduceOp o);
  [[nodiscard]] bool want_loc() const {
    return op == ReduceOp::kMaxloc || op == ReduceOp::kMinloc;
  }
  /// A non-empty local range starts at `first`: MAXLOC/MINLOC stay
  /// well-defined even when every value is NaN (comparisons all false).
  void start(Index first) {
    if (!want_loc()) return;
    loc = first;
    have_loc = true;
  }
  void add(double v, Index at) {
    switch (op) {
      case ReduceOp::kSum: acc += v; break;
      case ReduceOp::kProduct: acc *= v; break;
      case ReduceOp::kCount: acc += v != 0 ? 1 : 0; break;
      case ReduceOp::kAny: acc = (acc != 0 || v != 0) ? 1 : 0; break;
      case ReduceOp::kAll: acc = (acc != 0 && v != 0) ? 1 : 0; break;
      case ReduceOp::kMaxval:
      case ReduceOp::kMaxloc:
        if (v > acc) {
          acc = v;
          loc = at;
          have_loc = true;
        }
        break;
      case ReduceOp::kMinval:
      case ReduceOp::kMinloc:
        if (v < acc) {
          acc = v;
          loc = at;
          have_loc = true;
        }
        break;
    }
  }
};

/// The reduction-tree combiner of a value reduction (every op but
/// MAXLOC/MINLOC, which combine (value, index) pairs).
[[nodiscard]] double reduce_combine(ReduceOp op, double x, double y);

// --- plan binding --------------------------------------------------------------
// The value-dependent half of a plan.  Every descriptor is resolved at
// build (scalar tapes, DAD pointers, grid coordinates, storage strides), so
// a rebind does no map lookups and no Expr-tree walks.

/// One loop level's bound recipe.
struct LoopBind {
  Tape lo, hi, st;                ///< scalar tapes (st empty = unit stride)
  const rts::Dad* dad = nullptr;  ///< set_BOUND partition source, or null
  int dim = -1;
  int coord = 0;                  ///< this processor's coordinate along it
  long long lower = 0;            ///< declared lower bound of that dimension
  Index synth_p = 0;              ///< > 0: synthetic BLOCK over synth_p procs
  rts::LocalRange range;          ///< last set_BOUND result (cyclic refs)
};

/// One processor guard: run only when this processor owns `sub`.
struct GuardBind {
  Tape sub;
  const rts::Dad* dad = nullptr;
  int dim = -1;
  long long lower = 0;
  int coord = 0;  ///< this processor's coordinate along the guard's grid dim
};

/// One array dimension of an affine reference: index =
/// c0 + rt + sum(coef * loop value), or — on a cyclic dimension — the
/// partitioning level's set_BOUND local range, or the local index of an
/// owned scalar subscript.
struct DimBind {
  long long c0 = 0;
  Tape rt;                                       ///< runtime scalar term
  std::vector<std::pair<int, long long>> coefs;  ///< (loop level, coef)
  int range_level = -1;  ///< >= 0: follow that level's LocalRange
  /// Non-null: c0 + rt is a global index on this cyclic dimension, mapped
  /// to its local index at bind time (the processor must own it).
  const rts::Dad* owner = nullptr;
  int dim = -1;
  int coord = 0;
  long long scale = 0;   ///< flat stride of the dimension
  long long shift = 0;   ///< allocation shift (overlap_lo)
  long long lo_ok = 0;   ///< admissible index range (reads may use ghosts)
  long long hi_ok = -1;
};

/// A reference's offset recipe: an affine recurrence over `dims`, or an
/// odometer over loop counts (slab and iteration buffers, innermost level
/// first), or neither (scalar slots: offset 0).
struct RefBind {
  std::vector<DimBind> dims;
  std::vector<int> odometer;
};

struct PlanBinding {
  std::vector<GuardBind> guards;
  std::vector<LoopBind> loops;
  std::vector<RefBind> refs;  ///< one per ExecPlan::refs, then the lhs
  /// The scalar slots the bind tapes read, and their values at the last
  /// bind: a rebind happens only when one of them changed.
  std::vector<const Value*> params;
  std::vector<Value> last;
  bool bound = false;
  bool ok = false;  ///< last bind passed (no zero stride, range check held)
  /// Bumped by every rebind: native attachments re-pack their arguments
  /// when it moves.
  unsigned long long generation = 0;
  std::vector<Value> stack;          ///< tape scratch
  std::vector<OffsetTerm> dterms;    ///< per-dimension term scratch
};

struct ExecPlan {
  int stmt_id = -1;
  /// Guards rejected this processor: the local loop is empty by ownership.
  bool masked_out = false;
  std::vector<PlanLoop> loops;
  std::vector<RefPlan> refs;  ///< read references addressed by kRef
  RefPlan lhs;                ///< kNone for section reductions
  Tape mask;                  ///< empty = unconditional
  Tape rhs;
  ReduceOp reduce = ReduceOp::kSum;  ///< kReduce statements (lhs kNone)
  /// Arrays whose storage the plan binds (StmtCache invalidation).
  std::vector<std::string> arrays;
  PlanBinding binding;
};

/// Build outcome of either planner.  A null plan is a decline: the
/// statement runs on the next rung.  `structural` declines do not depend
/// on runtime scalar values, so the driver can skip planning the
/// statement for good.
template <typename Plan>
struct BuildOutcome {
  std::shared_ptr<Plan> plan;
  std::string decline;
  bool structural = false;
};

using PlanEntry = BuildOutcome<ExecPlan>;

/// The names of the runtime scalars a statement's plan key covers.  Static
/// per statement — only the values change between executions — so callers
/// memoize it (StmtCache::key_scalars).  `parametric` (the regular
/// planner) keeps only the shape-determining scalars: loop strides and the
/// bounds of CYCLIC(k>1)/INDIRECT partitions; every other bound, guard and
/// subscript scalar is a plan parameter, re-read by bind_exec_plan.
/// Otherwise (the irregular planner) every scalar the build reads keys the
/// plan.  Scalars that only appear in the mask/rhs are loaded through
/// Value* slots at run time and never key the plan.
[[nodiscard]] std::vector<std::string> plan_key_scalars(
    const compile::SpmdStmt& s, const Env& env, bool parametric);

/// Lower one kForall (direct or concatenation-buffered lhs) or kReduce
/// statement into an unbound plan for this processor, or decline.
[[nodiscard]] PlanEntry build_exec_plan(const compile::SpmdStmt& s, Env& env);

/// Bind `p` to the current parameter values (a no-op when none changed
/// since the last bind).  False declines this execution only: a zero
/// stride, or a subscript range outside the local allocation — the
/// statement falls back for this trip, and a later trip rebinds.
[[nodiscard]] bool bind_exec_plan(ExecPlan& p);

/// Reusable plan-runner working storage (one per node program): keeps
/// the many small nests of triangular workloads allocation-free.
struct PlanScratch {
  std::vector<Index> counters;
  std::vector<Index> varvals;
  std::vector<long long> offs;
  std::vector<long long> contrib;
  std::vector<Value> stack;
  /// kValueBuf lhs output of run_exec_plan, in iteration order: the
  /// values and destination flat global ids the concatenation sends.
  std::vector<double> values;
  std::vector<Index> dest_ids;
};

/// Drive the planned nest: `body(varvals, offs)` once per local iteration
/// in the tree walk's order (last variable fastest), with the current
/// loop values and every reference's flat offset (reads, then the lhs at
/// index refs.size()) maintained incrementally — when a counter changes,
/// only that level's contribution is swapped out.  Returns the iteration
/// count; no-op for masked-out and empty nests.
template <typename Body>
Index for_each_iteration(const ExecPlan& p, PlanScratch& scratch,
                         Body&& body) {
  if (p.masked_out) return 0;
  const size_t nv = p.loops.size();
  if (nv == 0) return 0;
  for (const PlanLoop& l : p.loops)
    if (l.count == 0) return 0;

  const size_t nr = p.refs.size();
  auto ref_at = [&](size_t r) -> const RefPlan& {
    return r < nr ? p.refs[r] : p.lhs;
  };
  std::vector<Index>& counters = scratch.counters;
  std::vector<Index>& varvals = scratch.varvals;
  counters.assign(nv, 0);
  varvals.resize(nv);
  for (size_t k = 0; k < nv; ++k) varvals[k] = p.loops[k].value_at(0);
  std::vector<long long>& offs = scratch.offs;
  std::vector<long long>& contrib = scratch.contrib;
  offs.resize(nr + 1);
  contrib.resize((nr + 1) * nv);
  for (size_t r = 0; r <= nr; ++r) {
    long long off = ref_at(r).base;
    for (size_t k = 0; k < nv; ++k) {
      const long long c = ref_at(r).terms[k].at(0);
      contrib[r * nv + k] = c;
      off += c;
    }
    offs[r] = off;
  }
  auto update_level = [&](size_t k, Index c) {
    for (size_t r = 0; r <= nr; ++r) {
      const long long nc = ref_at(r).terms[k].at(c);
      offs[r] += nc - contrib[r * nv + k];
      contrib[r * nv + k] = nc;
    }
  };

  Index iters = 0;
  for (;;) {
    ++iters;
    body(static_cast<const Index*>(varvals.data()),
         static_cast<const long long*>(offs.data()));
    size_t k = nv;
    for (;;) {
      if (k == 0) return iters;
      --k;
      if (++counters[k] < p.loops[k].count) {
        varvals[k] = p.loops[k].value_at(counters[k]);
        update_level(k, counters[k]);
        break;
      }
      counters[k] = 0;
      varvals[k] = p.loops[k].value_at(0);
      update_level(k, 0);
    }
  }
}

/// Run the planned loop nest of a bound forall plan: stores through a
/// direct lhs, or (kValueBuf) refills scratch.values/dest_ids.  Returns
/// the number of iterations executed (mask-rejected iterations included,
/// matching the tree walk's cost charging).  Pre/post communication
/// actions are NOT run here — the driver runs them around the call.
[[nodiscard]] Index run_exec_plan(const ExecPlan& p, PlanScratch& scratch);

/// Fold a bound kReduce plan's local section into `red` (reset to the
/// plan's op first).  Returns the iteration count, like run_exec_plan.
[[nodiscard]] Index run_reduce_plan(const ExecPlan& p, PlanScratch& scratch,
                                    Reduction& red);

/// Process-wide, cross-run store of the *pointer-free* plan metadata
/// (service mode).  Plan bodies bind raw storage pointers (RefPlan bases,
/// Buf and Value slots) into one run's Env, so they can never outlive a
/// run; what CAN be shared is the per-statement analysis that is identical
/// for every run of the same compiled artifact: structural declines (skip
/// planning for good) and key-scalar name lists (skip plan_key_scalars).
/// Entries are namespaced by a caller-chosen prefix — the artifact content
/// hash plus a cache-family tag — so statement ids from different programs
/// (and from the regular vs irregular planner) never collide.  Thread-safe
/// with a shared-lock read path.
class SharedPlanMeta {
 public:
  struct Stats {
    long long decline_hits = 0;  ///< structural declines answered here
    long long scalar_hits = 0;   ///< key-scalar lists answered here
    long long installs = 0;
  };

  [[nodiscard]] bool declined_structurally(const std::string& ns,
                                           int stmt_id) const;
  void record_structural_decline(const std::string& ns, int stmt_id);

  /// Copy the memoized key-scalar list for (ns, stmt_id) into `out`.
  bool lookup_key_scalars(const std::string& ns, int stmt_id,
                          std::vector<std::string>& out) const;
  void install_key_scalars(const std::string& ns, int stmt_id,
                           const std::vector<std::string>& scalars);

  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t size() const;
  void clear();

 private:
  static std::string slot(const std::string& ns, int stmt_id);
  mutable std::shared_mutex mu_;
  std::set<std::string> declines_;
  std::unordered_map<std::string, std::vector<std::string>> scalars_;
  mutable std::mutex stats_mu_;
  mutable Stats stats_;
};

}  // namespace f90d::exec
