#pragma once
// CommPlans: compiled communication plans — the comm-side counterpart of
// the execution-plan layer (exec/exec_plan.hpp), and the only code that
// runs a regular pre-communication action on any rung.
//
// A pre-communication action needs facts that re-deriving on every DO trip
// would waste: which neighbour an overlap_shift talks to, which storage
// cells form the boundary slab, which processor owns a broadcast element,
// which local offsets a slab multicast packs, which owned cells a PARTI
// executor pushes per peer.  A CommPlan resolves all of it into flat
// descriptors:
//
//   ShiftPlan   overlap_shift lowered to two strided-copy descriptors
//               (pack boundary slab / unpack ghost area) whose innermost
//               contiguous runs collapse to memcpy, plus the baked grid
//               neighbour exchange;
//   BcastPlan   element broadcast with the root and the root's flat
//               storage offset resolved, reusing a persistent scratch;
//   SlabPlan    multicast/transfer slab packing through a per-element
//               byte-offset table (real local_of_global per value, so
//               BLOCK, CYCLIC(k) and collapsed dims all work), converting
//               REAL, INTEGER and LOGICAL storage to the doubles the wire
//               carries, feeding the buffer vector in place;
//   SchedExec   PARTI read/write executors with the per-peer global-id
//               lists pre-resolved to flat byte offsets, packing pooled
//               payload buffers (machine::PayloadPool) instead of typed
//               temporaries.
//
// Two lifetimes share one builder.  A planned statement's StmtPlan is
// built once per (statement × processor × baked runtime scalars) and
// cached; a slot whose baked value would depend on anything outside that
// key (the Gauss pivot K of a broadcast A(K,K), an array element in a slab
// subscript) is rebuilt at every run instead.  The tree walk, skeleton
// mode, DO preheaders and scalar assignments build a plan for the one
// execution that needs it (build_once, run_hoisted): uncached, uncounted,
// and never JIT-compiled.  Either way the plans issue exactly the
// collective calls, tags, message sizes (including zero-byte sends),
// virtual-time charges and element values the paper's primitives define;
// tests/golden/traffic_*.txt pins them.  A malformed action raises the
// primitive's diagnostic at build time: exec::subscript_error for an
// out-of-range broadcast or slab subscript, the rts::overlap_shift
// requires for a shift that does not fit its overlap area.
//
// Cache and invalidation contract: a statement's StmtPlan is one part of
// its StmtCache entry (exec/stmt_cache.hpp), next to the execution plan it
// accompanies and under the same baked runtime scalars, so the two are
// built and dropped together.  CommPlans itself only caches the PARTI
// executors, keyed by schedule; invalidate_array(name) drops those bound
// to `name` — called from the same redistribute/remap site that
// invalidates the StmtCache and the ScheduleCache (docs/EXECUTION.md).
#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <variant>
#include <vector>

#include "exec/exec_env.hpp"
#include "native/lower.hpp"
#include "parti/schedule.hpp"

namespace f90d::exec {

struct CommPlanStats {
  long long hits = 0;           ///< executor served from a compiled entry
  long long misses = 0;         ///< executor entries compiled
  long long invalidations = 0;  ///< entries dropped by invalidate_array
  /// Bytes moved through coalesced contiguous memcpy runs (pack+unpack
  /// fast path; strided element copies are not counted).
  long long bytes_memcpy_fast_path = 0;
};

/// One iteration range of a forall variable as the comm planner needs it
/// (mirror of the interpreter's VarRange; `values` non-empty = explicit
/// enumeration, e.g. block-cyclic local sets).
struct CommRange {
  Index val0 = 0;
  Index step = 1;
  Index count = 0;
  std::vector<Index> values;

  [[nodiscard]] Index value_at(Index i) const {
    return values.empty() ? val0 + i * step : values[static_cast<size_t>(i)];
  }
};

/// Callbacks into the interpreter: plans are built from the same expression
/// evaluation and range machinery the tree walk uses, so a baked table is
/// correct by construction for the keyed scalar values.
struct CommHooks {
  /// Evaluate a scalar expression (DO variables and runtime scalars
  /// resolve; no forall frame is active during pre-communication).
  std::function<Value(const ast::Expr&)> eval;
  /// Same, with forall variables `vars` temporarily bound to `vals`
  /// (offset table construction).
  std::function<Value(const ast::Expr&, std::span<const std::string> vars,
                      std::span<const Index> vals)>
      eval_bound;
  /// ranges_for_coords_no_guards for this processor, one entry per
  /// s.indices element.
  std::function<std::vector<CommRange>(const compile::SpmdStmt&)> ranges;
};

/// Strided copy between array storage and a packed buffer: `levels` outer
/// loops (counts and byte strides) around a contiguous run of `chunk`
/// bytes — the innermost levels whose stride equals the accumulated run
/// length are coalesced away at build time, so a fully contiguous slab is
/// one memcpy.
struct CopyDesc {
  Index base = 0;   ///< byte offset of the first element in storage
  Index chunk = 0;  ///< bytes per contiguous run
  Index runs = 0;   ///< number of runs (product of level counts)
  Index total = 0;  ///< chunk * runs
  Index elem = 0;   ///< element size (fast-path accounting: chunk > elem)
  std::vector<Index> counts;   ///< outer loop trip counts (outer..inner)
  std::vector<Index> strides;  ///< byte stride per level
};

/// Element type of a baked storage view (the three DistArray payloads).
enum class ElemTy { kReal, kInt, kLogical };

class CommPlans {
 public:
  CommPlans(Env& env, CommHooks hooks, bool use_native)
      : env_(&env), hooks_(std::move(hooks)), use_native_(use_native) {}

  /// Compiled PARTI read executor into `b` (dvals or ivals by element
  /// type).  Returns false when the schedule/array cannot be compiled —
  /// the caller falls back to parti::execute_read.  Identical messages,
  /// tags, charges and buffer contents as the generic executor.
  bool execute_read(const parti::SchedulePtr& sched, const std::string& array,
                    Buf& b);

  /// Compiled PARTI write executor (overwrite combine, the interpreter's
  /// only use).  `values` are iteration-ordered doubles; integer
  /// destinations convert exactly like the tree walk.  Returns false to
  /// fall back.
  bool execute_write(const parti::SchedulePtr& sched, const std::string& array,
                     std::span<const double> values);

  /// Drop every executor entry bound to `array` (redistribute/remap
  /// contract).
  void invalidate_array(const std::string& name);

  [[nodiscard]] const CommPlanStats& stats() const { return stats_; }

 private:
  struct Slot;

 public:
  /// A statement's compiled pre-communication, in dependency order: ghost
  /// fills, broadcasts and slabs first, then the schedule-based read
  /// buffers by descending ref id (inner indirection arrays resolve before
  /// the references that subscript with them).
  struct StmtPlan {
    std::vector<Slot> slots;  ///< overlap shifts, broadcasts and slabs
    /// Schedule-based read buffers (precomp_read, temporary_shift,
    /// gather): the caller runs them after the slots, through its PARTI
    /// inspector/executor.
    std::vector<const compile::CommAction*> reads;
    std::vector<std::string> arrays;  ///< storage the cached slots bake
  };

  /// Compile every non-eliminated pre-communication action of `s` for the
  /// statement cache.  `key_names` are the scalar names the statement's
  /// cache key covers: a slot that would bake anything else is left
  /// unbuilt and rebuilt at every run_pre, so a stale bake is impossible
  /// by construction.
  StmtPlan build_stmt(const compile::SpmdStmt& s,
                      std::span<const std::string> key_names);

  /// Compile the pre-communication of `s` for this execution only.
  StmtPlan build_once(const compile::SpmdStmt& s);

  /// Run a built StmtPlan's slots (the caller runs `reads`).
  void run_pre(const compile::SpmdStmt& s, StmtPlan& plan);

  /// Build and run one hoisted DO-preheader action (an overlap shift or an
  /// element broadcast carrying its own RefInfo clone).
  void run_hoisted(const compile::PreheaderAction& pa);

 private:
  // --- per-kind plans -------------------------------------------------------
  struct ShiftPlan {
    bool noop = false;  ///< collapsed dim / zero amount: consumes nothing
    /// Cached plans exchange pooled payloads (every processor acquires,
    /// edges release unsent) and count their memcpy bytes; per-execution
    /// plans send through the typed exchange, whose pool accounting is that
    /// of the rts::overlap_shift primitive.
    bool cached = false;
    int grid_dim = 0;
    int offset = 0;           ///< exchange direction (-1 / +1)
    bool expect_recv = false; ///< baked edge test of shift_exchange
    char* base = nullptr;
    std::size_t elem = 0;
    CopyDesc pack, unpack;
    native::KernelFn pack_kernel = nullptr;
    native::KernelFn unpack_kernel = nullptr;
  };

  struct BcastPlan {
    int root = 0;  ///< logical rank owning the element
    bool is_root = false;
    ElemTy ty = ElemTy::kReal;
    const char* base = nullptr;   ///< storage base (root only)
    Index byte_off = 0;           ///< flat byte offset of the element (root)
    int buffer_id = -1;
    std::vector<double> scratch;  ///< persistent bcast payload
  };

  struct SlabPlan {
    bool is_transfer = false;
    ElemTy ty = ElemTy::kReal;  ///< source storage type (the slab itself
                                ///< packs as double)
    const char* base = nullptr;
    std::vector<std::pair<int, int>> comm_dims;  ///< (grid_dim, root coord)
    std::vector<int> dest_coords;                ///< transfer destinations
    /// Source line only: the byte offset of every slab element in pack
    /// order (odometer over the slab variables, last fastest — the SlabBuf
    /// read order).  Empty off the source line or for an empty slab.
    std::vector<Index> offs;
    int buffer_id = -1;
    std::vector<double> scratch;  ///< transfer receive side
  };

  /// monostate: the slot bakes a value outside its statement's key and is
  /// built afresh at every run.
  using Plan = std::variant<std::monostate, ShiftPlan, BcastPlan, SlabPlan>;

  struct Slot {
    const compile::CommAction* action = nullptr;
    Plan plan;
  };

  /// Compiled executor state for one PARTI schedule.  Keyed by schedule
  /// identity; `owner` keeps the Schedule alive so the key cannot be
  /// recycled (no ABA) while the entry exists.
  struct SchedEntry {
    parti::SchedulePtr owner;
    std::string array;
    ElemTy ty = ElemTy::kReal;
    char* base = nullptr;
    /// Per peer: byte offsets into storage of push_gidx / place_gidx ids,
    /// byte offsets into the temporary buffer of slot_of slots, and byte
    /// offsets into the value vector of send_pos positions.
    std::vector<std::vector<Index>> push_off;
    std::vector<std::vector<Index>> slot_off;
    std::vector<std::vector<Index>> place_off;
    std::vector<std::vector<Index>> pos_off;
    bool read_ready = false;
    bool write_ready = false;
    bool read_failed = false;
    bool write_failed = false;
  };

  // --- build ---------------------------------------------------------------
  /// `key_names` null: a per-execution build (every slot built, uncached).
  StmtPlan build(const compile::SpmdStmt& s,
                 const std::span<const std::string>* key_names);
  /// Build one action's plan.  `s` may be null for preheader actions
  /// (shifts and broadcasts never consult the statement).
  Plan build_plan(const compile::SpmdStmt* s, const compile::CommAction& a,
                  const compile::RefInfo& ref, bool cached);
  /// Would a plan for `a` bake a value the key `key_names` does not cover?
  bool outside_key(const compile::SpmdStmt& s, const compile::CommAction& a,
                   const compile::RefInfo& ref,
                   std::span<const std::string> key_names) const;
  ShiftPlan build_shift(const compile::CommAction& a,
                        const compile::RefInfo& ref, bool cached);
  BcastPlan build_bcast(const compile::CommAction& a,
                        const compile::RefInfo& ref);
  SlabPlan build_slab(const compile::SpmdStmt& s, const compile::CommAction& a,
                      const compile::RefInfo& ref);
  SchedEntry* sched_entry(const parti::SchedulePtr& sched,
                          const std::string& array, bool write);

  // --- run ------------------------------------------------------------------
  void run_plan(Plan& p);
  void run_shift(ShiftPlan& p);
  void run_bcast(BcastPlan& p);
  void run_slab(SlabPlan& p);
  template <typename T>
  void read_impl(const parti::Schedule& sc, SchedEntry& e, std::vector<T>& out);
  template <typename T, typename Cast>
  void write_impl(const parti::Schedule& sc, SchedEntry& e,
                  std::span<const double> values, Cast cast);
  /// Strided copy through a CopyDesc; `to_buffer` packs storage->buf,
  /// otherwise unpacks buf->storage.
  static void run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                       bool to_buffer, native::KernelFn kernel);
  /// Compile a comm kernel through the process-global NativeCache, or null
  /// when the native backend is off / unavailable / declined the source.
  native::KernelFn kernel(const std::string& source) const;

  Env* env_;
  CommHooks hooks_;
  bool use_native_ = false;
  CommPlanStats stats_;
  std::map<const parti::Schedule*, SchedEntry> scheds_;
  // Index-copy kernels shared by every schedule entry (8-byte elements).
  native::KernelFn gather8_ = nullptr;
  native::KernelFn scatter8_ = nullptr;
  native::KernelFn gather_d2i_ = nullptr;
  bool index_kernels_ready_ = false;
};

}  // namespace f90d::exec
