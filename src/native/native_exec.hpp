#pragma once
// Per-node native execution: attach compiled kernels to cached ExecPlans
// and run them through the parameterized KernelFn ABI.
//
// An Attachment is one part of a statement's StmtCache entry
// (exec/stmt_cache.hpp), made lazily on the first run of the entry's plan
// — a regular plan, or an irregular plan's core together with its PARTI
// metadata: the plan is lowered (native/lower.hpp), compiled or fetched
// from the process-global NativeCache (native/jit.hpp), and the call-time
// argument vectors — loop parameters, strides, offset tables, storage
// pointers, scalar slots — are packed and reused every trip.  A rebind of
// the plan (a parameter changed, exec/exec_plan.hpp) only re-packs the
// loop and offset arguments: the kernel takes them at call time, so it is
// never re-lowered.  The entry owns both the plan and its attachment, so
// they are invalidated together.
//
// One attachment serves every kernel mode of its statement: mode 0 is the
// executor (direct stores, or the concatenation/scatter value and
// destination streams), mode 1 + r the needs enumeration of irregular
// read r (the PARTI inspector).  Section reductions stay on the tape.
//
// run_attached() returns the iteration count exactly as the tape runners
// would (the caller charges simulated cost from it, which is what keeps
// native and interpreted runs at equal simulated times), or -1 when the
// caller must fall back to the tape interpreter: lowering declined, the
// toolchain is unavailable, the compile failed (all memoized in the
// attachment), or a runtime scalar changed kind since the kernel was
// compiled (re-verified every call — bit-identity is never traded for
// speed).  An out-of-range subscript stops the kernel where the tape
// would have stopped, and run_attached raises the tape's RtsError.
#include <vector>

#include "exec/exec_plan.hpp"
#include "native/lower.hpp"

namespace f90d::native {

using rts::Index;

/// A plan's compiled kernel plus its packed call-time arguments.
struct Attachment {
  KernelFn fn = nullptr;  ///< nullptr = this plan permanently falls back
  std::vector<ScalarBind> binds;
  // Packed kernel arguments (see KernelFn in native/lower.hpp).
  std::vector<long long> lp;
  std::vector<const long long*> lv;
  std::vector<void*> base;
  std::vector<long long> rb;
  std::vector<long long> st;
  std::vector<const long long*> tb;
  std::vector<double> ds;
  std::vector<long long> is;
  std::vector<unsigned char> ls;
  /// Slab and gathered-buffer references: base[index] must be re-resolved
  /// from the Buf's current payload every call — communication actions
  /// replace the vector (and therefore the data pointer) between trips.
  struct BufRef {
    size_t index = 0;
    exec::Buf* buf = nullptr;
    bool ints = false;  ///< Buf::ivals (kIntIterBuf), else Buf::dvals
  };
  std::vector<BufRef> bufs;
  std::vector<CheckSite> sites;  ///< range checks, by error-record site
  bool streams = false;  ///< mode 0 fills the value/destination streams
  long long err[2] = {-1, 0};    ///< the kernel's error record
  Index iters = 0;  ///< product of loop counts
  unsigned long long generation = 0;  ///< plan bind the arguments match
};

/// Degenerate plans (guarded out, empty nest, zero-trip level) are cheap
/// on the interpreter and never attach; neither do section reductions,
/// which run on the tape.  `irr` is the irregular plan `plan` is the core
/// of, or null.
[[nodiscard]] bool attachable(const exec::ExecPlan& plan,
                              const exec::IrregularPlan* irr);

/// Lower, compile (or fetch) and pack the kernel of `plan` (with `irr`'s
/// scatter and needs modes when it is an irregular core).  Both must
/// outlive the attachment: the packed arguments point into them.
[[nodiscard]] Attachment attach(const exec::ExecPlan& plan,
                                const exec::IrregularPlan* irr);

/// Run kernel `mode` on `plan`'s current bind (re-packing the loop and
/// offset arguments first when the plan rebound since).  Mode 0 with a
/// buffered lhs overwrites `values`/`ids` (both required) with one entry
/// per iteration; a needs mode appends one id per iteration to `ids`
/// (required).  Returns the executed iteration count (mask-rejected
/// iterations included, like run_exec_plan), or -1 when the caller must
/// use the tape interpreter instead.  Throws the tape's RtsError on an
/// out-of-range subscript.
[[nodiscard]] Index run_attached(Attachment& at, const exec::ExecPlan& plan,
                                 int mode, std::vector<double>* values,
                                 std::vector<Index>* ids);

}  // namespace f90d::native
