#pragma once
// Per-node native execution: attach compiled kernels to cached ExecPlans
// and run them through the parameterized KernelFn ABI.
//
// An Attachment is one part of a statement's StmtCache entry
// (exec/stmt_cache.hpp), made lazily on the first run of the entry's plan:
// the plan is lowered (native/lower.hpp), compiled or fetched from the
// process-global NativeCache (native/jit.hpp), and the call-time argument
// vectors — loop parameters, strides, offset tables, storage pointers,
// scalar slots — are packed and reused every trip.  A rebind of the plan
// (a parameter changed, exec/exec_plan.hpp) only re-packs the loop and
// offset arguments: the kernel takes them at call time, so it is never
// re-lowered.  The entry owns both the plan and its attachment, so they
// are invalidated together.
//
// run_attached() returns the iteration count exactly as run_exec_plan()
// would (the caller charges simulated cost from it, which is what keeps
// native and interpreted runs at equal simulated times), or -1 when the
// caller must fall back to the tape interpreter: lowering declined, the
// toolchain is unavailable, the compile failed (all memoized in the
// attachment), or a runtime scalar changed kind since the kernel was
// compiled (re-verified every call — bit-identity is never traded for
// speed).
#include <utility>
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
  /// Slab references: base[index] must be re-resolved from the Buf's
  /// current payload every call — communication actions replace the
  /// vector (and therefore the data pointer) between trips.
  std::vector<std::pair<size_t, exec::Buf*>> slabs;
  Index iters = 0;  ///< product of loop counts
  unsigned long long generation = 0;  ///< plan bind the arguments match
};

/// Degenerate plans (guarded out, empty nest, zero-trip level) are cheap
/// on the interpreter and never attach; neither do section reductions and
/// concatenation-buffered plans, which run on the tape.
[[nodiscard]] bool attachable(const exec::ExecPlan& plan);

/// Lower, compile (or fetch) and pack `plan`'s kernel.  The plan must
/// outlive the attachment: the packed arguments point into it.
[[nodiscard]] Attachment attach(const exec::ExecPlan& plan);

/// Run an attached kernel on `plan`'s current bind (re-packing the loop
/// and offset arguments first when the plan rebound since).  Returns the
/// executed iteration count (mask-rejected iterations included, like
/// run_exec_plan), or -1 when the caller must use the tape interpreter
/// instead.
[[nodiscard]] Index run_attached(Attachment& at, const exec::ExecPlan& plan);

}  // namespace f90d::native
