#pragma once
// Plan -> C++ lowering for the native node-program backend.
//
// An ExecPlan already has the compiled *shape* of a FORALL — resolved loop
// nest, strength-reduced flat-offset recurrences, postfix tapes — but the
// tape is still interpreted per element.  lower_plan() turns the plan into
// the source of a real C++ node function: the loop nest becomes `for`
// statements, every offset recurrence becomes a hoisted partial sum, and
// the mask/rhs tapes are expanded into statically-typed straight-line SSA
// temporaries (the postfix order is preserved instruction by instruction,
// so evaluation order — and therefore every floating-point rounding — is
// identical to the tape interpreter's).
//
// The lowered source is deliberately *parameterized*: loop counts, initial
// values, strides, base offsets, storage pointers and runtime scalar values
// arrive as arguments at call time, and only the structure (nest depth,
// stride-vs-table term kinds, the tapes themselves with their constants and
// static value kinds) is baked into the text.  Two processors — or two
// plans of the same statement across DO trips or whole runs — that share a
// structure therefore lower to byte-identical source and share one compiled
// kernel (the NativeCache in native/jit.hpp keys on the source text).
//
// Every buffered plan kind lowers too.  Gathered reads (iteration-order
// buffers the PARTI executor fills) are operands like slabs, their data
// pointers re-read every call; buffered left-hand sides (the replicated-lhs
// concatenation, the PARTI scatter) fill PlanScratch's value and
// destination-id streams; and an irregular plan's needs enumeration (the
// inspector) is a kernel mode of the same translation unit, so one
// statement costs one compiler invocation.  Subscripts the tape checks at
// run time — GlobalIndexer tapes and whole-array element reads (kElem) —
// are range-checked inside the kernel: it stops at the first
// out-of-range subscript in iteration order and reports the check site,
// from which the caller raises the tape's exact RtsError.
//
// Statements whose tape cannot be statically typed (today: MIN/MAX over
// mixed integer/real arguments, whose result kind is data-dependent) are
// declined, as are section reductions; the caller falls back to the plan
// interpreter, which remains bit-identical by construction.
//
// Generated sources include no headers: the math and memcpy calls are the
// __builtin_ forms libstdc++'s std:: overloads resolve to, which keeps a
// kernel compile well under the cost of parsing <cmath>.
#include <optional>
#include <string>
#include <vector>

#include "exec/exec_plan.hpp"
#include "exec/irregular_plan.hpp"

namespace f90d::native {

/// The exported symbol every generated translation unit defines.  One
/// kernel per TU, always under the same name: each shared object is
/// dlopen'd RTLD_LOCAL, so the names never collide.
inline constexpr const char* kKernelSymbol = "f90d_kernel";

/// Generated kernel signature.  Everything that varies per call (or per
/// plan sharing the same structure) is passed through these arrays:
///   lp    3 entries per loop level: count, val0, step; then lp[3*nv] is
///         the mode (0 = executor, 1 + r = needs of irregular read r)
///   lv    per level: enumerated iteration values, or nullptr (baked which)
///   base  per ref (reads in plan order, then the lhs at nr): storage
///         pointer; then base[nr+1] the value stream (double*), base[nr+2]
///         the id stream (long long*), base[nr+3] the error record
///         (long long[2]: check site or -1, offending subscript), and
///         base[nr+4+j] the storage of whole-array element read j
///   rb    per ref: base flat offset at all-counters-zero
///   st    per (ref, level): affine stride contribution
///   tb    per (ref, level): per-counter offset table, or nullptr (baked)
///   ds/is/ls  runtime scalar operand values by static kind
using KernelFn = void (*)(const long long* lp, const long long* const* lv,
                          void* const* base, const long long* rb,
                          const long long* st, const long long* const* tb,
                          const double* ds, const long long* is,
                          const unsigned char* ls);

/// One subscript range check inside a lowered kernel: a subscript of
/// `array` in 0-based dimension `dim` must lie in [lower, lower+extent-1].
struct CheckSite {
  std::string array;
  long long lower = 0;
  long long extent = 0;
  int dim = 0;
};

/// One runtime scalar operand of the lowered kernel: where the wrapper
/// reads the value each call, the static kind the source was compiled
/// against (verified per call — a kind mismatch falls back to the tape),
/// and the ds/is/ls slot it is packed into.
struct ScalarBind {
  const exec::Value* src = nullptr;
  exec::Value::K kind = exec::Value::K::kD;
  int slot = 0;
};

struct Lowered {
  std::string source;               ///< complete translation unit text
  std::vector<ScalarBind> scalars;  ///< call-time scalar packing recipe
  int n_ds = 0;                     ///< slots per kind (array sizes)
  int n_is = 0;
  int n_ls = 0;
  /// Storage of the whole-array element reads, passed at base[nr+4+j].
  std::vector<const void*> elems;
  std::vector<CheckSite> sites;     ///< indexed by the error record
};

/// Lower one plan to a compilable kernel, or decline (reason in *why).
/// `irr` is the irregular plan whose core `p` is (null for regular plans):
/// its scatter indexer and its reads' needs modes lower with it.
[[nodiscard]] std::optional<Lowered> lower_plan(
    const exec::ExecPlan& p, std::string* why,
    const exec::IrregularPlan* irr = nullptr);

// --- communication kernels (exec/comm_plan.hpp) ------------------------------
// Same KernelFn ABI, different argument convention.  Like lower_plan, only
// the structure (loop depth, direction) is baked into the text; counts,
// strides, offsets and tables arrive per call — so every same-shape copy in
// the process shares one compiled kernel.

/// Strided pack/unpack: `levels` outer loops around a contiguous memcpy run.
///   lp      level trip counts            st   level strides (bytes)
///   base[0] array storage                base[1] packed buffer
///   rb[0]   storage byte offset          rb[1]   run length (bytes)
/// `pack` copies storage->buffer; otherwise buffer->storage.
[[nodiscard]] std::string lower_copy_kernel(int levels, bool pack);

/// Indexed gather/scatter of 8-byte elements through a byte-offset table:
///   lp[0]   element count                tb[0] per-element storage offsets
///   base[0] array storage                base[1] packed buffer
/// `gather` copies buffer[k] = storage[off[k]]; otherwise the reverse.
/// `cast_d2i` (gather only) converts each double to long long on the way
/// out — the integer-destination write executor's value conversion.
[[nodiscard]] std::string lower_index_kernel(bool gather, bool cast_d2i);

}  // namespace f90d::native
