#include "exec/comm_plan.hpp"

#include <algorithm>
#include <cstring>
#include <set>

#include "compile/affine.hpp"
#include "exec/exec_plan.hpp"
#include "native/jit.hpp"
#include "rts/remap.hpp"
#include "support/diag.hpp"

namespace f90d::exec {

using ast::Expr;
using ast::ExprKind;
using ast::ExprPtr;
using compile::CommAction;
using compile::CommKind;
using compile::RefInfo;
using compile::SpmdStmt;
using rts::Dad;
using rts::DimMap;
using rts::DistKind;

namespace {

/// Upper bound on copy-descriptor nesting: Fortran rank (7) plus headroom.
/// Lets the interpreted odometer run on a stack array instead of a heap
/// vector, keeping warm communication allocation-free.
constexpr size_t kMaxCopyLevels = 8;

/// Baked storage geometry of one distributed array piece: everything a plan
/// needs to turn (global indices, iteration values) into flat byte offsets.
/// Storage pointers are stable for the whole run (DistArray::data_ is
/// allocated once); invalidate_array covers the redistribute escape hatch.
struct ArrayView {
  char* base = nullptr;
  ElemTy ty = ElemTy::kReal;
  std::size_t elem = 0;
  const Dad* dad = nullptr;
  std::vector<Index> lext;    ///< owned local extents
  std::vector<Index> aext;    ///< allocated extents (owned + overlap)
  std::vector<Index> stride;  ///< row-major element strides over aext
};

template <typename T>
void fill_view(rts::DistArray<T>& a, ArrayView& v) {
  v.base = reinterpret_cast<char*>(a.storage().data());
  v.elem = sizeof(T);
  v.dad = &a.dad();
  const int r = a.rank();
  v.lext.resize(static_cast<size_t>(r));
  v.aext.resize(static_cast<size_t>(r));
  for (int d = 0; d < r; ++d) {
    v.lext[static_cast<size_t>(d)] = a.local_extent(d);
    v.aext[static_cast<size_t>(d)] = a.alloc_extent(d);
  }
  v.stride.assign(static_cast<size_t>(r), 1);
  for (int d = r - 2; d >= 0; --d)
    v.stride[static_cast<size_t>(d)] =
        v.stride[static_cast<size_t>(d + 1)] * v.aext[static_cast<size_t>(d + 1)];
}

bool resolve_view(Env& env, const std::string& name, ArrayView& v) {
  auto sit = env.compiled.sema.symbols.find(name);
  if (sit == env.compiled.sema.symbols.end() || !sit->second.is_array())
    return false;
  if (sit->second.type == ast::BaseType::kReal) {
    auto it = env.dar.find(name);
    if (it == env.dar.end()) return false;
    v.ty = ElemTy::kReal;
    fill_view(it->second, v);
  } else if (sit->second.type == ast::BaseType::kInteger) {
    auto it = env.iar.find(name);
    if (it == env.iar.end()) return false;
    v.ty = ElemTy::kInt;
    fill_view(it->second, v);
  } else {
    auto it = env.lar.find(name);
    if (it == env.lar.end()) return false;
    v.ty = ElemTy::kLogical;
    fill_view(it->second, v);
  }
  return true;
}

/// Can this expression be evaluated once at plan-build time and baked?
/// Every scalar it reads must be covered by the plan key (same value =>
/// same plan), every variable in `bound` is supplied by the table builder,
/// and array-element reads are never bakeable (array contents are not part
/// of the key).  Intrinsic calls parse as kArrayRef of a non-array symbol
/// and recurse like any operator.
bool expr_bakeable(const Expr& e, const Env& env,
                   std::span<const std::string> key_names,
                   const std::set<std::string>& bound) {
  switch (e.kind) {
    case ExprKind::kVarRef: {
      if (bound.count(e.name)) return true;
      if (std::find(key_names.begin(), key_names.end(), e.name) !=
          key_names.end())
        return true;
      auto sit = env.compiled.sema.symbols.find(e.name);
      return sit != env.compiled.sema.symbols.end() &&
             sit->second.is_parameter;  // constants never go stale
    }
    case ExprKind::kArrayRef: {
      auto sit = env.compiled.sema.symbols.find(e.name);
      if (sit != env.compiled.sema.symbols.end() && sit->second.is_array())
        return false;  // element value would go stale without key coverage
      break;
    }
    default:
      break;
  }
  for (const ExprPtr& a : e.args)
    if (a && !expr_bakeable(*a, env, key_names, bound)) return false;
  return true;
}

/// Flat byte offset of global element `g` (0-based, in range) in this
/// processor's storage, owned or in the overlap area.  Mirrors
/// DistArray::at_global_ghost, requires and all: owned cells resolve
/// through mu, BLOCK ghost cells through the block origin.
Index ghost_offset(const ArrayView& v, const std::vector<int>& coords,
                   std::span<const Index> g) {
  const Dad& dad = *v.dad;
  Index off = 0;
  for (int d = 0; d < dad.rank(); ++d) {
    const DimMap& m = dad.dim(d);
    const Index gd = g[static_cast<size_t>(d)];
    Index l = gd;
    if (m.kind != DistKind::kCollapsed) {
      const int c = coords[static_cast<size_t>(m.grid_dim)];
      if (dad.owns(d, gd, c)) {
        l = dad.local_of_global(d, gd);
      } else {
        require(m.kind == DistKind::kBlock && m.align_stride == 1,
                "ghost access needs BLOCK with unit alignment stride");
        require(v.lext[static_cast<size_t>(d)] > 0,
                "ghost access on a non-empty block");
        l = gd - dad.global_of_local(d, 0, c);
      }
    }
    const Index shifted = l + m.overlap_lo;
    require(shifted >= 0 && shifted < v.aext[static_cast<size_t>(d)],
            "local index within allocated extent (incl. overlap)");
    off += shifted * v.stride[static_cast<size_t>(d)];
  }
  return off * static_cast<Index>(v.elem);
}

/// 0-based global index of subscript value `sub` in dimension `d` of
/// `array`, or the out-of-range diagnostic every rung raises.
Index global_sub(const Env& env, const std::string& array, int d, Index sub) {
  const long long lower = env.lower_of(array, d);
  const Index extent = env.dads.at(array).extent(d);
  const Index g = sub - lower;
  if (g < 0 || g >= extent) throw subscript_error(sub, array, lower, extent, d);
  return g;
}

/// One element of REAL, INTEGER or LOGICAL storage as the double the wire
/// carries.
double load_double(ElemTy ty, const char* p) {
  switch (ty) {
    case ElemTy::kReal: {
      double v = 0;
      std::memcpy(&v, p, sizeof(double));
      return v;
    }
    case ElemTy::kInt: {
      long long v = 0;
      std::memcpy(&v, p, sizeof(long long));
      return static_cast<double>(v);
    }
    case ElemTy::kLogical:
      return *reinterpret_cast<const unsigned char*>(p) != 0 ? 1.0 : 0.0;
  }
  return 0;
}

/// Build a strided-copy descriptor over the region [base_l, base_l+count)
/// per dimension (owned-local coordinates; ghost cells allowed).  Levels
/// with a single trip drop out, and innermost levels whose stride equals
/// the accumulated run length coalesce into the contiguous chunk — a fully
/// contiguous region reduces to a single memcpy.
CopyDesc make_desc(const ArrayView& v, std::span<const Index> base_l,
                   std::span<const Index> count) {
  const int r = static_cast<int>(v.lext.size());
  CopyDesc out;
  out.elem = static_cast<Index>(v.elem);
  Index base = 0;
  for (int d = 0; d < r; ++d)
    base += (base_l[static_cast<size_t>(d)] + v.dad->dim(d).overlap_lo) *
            v.stride[static_cast<size_t>(d)];
  out.base = base * out.elem;

  // Innermost-out coalescing in element units, then count==1 elision.
  std::vector<Index> counts(count.begin(), count.end());
  std::vector<Index> strides(v.stride.begin(), v.stride.end());
  Index chunk = 1;  // elements per contiguous run
  int last = r;
  while (last > 0 && strides[static_cast<size_t>(last - 1)] == chunk) {
    chunk *= counts[static_cast<size_t>(last - 1)];
    --last;
  }
  out.chunk = chunk * out.elem;
  out.runs = 1;
  for (int d = 0; d < last; ++d) {
    const Index n = counts[static_cast<size_t>(d)];
    out.runs *= n;
    if (n == 1) continue;  // zero-range loop level: fold into the base
    out.counts.push_back(n);
    out.strides.push_back(strides[static_cast<size_t>(d)] * out.elem);
  }
  if (chunk == 0) out.runs = 0;
  out.total = out.runs * out.chunk;
  return out;
}

void call_copy_kernel(native::KernelFn f, const CopyDesc& d, char* storage,
                      std::byte* buf) {
  void* const bases[2] = {storage, buf};
  const long long rb[2] = {d.base, d.chunk};
  f(d.counts.data(), nullptr, bases, rb, d.strides.data(), nullptr, nullptr,
    nullptr, nullptr);
}

void call_index_kernel(native::KernelFn f, Index n, void* storage, void* buf,
                       const Index* tab) {
  const long long lp[1] = {n};
  void* const bases[2] = {storage, buf};
  const long long* const tbs[1] = {tab};
  f(lp, nullptr, bases, nullptr, nullptr, tbs, nullptr, nullptr, nullptr);
}

}  // namespace

native::KernelFn CommPlans::kernel(const std::string& source) const {
  if (!use_native_) return nullptr;
  native::NativeCache& cache = native::NativeCache::instance();
  if (!cache.available()) return nullptr;
  return cache.get_or_compile(source);
}

void CommPlans::run_copy(const CopyDesc& d, char* storage, std::byte* buf,
                         bool to_buffer, native::KernelFn k) {
  if (d.runs <= 0 || d.chunk <= 0) return;
  if (k != nullptr) {
    call_copy_kernel(k, d, storage, buf);
    return;
  }
  // Interpreted odometer: one memcpy per contiguous run.
  const size_t levels = d.counts.size();
  if (levels == 0) {
    if (to_buffer)
      std::memcpy(buf, storage + d.base, static_cast<size_t>(d.chunk));
    else
      std::memcpy(storage + d.base, buf, static_cast<size_t>(d.chunk));
    return;
  }
  // Fixed-size odometer: rank is bounded, and the warm path must stay
  // allocation-free (the alloc-regression test counts every operator new).
  require(levels <= kMaxCopyLevels, "copy descriptor rank in range");
  Index c[kMaxCopyLevels] = {};
  std::byte* b = buf;
  for (;;) {
    Index off = d.base;
    for (size_t k2 = 0; k2 < levels; ++k2) off += c[k2] * d.strides[k2];
    if (to_buffer)
      std::memcpy(b, storage + off, static_cast<size_t>(d.chunk));
    else
      std::memcpy(storage + off, b, static_cast<size_t>(d.chunk));
    b += d.chunk;
    size_t k2 = levels;
    while (k2 > 0) {
      --k2;
      if (++c[k2] < d.counts[k2]) break;
      c[k2] = 0;
      if (k2 == 0) return;
    }
  }
}

// --- overlap shift -----------------------------------------------------------

CommPlans::ShiftPlan CommPlans::build_shift(const CommAction& a,
                                            const RefInfo& ref, bool cached) {
  ShiftPlan out;
  out.cached = cached;
  ArrayView v;
  require(resolve_view(*env_, ref.array, v), "shifted array is allocated");
  const Dad& dad = *v.dad;
  const int d = a.array_dim;
  const int amount = static_cast<int>(a.shift_amount);
  const DimMap& m = dad.dim(d);
  if (m.kind == DistKind::kCollapsed || amount == 0) {
    out.noop = true;  // the primitive returns before taking a tag
    return out;
  }
  // rts::overlap_shift's preconditions, with its diagnostics.
  require(m.kind == DistKind::kBlock, "overlap_shift needs BLOCK dimension");
  const int c = amount > 0 ? amount : -amount;
  require(c <= (amount > 0 ? m.overlap_hi : m.overlap_lo),
          "overlap_shift amount within declared overlap width");

  out.grid_dim = m.grid_dim;
  out.offset = amount > 0 ? -1 : +1;
  out.base = v.base;
  out.elem = v.elem;

  const int r = static_cast<int>(v.lext.size());
  const Index lext = v.lext[static_cast<size_t>(d)];
  const Index slab_lo = amount > 0 ? 0 : std::max<Index>(lext - c, 0);
  const Index slab_hi = amount > 0 ? std::min<Index>(c, lext) : lext;
  Index local_size = 1;
  for (Index e : v.lext) local_size *= e;

  std::vector<Index> base_l(static_cast<size_t>(r), 0);
  std::vector<Index> count(v.lext.begin(), v.lext.end());
  if (slab_lo < slab_hi && local_size > 0) {
    base_l[static_cast<size_t>(d)] = slab_lo;
    count[static_cast<size_t>(d)] = slab_hi - slab_lo;
    out.pack = make_desc(v, base_l, count);
  }  // else: empty slab, still exchanged (pack stays zero-run)

  const Index ghost_lo = amount > 0 ? lext : -static_cast<Index>(c);
  base_l.assign(static_cast<size_t>(r), 0);
  count.assign(v.lext.begin(), v.lext.end());
  base_l[static_cast<size_t>(d)] = ghost_lo;
  count[static_cast<size_t>(d)] = c;
  out.unpack = make_desc(v, base_l, count);

  const comm::GridComm& gc = env_->gc;
  const int n = gc.grid().extent(out.grid_dim);
  const int src = gc.coord(out.grid_dim) - out.offset;
  out.expect_recv = n > 1 && src >= 0 && src < n;

  if (cached) {
    out.pack_kernel = kernel(native::lower_copy_kernel(
        static_cast<int>(out.pack.counts.size()), /*pack=*/true));
    out.unpack_kernel = kernel(native::lower_copy_kernel(
        static_cast<int>(out.unpack.counts.size()), /*pack=*/false));
  }
  return out;
}

void CommPlans::run_shift(ShiftPlan& p) {
  if (p.noop) return;
  comm::GridComm& gc = env_->gc;
  machine::Proc& proc = gc.proc();
  auto count_fast = [&](const CopyDesc& d) {
    if (p.cached && d.runs > 0 && d.chunk > d.elem)
      stats_.bytes_memcpy_fast_path += d.total;
  };
  std::vector<std::byte> received;
  if (p.cached) {
    std::vector<std::byte> payload =
        proc.acquire_payload(static_cast<size_t>(p.pack.total));
    count_fast(p.pack);
    run_copy(p.pack, p.base, payload.data(), /*to_buffer=*/true,
             p.pack_kernel);
    received = gc.shift_exchange_bytes(p.grid_dim, p.offset,
                                       std::move(payload), /*circular=*/false);
  } else {
    std::vector<std::byte> slab(static_cast<size_t>(p.pack.total));
    run_copy(p.pack, p.base, slab.data(), /*to_buffer=*/true, nullptr);
    received = gc.shift_exchange<std::byte>(
        p.grid_dim, p.offset, std::span<const std::byte>(slab),
        /*circular=*/false);
  }
  if (!received.empty()) {
    require(static_cast<Index>(received.size()) >= p.unpack.total,
            "overlap_shift: slab size matches ghost");
    count_fast(p.unpack);
    run_copy(p.unpack, p.base, received.data(), /*to_buffer=*/false,
             p.unpack_kernel);
  }
  // The incoming buffer was acquired from the *sender's* pool and migrated
  // here on the message; it joins this processor's pool.  Edge processors
  // that received nothing hold a default vector — pooling that would stack
  // useless zero-capacity entries.
  if (p.cached && p.expect_recv) proc.release_payload(std::move(received));
}

// --- element broadcast -------------------------------------------------------

CommPlans::BcastPlan CommPlans::build_bcast(const CommAction& a,
                                            const RefInfo& ref) {
  BcastPlan out;
  ArrayView v;
  require(resolve_view(*env_, ref.array, v), "broadcast array is allocated");
  const Dad& dad = *v.dad;
  std::vector<Index> g(ref.expr->args.size());
  for (size_t d = 0; d < g.size(); ++d)
    g[d] = global_sub(*env_, ref.array, static_cast<int>(d),
                      hooks_.eval(*ref.expr->args[d]).as_i());
  const std::vector<int> zeros(
      static_cast<size_t>(env_->compiled.mapping.grid.ndims()), 0);
  out.root = dad.owner_logical(g, zeros);
  out.is_root = env_->gc.my_logical() == out.root;
  out.ty = v.ty;
  out.buffer_id = a.buffer_id;
  if (out.is_root) {
    out.base = v.base;
    out.byte_off = ghost_offset(v, env_->gc.my_coords(), g);
  }
  out.scratch.reserve(1);
  return out;
}

void CommPlans::run_bcast(BcastPlan& p) {
  std::vector<double>& data = p.scratch;
  data.clear();
  if (p.is_root) data.push_back(load_double(p.ty, p.base + p.byte_off));
  env_->gc.bcast_all(p.root, data);
  Buf& b = env_->bufs[static_cast<size_t>(p.buffer_id)];
  b.scalar = p.ty == ElemTy::kInt
                 ? Value::integer(static_cast<long long>(data.at(0)))
                 : Value::real(data.at(0));
}

// --- slab multicast / transfer ----------------------------------------------

CommPlans::SlabPlan CommPlans::build_slab(const SpmdStmt& s,
                                          const CommAction& a,
                                          const RefInfo& ref) {
  SlabPlan out;
  ArrayView v;
  require(resolve_view(*env_, ref.array, v), "slab array is allocated");
  const Dad& dad = *v.dad;
  const comm::GridComm& gc = env_->gc;

  bool on_root = true;
  for (const auto& [d, sub] : a.root_subs) {
    const Index val = global_sub(
        *env_, ref.array, d,
        hooks_.eval(*compile::affine_to_expr(sub)).as_i());
    const int owner = dad.owner_coord(d, val);
    const int gd = dad.dim(d).grid_dim;
    out.comm_dims.emplace_back(gd, owner);
    on_root = on_root && gc.coord(gd) == owner;
  }
  out.is_transfer = a.kind == CommKind::kTransfer;
  out.ty = v.ty;
  out.base = v.base;
  out.buffer_id = a.buffer_id;

  if (out.is_transfer) {
    // Transfer: source line -> destination line given by the lhs pair.
    const std::string& lhs = s.refs[0].array;
    for (size_t k = 0; k < out.comm_dims.size(); ++k) {
      int dest = out.comm_dims[k].second;
      if (k < a.dest_subs.size()) {
        const auto& [ld, dsub] = a.dest_subs[k];
        const Index dval = global_sub(
            *env_, lhs, ld, hooks_.eval(*compile::affine_to_expr(dsub)).as_i());
        dest = env_->dads.at(lhs).owner_coord(ld, dval);
      }
      out.dest_coords.push_back(dest);
    }
  }

  // The slab covers the iterating ranges of the slab variables; those
  // ranges are identical on the source line and the destination(s).
  const std::vector<CommRange> all = hooks_.ranges(s);
  std::vector<const CommRange*> ranges;
  for (const std::string& vn : ref.slab_vars)
    for (size_t k = 0; k < s.indices.size(); ++k)
      if (s.indices[k].var == vn) ranges.push_back(&all[k]);
  require(ranges.size() == ref.slab_vars.size(),
          "slab variables are forall indices");
  Index slab_size = 1;
  for (const CommRange* r : ranges) slab_size *= r->count;
  if (!on_root || slab_size <= 0) return out;

  // One byte offset per element: a subscript may combine several slab
  // variables (I+J in a collapsed dimension), so the table is taken over
  // the whole slab rather than per variable.
  const size_t nv = ranges.size();
  std::vector<Index> c(nv, 0), vals(nv);
  std::vector<Index> g(ref.expr->args.size());
  out.offs.reserve(static_cast<size_t>(slab_size));
  for (Index k = 0; k < slab_size; ++k) {
    for (size_t j = 0; j < nv; ++j) vals[j] = ranges[j]->value_at(c[j]);
    for (size_t d = 0; d < g.size(); ++d)
      g[d] = global_sub(
          *env_, ref.array, static_cast<int>(d),
          hooks_.eval_bound(*ref.expr->args[d], ref.slab_vars, vals).as_i());
    out.offs.push_back(ghost_offset(v, gc.my_coords(), g));
    for (size_t j = nv; j-- > 0;) {  // odometer, last variable fastest
      if (++c[j] < ranges[j]->count) break;
      c[j] = 0;
    }
  }
  return out;
}

void CommPlans::run_slab(SlabPlan& p) {
  Buf& b = env_->bufs[static_cast<size_t>(p.buffer_id)];
  std::vector<double>& slab = b.dvals;
  slab.resize(p.offs.size());
  for (size_t k = 0; k < p.offs.size(); ++k)
    slab[k] = load_double(p.ty, p.base + p.offs[k]);
  comm::GridComm& gc = env_->gc;
  if (!p.is_transfer) {
    for (const auto& [gd, owner] : p.comm_dims) gc.multicast(gd, owner, slab);
  } else {
    for (size_t k = 0; k < p.comm_dims.size(); ++k) {
      const auto& [gd, owner] = p.comm_dims[k];
      p.scratch.clear();
      const bool received = gc.transfer(
          gd, owner, p.dest_coords[k], std::span<const double>(slab),
          p.scratch);
      if (received)
        slab.swap(p.scratch);
      else if (gc.coord(gd) != owner)
        slab.clear();
    }
  }
}

// --- statement orchestration -------------------------------------------------

bool CommPlans::outside_key(const SpmdStmt& s, const CommAction& a,
                            const RefInfo& ref,
                            std::span<const std::string> key_names) const {
  const std::set<std::string> none;
  auto baked = [&](const Expr& e, const std::set<std::string>& bound) {
    return expr_bakeable(e, *env_, key_names, bound);
  };
  switch (a.kind) {
    case CommKind::kBcastElement:
      for (const ExprPtr& e : ref.expr->args)
        if (!baked(*e, none)) return true;
      return false;
    case CommKind::kMulticast:
    case CommKind::kTransfer: {
      for (const auto& [d, sub] : a.root_subs)
        if (!baked(*compile::affine_to_expr(sub), none)) return true;
      for (const auto& [d, sub] : a.dest_subs)
        if (!baked(*compile::affine_to_expr(sub), none)) return true;
      // The slab variables' bounds fix the slab's size and offsets: a
      // parametric plan's key leaves out bound scalars it re-reads at bind
      // time.
      for (const compile::IndexPartition& ip : s.indices) {
        if (std::find(ref.slab_vars.begin(), ref.slab_vars.end(), ip.var) ==
            ref.slab_vars.end())
          continue;
        for (const ExprPtr* e : {&ip.lo, &ip.hi, &ip.st})
          if (*e && !baked(**e, none)) return true;
      }
      const std::set<std::string> svars(ref.slab_vars.begin(),
                                        ref.slab_vars.end());
      for (const ExprPtr& e : ref.expr->args)
        if (!baked(*e, svars)) return true;
      return false;
    }
    default:
      return false;  // a shift bakes only storage geometry
  }
}

CommPlans::Plan CommPlans::build_plan(const SpmdStmt* s, const CommAction& a,
                                      const RefInfo& ref, bool cached) {
  switch (a.kind) {
    case CommKind::kOverlapShift:
      return build_shift(a, ref, cached);
    case CommKind::kBcastElement:
      return build_bcast(a, ref);
    case CommKind::kMulticast:
    case CommKind::kTransfer:
      require(s != nullptr, "slab action belongs to a statement");
      return build_slab(*s, a, ref);
    default:
      throw RtsError("unexpected pre-action");
  }
}

CommPlans::StmtPlan CommPlans::build_stmt(
    const SpmdStmt& s, std::span<const std::string> key_names) {
  return build(s, &key_names);
}

CommPlans::StmtPlan CommPlans::build_once(const SpmdStmt& s) {
  return build(s, nullptr);
}

CommPlans::StmtPlan CommPlans::build(
    const SpmdStmt& s, const std::span<const std::string>* key_names) {
  std::vector<const CommAction*> order;
  for (const CommAction& a : s.pre)
    if (!a.eliminated) order.push_back(&a);
  std::stable_sort(order.begin(), order.end(),
                   [](const CommAction* x, const CommAction* y) {
                     const bool rx = compile::is_schedule_read(x->kind);
                     const bool ry = compile::is_schedule_read(y->kind);
                     if (rx != ry) return ry;
                     return x->ref_id > y->ref_id;
                   });
  const bool cached = key_names != nullptr;
  StmtPlan plan;
  std::set<std::string> arrays;
  for (const CommAction* a : order) {
    if (compile::is_schedule_read(a->kind)) {
      plan.reads.push_back(a);
      continue;
    }
    const RefInfo& ref = s.refs[static_cast<size_t>(a->ref_id)];
    Slot slot;
    slot.action = a;
    if (!cached || !outside_key(s, *a, ref, *key_names)) {
      slot.plan = build_plan(&s, *a, ref, cached);
      if (cached) {
        arrays.insert(ref.array);
        if (a->kind == CommKind::kTransfer)
          arrays.insert(s.refs[0].array);  // dest coords bake the lhs DAD
      }
    }
    plan.slots.push_back(std::move(slot));
  }
  plan.arrays.assign(arrays.begin(), arrays.end());
  return plan;
}

void CommPlans::run_pre(const SpmdStmt& s, StmtPlan& plan) {
  for (Slot& slot : plan.slots) {
    if (std::holds_alternative<std::monostate>(slot.plan)) {
      const CommAction& a = *slot.action;
      Plan fresh =
          build_plan(&s, a, s.refs[static_cast<size_t>(a.ref_id)], false);
      run_plan(fresh);
    } else {
      run_plan(slot.plan);
    }
  }
}

void CommPlans::run_hoisted(const compile::PreheaderAction& pa) {
  Plan p = build_plan(nullptr, pa.action, pa.ref, false);
  run_plan(p);
}

void CommPlans::run_plan(Plan& p) {
  if (auto* shift = std::get_if<ShiftPlan>(&p))
    run_shift(*shift);
  else if (auto* bcast = std::get_if<BcastPlan>(&p))
    run_bcast(*bcast);
  else if (auto* slab = std::get_if<SlabPlan>(&p))
    run_slab(*slab);
}

// --- PARTI executors ---------------------------------------------------------

CommPlans::SchedEntry* CommPlans::sched_entry(const parti::SchedulePtr& sched,
                                              const std::string& array,
                                              bool write) {
  auto it = scheds_.find(sched.get());
  if (it != scheds_.end() && it->second.array != array) {
    scheds_.erase(it);
    it = scheds_.end();
  }
  if (it == scheds_.end()) {
    SchedEntry e;
    e.owner = sched;
    e.array = array;
    ArrayView v;
    if (!resolve_view(*env_, array, v)) return nullptr;
    if (v.ty == ElemTy::kLogical) return nullptr;
    e.ty = v.ty;
    e.base = v.base;
    it = scheds_.emplace(sched.get(), std::move(e)).first;
  }
  SchedEntry& e = it->second;

  if (!index_kernels_ready_) {
    index_kernels_ready_ = true;
    gather8_ = kernel(native::lower_index_kernel(/*gather=*/true, false));
    scatter8_ = kernel(native::lower_index_kernel(/*gather=*/false, false));
    gather_d2i_ = kernel(native::lower_index_kernel(/*gather=*/true, true));
  }

  const bool ready = write ? e.write_ready : e.read_ready;
  const bool failed = write ? e.write_failed : e.read_failed;
  if (failed) return nullptr;
  if (ready) {
    ++stats_.hits;
    return &e;
  }

  // Resolve the per-peer global-id lists to flat byte offsets once.  A
  // failure here is exactly a failure the generic executor would hit too
  // (unowned id, out-of-range local) — decline and let it raise.
  ArrayView v;
  if (!resolve_view(*env_, array, v)) return nullptr;
  const Dad& dad = *v.dad;
  auto storage_offsets = [&](const std::vector<std::vector<Index>>& gidx,
                             std::vector<std::vector<Index>>& out) -> bool {
    out.assign(gidx.size(), {});
    std::vector<Index> g;
    for (size_t q = 0; q < gidx.size(); ++q) {
      out[q].reserve(gidx[q].size());
      for (Index flat : gidx[q]) {
        rts::unflatten_global(dad, flat, g);
        Index off = 0;
        for (int d = 0; d < dad.rank(); ++d) {
          const Index l = dad.local_of_global(d, g[static_cast<size_t>(d)]);
          const Index shifted = l + dad.dim(d).overlap_lo;
          if (shifted < 0 || shifted >= v.aext[static_cast<size_t>(d)])
            return false;
          off += shifted * v.stride[static_cast<size_t>(d)];
        }
        out[q].push_back(off * static_cast<Index>(v.elem));
      }
    }
    return true;
  };

  bool ok;
  try {
    if (!write) {
      ok = storage_offsets(sched->push_gidx, e.push_off);
      if (ok) {
        e.slot_off.assign(sched->slot_of.size(), {});
        for (size_t q = 0; q < sched->slot_of.size(); ++q) {
          e.slot_off[q].reserve(sched->slot_of[q].size());
          for (Index slot : sched->slot_of[q])
            e.slot_off[q].push_back(slot * 8);
        }
      }
    } else {
      ok = storage_offsets(sched->place_gidx, e.place_off);
      if (ok) {
        e.pos_off.assign(sched->send_pos.size(), {});
        for (size_t q = 0; q < sched->send_pos.size(); ++q) {
          e.pos_off[q].reserve(sched->send_pos[q].size());
          for (Index pos : sched->send_pos[q]) e.pos_off[q].push_back(pos * 8);
        }
      }
    }
  } catch (const Error&) {
    ok = false;  // the generic executor raises the original diagnostic
  }
  if (!ok) {
    (write ? e.write_failed : e.read_failed) = true;
    return nullptr;
  }
  (write ? e.write_ready : e.read_ready) = true;
  ++stats_.misses;
  return &e;
}

template <typename T>
void CommPlans::read_impl(const parti::Schedule& sc, SchedEntry& e,
                          std::vector<T>& out) {
  comm::GridComm& gc = env_->gc;
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sc.nprocs == p, "schedule built for this machine size");
  out.assign(static_cast<size_t>(sc.tmp_size), T{});
  char* outb = reinterpret_cast<char*>(out.data());

  {  // local traffic: elements I both own and need
    const auto& ids = e.push_off[static_cast<size_t>(me)];
    const auto& slots = e.slot_off[static_cast<size_t>(me)];
    require(ids.size() == slots.size(), "self push/slot lists conform");
    for (size_t j = 0; j < ids.size(); ++j)
      std::memcpy(outb + slots[j], e.base + ids[j], sizeof(T));
    proc.charge_copy(static_cast<double>(ids.size() * sizeof(T)));
  }

  constexpr int kTag = 8101;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& offs = e.push_off[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(offs.size() * sizeof(T));
    if (gather8_ != nullptr) {
      call_index_kernel(gather8_, static_cast<Index>(offs.size()), e.base,
                        payload.data(), offs.data());
    } else {
      for (size_t j = 0; j < offs.size(); ++j)
        std::memcpy(payload.data() + j * sizeof(T), e.base + offs[j],
                    sizeof(T));
    }
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& slots = e.slot_off[static_cast<size_t>(from)];
    require(m.payload.size() == slots.size() * sizeof(T),
            "gather payload matches schedule");
    if (scatter8_ != nullptr) {
      call_index_kernel(scatter8_, static_cast<Index>(slots.size()), outb,
                        m.payload.data(), slots.data());
    } else {
      for (size_t j = 0; j < slots.size(); ++j)
        std::memcpy(outb + slots[j], m.payload.data() + j * sizeof(T),
                    sizeof(T));
    }
    proc.release_payload(std::move(m.payload));
  }
}

template <typename T, typename Cast>
void CommPlans::write_impl(const parti::Schedule& sc, SchedEntry& e,
                           std::span<const double> values, Cast cast) {
  comm::GridComm& gc = env_->gc;
  machine::Proc& proc = gc.proc();
  const int p = gc.nprocs();
  const int me = gc.my_logical();
  require(sc.nprocs == p, "schedule built for this machine size");
  const char* valb = reinterpret_cast<const char*>(values.data());
  const bool casting = !std::is_same_v<T, double>;
  const native::KernelFn pack_kernel = casting ? gather_d2i_ : gather8_;

  {  // self traffic
    const auto& pos = sc.send_pos[static_cast<size_t>(me)];
    const auto& ids = e.place_off[static_cast<size_t>(me)];
    require(pos.size() == ids.size(), "self pos/place lists conform");
    for (size_t j = 0; j < pos.size(); ++j) {
      const T v = cast(values[static_cast<size_t>(pos[j])]);
      std::memcpy(e.base + ids[j], &v, sizeof(T));
    }
    proc.charge_copy(static_cast<double>(pos.size() * sizeof(T)));
  }

  constexpr int kTag = 8201;
  for (int step = 1; step < p; ++step) {
    const int to = (me + step) % p;
    const auto& poff = e.pos_off[static_cast<size_t>(to)];
    std::vector<std::byte> payload =
        proc.acquire_payload(poff.size() * sizeof(T));
    if (pack_kernel != nullptr) {
      call_index_kernel(pack_kernel, static_cast<Index>(poff.size()),
                        const_cast<char*>(valb), payload.data(), poff.data());
    } else {
      for (size_t j = 0; j < poff.size(); ++j) {
        double dv;
        std::memcpy(&dv, valb + poff[j], sizeof(double));
        const T v = cast(dv);
        std::memcpy(payload.data() + j * sizeof(T), &v, sizeof(T));
      }
    }
    gc.send_payload_logical(to, kTag + step, std::move(payload));
  }
  for (int step = 1; step < p; ++step) {
    const int from = (me - step % p + p) % p;
    machine::Message m = gc.recv_message_logical(from, kTag + step);
    const auto& ids = e.place_off[static_cast<size_t>(from)];
    require(m.payload.size() == ids.size() * sizeof(T),
            "scatter payload matches schedule");
    if (scatter8_ != nullptr) {
      call_index_kernel(scatter8_, static_cast<Index>(ids.size()), e.base,
                        m.payload.data(), ids.data());
    } else {
      for (size_t j = 0; j < ids.size(); ++j)
        std::memcpy(e.base + ids[j], m.payload.data() + j * sizeof(T),
                    sizeof(T));
    }
    proc.release_payload(std::move(m.payload));
  }
}

bool CommPlans::execute_read(const parti::SchedulePtr& sched,
                             const std::string& array, Buf& b) {
  SchedEntry* e = sched_entry(sched, array, /*write=*/false);
  if (e == nullptr) return false;
  if (e->ty == ElemTy::kInt)
    read_impl<long long>(*sched, *e, b.ivals);
  else
    read_impl<double>(*sched, *e, b.dvals);
  return true;
}

bool CommPlans::execute_write(const parti::SchedulePtr& sched,
                              const std::string& array,
                              std::span<const double> values) {
  SchedEntry* e = sched_entry(sched, array, /*write=*/true);
  if (e == nullptr) return false;
  if (e->ty == ElemTy::kInt)
    write_impl<long long>(*sched, *e, values,
                          [](double v) { return static_cast<long long>(v); });
  else
    write_impl<double>(*sched, *e, values, [](double v) { return v; });
  return true;
}

// --- invalidation ------------------------------------------------------------

void CommPlans::invalidate_array(const std::string& name) {
  for (auto it = scheds_.begin(); it != scheds_.end();) {
    if (it->second.array == name) {
      ++stats_.invalidations;
      it = scheds_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace f90d::exec
