#include "native/native_exec.hpp"

#include "native/jit.hpp"

namespace f90d::native {

using exec::ExecPlan;
using exec::RefPlan;
using exec::Value;

namespace {

/// The per-bind arguments: loop parameters, base offsets, strides and
/// tables.  Everything else the kernel takes is fixed by the plan's build.
void pack(Attachment& at, const ExecPlan& p) {
  const size_t nv = p.loops.size();
  const size_t nr = p.refs.size();
  at.lp.resize(3 * nv + 1);  // + the mode slot
  at.lv.resize(nv);
  for (size_t k = 0; k < nv; ++k) {
    const exec::PlanLoop& l = p.loops[k];
    at.lp[3 * k] = l.count;
    at.lp[3 * k + 1] = l.val0;
    at.lp[3 * k + 2] = l.step;
    at.lv[k] = l.values.empty() ? nullptr : l.values.data();
  }
  at.rb.resize(nr + 1);
  at.st.assign((nr + 1) * nv, 0);
  at.tb.assign((nr + 1) * nv, nullptr);
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    at.rb[r] = rp.base;
    for (size_t k = 0; k < nv; ++k) {
      const exec::OffsetTerm& t = rp.terms[k];
      if (t.table.empty())
        at.st[r * nv + k] = t.stride;
      else
        at.tb[r * nv + k] = t.table.data();
    }
  }
  at.iters = 1;
  for (const exec::PlanLoop& l : p.loops) at.iters *= l.count;
  at.generation = p.binding.generation;
}

}  // namespace

bool attachable(const ExecPlan& plan, const exec::IrregularPlan* irr) {
  switch (plan.lhs.kind) {
    case RefPlan::Kind::kRealDirect:
    case RefPlan::Kind::kIntDirect:
    case RefPlan::Kind::kLogicalDirect:
    case RefPlan::Kind::kValueBuf:
      break;
    case RefPlan::Kind::kNone:  // a scatter, unless a section reduction
      if (irr != nullptr && irr->lhs_buffered) break;
      return false;
    default:
      return false;
  }
  if (plan.masked_out || plan.loops.empty()) return false;
  for (const exec::PlanLoop& l : plan.loops)
    if (l.count == 0) return false;
  return true;
}

Index run_attached(Attachment& at, const ExecPlan& plan, int mode,
                   std::vector<double>* values, std::vector<Index>* ids) {
  if (at.fn == nullptr) return -1;
  if (at.generation != plan.binding.generation) pack(at, plan);
  // Re-verify every runtime scalar's kind against what the kernel was
  // compiled for; a drifted kind (same slot reused with a different type)
  // silently falls back rather than risking a wrong conversion.
  for (const ScalarBind& b : at.binds) {
    if (b.src->k != b.kind) return -1;
    switch (b.kind) {
      case Value::K::kD: at.ds[static_cast<size_t>(b.slot)] = b.src->d; break;
      case Value::K::kI: at.is[static_cast<size_t>(b.slot)] = b.src->i; break;
      case Value::K::kB:
        at.ls[static_cast<size_t>(b.slot)] = b.src->b ? 1 : 0;
        break;
    }
  }
  // Slab and gathered payload vectors are replaced by every
  // communication action; their data pointers must be re-read each call.
  for (const Attachment::BufRef& r : at.bufs)
    at.base[r.index] = r.ints ? static_cast<void*>(r.buf->ivals.data())
                              : static_cast<void*>(r.buf->dvals.data());
  // Output streams: sized to the iteration count up front (no allocation
  // once warm); needs modes append to what the caller collected so far.
  const size_t out = plan.refs.size() + 1;
  const size_t n = static_cast<size_t>(at.iters);
  at.base[out + 2] = at.err;
  if (mode > 0) {
    const size_t old = ids->size();
    ids->resize(old + n);
    at.base[out + 1] = ids->data() + old;
  } else if (at.streams) {
    values->resize(n);
    ids->resize(n);
    at.base[out] = values->data();
    at.base[out + 1] = ids->data();
  }
  at.lp.back() = mode;
  at.err[0] = -1;
  at.fn(at.lp.data(), at.lv.data(), at.base.data(), at.rb.data(),
        at.st.data(), at.tb.data(), at.ds.data(), at.is.data(),
        at.ls.data());
  if (at.err[0] >= 0) {
    const CheckSite& c = at.sites[static_cast<size_t>(at.err[0])];
    throw exec::subscript_error(at.err[1], c.array, c.lower, c.extent,
                                c.dim);
  }
  return at.iters;
}

Attachment attach(const ExecPlan& p, const exec::IrregularPlan* irr) {
  Attachment at;
  NativeCache& cache = NativeCache::instance();
  if (!cache.available()) return at;  // fn stays null: permanent fallback
  std::string why;
  std::optional<Lowered> low = lower_plan(p, &why, irr);
  if (!low) return at;
  at.fn = cache.get_or_compile(low->source);
  if (at.fn == nullptr) return at;

  const size_t nr = p.refs.size();
  at.binds = std::move(low->scalars);
  at.sites = std::move(low->sites);
  at.streams = p.lhs.kind == RefPlan::Kind::kValueBuf ||
               p.lhs.kind == RefPlan::Kind::kNone;
  at.ds.assign(static_cast<size_t>(low->n_ds), 0.0);
  at.is.assign(static_cast<size_t>(low->n_is), 0);
  at.ls.assign(static_cast<size_t>(low->n_ls), 0);
  // Refs, the lhs, the two output streams and the error record, then the
  // whole-array element storage.
  at.base.assign(nr + 4 + low->elems.size(), nullptr);
  for (size_t j = 0; j < low->elems.size(); ++j)
    at.base[nr + 4 + j] = const_cast<void*>(low->elems[j]);
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    switch (rp.kind) {
      case RefPlan::Kind::kRealDirect: at.base[r] = rp.dbase; break;
      case RefPlan::Kind::kIntDirect: at.base[r] = rp.ibase; break;
      case RefPlan::Kind::kLogicalDirect: at.base[r] = rp.lbase; break;
      case RefPlan::Kind::kRealSlab:
      case RefPlan::Kind::kRealIterBuf:
        at.bufs.push_back({r, rp.buf, false});
        break;
      case RefPlan::Kind::kIntIterBuf:
        at.bufs.push_back({r, rp.buf, true});
        break;
      case RefPlan::Kind::kScalarSlot:  // value travels via ds/is/ls
      case RefPlan::Kind::kValueBuf:    // streams into the outputs
      case RefPlan::Kind::kNone:
        break;
    }
  }
  pack(at, p);
  return at;
}

}  // namespace f90d::native
