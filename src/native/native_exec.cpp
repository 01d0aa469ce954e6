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
  at.lp.resize(3 * nv);
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

bool attachable(const ExecPlan& plan) {
  switch (plan.lhs.kind) {
    case RefPlan::Kind::kRealDirect:
    case RefPlan::Kind::kIntDirect:
    case RefPlan::Kind::kLogicalDirect:
      break;
    default:
      return false;
  }
  if (plan.masked_out || plan.loops.empty()) return false;
  for (const exec::PlanLoop& l : plan.loops)
    if (l.count == 0) return false;
  return true;
}

Index run_attached(Attachment& at, const ExecPlan& plan) {
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
  // Slab payload vectors are replaced by every communication action;
  // their data pointers must be re-read at each call.
  for (const auto& [idx, buf] : at.slabs) at.base[idx] = buf->dvals.data();

  at.fn(at.lp.data(), at.lv.data(), at.base.data(), at.rb.data(),
        at.st.data(), at.tb.data(), at.ds.data(), at.is.data(),
        at.ls.data());
  return at.iters;
}

Attachment attach(const ExecPlan& p) {
  Attachment at;
  NativeCache& cache = NativeCache::instance();
  if (!cache.available()) return at;  // fn stays null: permanent fallback
  std::string why;
  std::optional<Lowered> low = lower_plan(p, &why);
  if (!low) return at;
  at.fn = cache.get_or_compile(low->source);
  if (at.fn == nullptr) return at;

  const size_t nr = p.refs.size();
  at.binds = std::move(low->scalars);
  at.ds.assign(static_cast<size_t>(low->n_ds), 0.0);
  at.is.assign(static_cast<size_t>(low->n_is), 0);
  at.ls.assign(static_cast<size_t>(low->n_ls), 0);
  at.base.resize(nr + 1);
  for (size_t r = 0; r <= nr; ++r) {
    const RefPlan& rp = r < nr ? p.refs[r] : p.lhs;
    switch (rp.kind) {
      case RefPlan::Kind::kRealDirect: at.base[r] = rp.dbase; break;
      case RefPlan::Kind::kIntDirect: at.base[r] = rp.ibase; break;
      case RefPlan::Kind::kLogicalDirect: at.base[r] = rp.lbase; break;
      case RefPlan::Kind::kRealSlab:
        at.slabs.emplace_back(r, rp.buf);
        break;
      case RefPlan::Kind::kScalarSlot: break;  // value travels via ds/is/ls
      case RefPlan::Kind::kRealIterBuf:
      case RefPlan::Kind::kIntIterBuf:
      case RefPlan::Kind::kValueBuf:
      case RefPlan::Kind::kNone:
        // Unreachable: the Lowerer declines irregular iteration buffers
        // and non-direct lhs kinds, so such plans never compile, and
        // attach only follows a compile.
        at.base[r] = nullptr;
        break;
    }
  }
  pack(at, p);
  return at;
}

}  // namespace f90d::native
