#include "exec/stmt_cache.hpp"

#include <algorithm>
#include <charconv>

namespace f90d::exec {

namespace {

constexpr size_t idx(StmtCache::Family f) { return static_cast<size_t>(f); }

}  // namespace

bool StmtCache::declined_structurally(Family family, int stmt_id) {
  std::set<int>& local = declines_[idx(family)];
  if (local.count(stmt_id) > 0) return true;
  if (shared_ && shared_->declined_structurally(shared_ns_[idx(family)],
                                                stmt_id)) {
    local.insert(stmt_id);
    ++stats_.shared_hits;
    return true;
  }
  return false;
}

void StmtCache::record_structural_decline(Family f, int stmt_id) {
  declines_[idx(f)].insert(stmt_id);
  if (shared_) shared_->record_structural_decline(shared_ns_[idx(f)], stmt_id);
}

const std::vector<std::string>& StmtCache::key_scalars(
    const compile::SpmdStmt& s, const Env& env, Family family) {
  auto& memo = key_scalars_[idx(family)];
  auto it = memo.find(s.stmt_id);
  if (it != memo.end()) return it->second;
  const std::string& ns = shared_ns_[idx(family)];
  if (shared_) {
    std::vector<std::string> names;
    if (shared_->lookup_key_scalars(ns, s.stmt_id, names)) {
      ++stats_.shared_hits;
      return memo.emplace(s.stmt_id, std::move(names)).first->second;
    }
  }
  auto& names = memo.emplace(s.stmt_id, plan_key_scalars(
                                            s, env, family == Family::kRegular))
                    .first->second;
  if (shared_) shared_->install_key_scalars(ns, s.stmt_id, names);
  return names;
}

StmtCache::Entry& StmtCache::entry(const compile::SpmdStmt& s, const Env& env,
                                   std::span<const std::string> key_names) {
  // Key: "<stmt_id>@<name>=<value>;..." with the values recorded exactly
  // as the planners bake them (as_i everywhere: bounds, strides and
  // subscript terms are integer contexts), so equal keys imply equal plan
  // shapes.  Integers format into a stack buffer — std::to_string would
  // allocate on every call, defeating the scratch-string reuse.
  std::string& key = key_scratch_;
  char buf[24];
  auto append_int = [&](long long v) {
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), v);
    (void)ec;
    key.append(buf, end);
  };
  key.clear();
  append_int(s.stmt_id);
  key.push_back('@');
  for (const std::string& nm : key_names) {
    key.append(nm);
    key.push_back('=');
    append_int(env.scalars.at(nm).as_i());
    key.push_back(';');
  }
  return entry(key);
}

StmtCache::Entry& StmtCache::entry(const std::string& key) {
  auto it = map_.find(key);
  if (it != map_.end()) return it->second;
  return map_.emplace(key, Entry{}).first->second;
}

bool StmtCache::binds(const Entry& e, const std::string& array) {
  auto in = [&](const std::vector<std::string>& arrays) {
    return std::find(arrays.begin(), arrays.end(), array) != arrays.end();
  };
  // The native attachment binds exactly its plan's arrays.
  return (e.regular && e.regular->plan && in(e.regular->plan->arrays)) ||
         (e.irregular && e.irregular->plan &&
          in(e.irregular->plan->core.arrays)) ||
         (e.comm && in(e.comm->arrays));
}

Index StmtCache::run_native(Entry& e, int mode, std::vector<double>* values,
                            std::vector<Index>* ids) {
  const bool regular = e.regular && e.regular->plan;
  const IrregularPlan* irr = regular ? nullptr : e.irregular->plan.get();
  const ExecPlan& plan = regular ? *e.regular->plan : irr->core;
  if (!native::attachable(plan, irr)) return -1;
  if (!e.native) {
    ++stats_.native_attaches;
    e.native = std::make_unique<native::Attachment>(native::attach(plan, irr));
  }
  const Index iters = native::run_attached(*e.native, plan, mode, values, ids);
  ++(iters < 0 ? stats_.native_fallbacks : stats_.native_runs);
  return iters;
}

void StmtCache::invalidate_array(const std::string& array) {
  for (auto it = map_.begin(); it != map_.end();) {
    const Entry& e = it->second;
    if (!binds(e, array)) {
      ++it;
      continue;
    }
    if (e.regular && e.regular->plan) ++stats_.regular.invalidations;
    if (e.irregular && e.irregular->plan) ++stats_.irregular.invalidations;
    if (e.comm) ++stats_.comm_invalidations;
    if (e.native) ++stats_.native_invalidations;
    it = map_.erase(it);
  }
}

void StmtCache::set_shared(SharedPlanMeta* meta, const std::string& prefix) {
  shared_ = meta;
  shared_ns_[idx(Family::kRegular)] = prefix + "|plan";
  shared_ns_[idx(Family::kIrregular)] = prefix + "|irr";
}

}  // namespace f90d::exec
