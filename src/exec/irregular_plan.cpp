#include "exec/irregular_plan.hpp"

#include "support/diag.hpp"

namespace f90d::exec {

namespace {

/// Flat global element id of one vector-subscripted reference at the
/// current iteration point; mirrors the tree walk's eval_subs +
/// flat_global_of, including the range diagnostic.
Index flat_of(const GlobalIndexer& gi, const std::vector<RefPlan>& refs,
              const Index* varvals, const long long* offs,
              std::vector<Value>& stack) {
  long long flat = 0;
  for (size_t d = 0; d < gi.subs.size(); ++d) {
    const long long sub =
        eval_tape(gi.subs[d], refs, varvals, offs, stack).as_i();
    const long long g = sub - gi.lowers[d];
    if (g < 0 || g >= static_cast<long long>(gi.extents[d]))
      throw subscript_error(sub, gi.array, gi.lowers[d], gi.extents[d],
                            static_cast<int>(d));
    flat += g * gi.gstrides[d];
  }
  return flat;
}

}  // namespace

void run_irregular_needs(const IrregularPlan& p, const IrrRead& read,
                         PlanScratch& scratch, std::vector<Index>& out) {
  for_each_iteration(p.core, scratch,
               [&](const Index* varvals, const long long* offs) {
                 out.push_back(flat_of(read.idx, p.core.refs, varvals, offs,
                                       scratch.stack));
               });
}

Index run_irregular_scatter(const IrregularPlan& p, PlanScratch& scratch) {
  std::vector<double>& values = scratch.values;
  std::vector<Index>& dest_ids = scratch.dest_ids;
  values.clear();
  dest_ids.clear();
  return for_each_iteration(
      p.core, scratch, [&](const Index* varvals, const long long* offs) {
        // Rhs before destination, like the tree walk: an out-of-range
        // destination must not suppress rhs evaluation side ordering.
        const Value v =
            eval_tape(p.core.rhs, p.core.refs, varvals, offs, scratch.stack);
        values.push_back(v.as_d());
        dest_ids.push_back(
            flat_of(p.lhs_idx, p.core.refs, varvals, offs, scratch.stack));
      });
}

}  // namespace f90d::exec
