#pragma once
// StmtCache: the per-processor statement cache — one compiled artifact per
// (statement × baked runtime scalars), reused across DO trips the way the
// PARTI runtime reuses a schedule.  Regular plans are parametric: their
// key bakes only the scalars that fix the plan's shape, and the plan
// rebinds itself when a parameter changes (exec/exec_plan.hpp), so a
// Gauss statement keeps one entry for every pivot.
//
// An entry holds every part the executor ladder compiles for a statement:
//
//   regular    the ExecPlan build outcome (plan or decline), once tried
//   irregular  the IrregularPlan build outcome, once tried — a statement
//              the regular planner declines may still plan as irregular
//   comm       the compiled pre-communication slots of a regular plan
//   native     the JIT kernel attachment of the entry's plan: the regular
//              plan, or the irregular core with its scatter and needs
//              modes
//
// One key builder serves both planners (each family has its own key-scalar
// list: the regular planner's baked scalars, the irregular planner's every
// scalar), and one invalidate_array drops every entry that binds the
// array in any part — the union of the parts' bound-array lists — so the
// parts can never go stale separately.  Structural
// declines are remembered per statement and per planner family, so
// fallback statements skip key construction for good.
//
// Hit/miss/invalidation counters live in one Stats record that the
// interpreter copies into ProgramResult.
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/comm_plan.hpp"
#include "exec/exec_plan.hpp"
#include "exec/irregular_plan.hpp"
#include "native/native_exec.hpp"

namespace f90d::exec {

class StmtCache {
 public:
  /// The two planners; each has its own structural-decline memo and its
  /// own SharedPlanMeta namespace ("<prefix>|plan", "<prefix>|irr").
  enum class Family { kRegular, kIrregular };

  struct Entry {
    std::optional<PlanEntry> regular;
    std::optional<IrrPlanEntry> irregular;
    std::optional<CommPlans::StmtPlan> comm;
    /// Boxed: many entries (reductions, declines, empty nests) never
    /// attach.
    std::unique_ptr<native::Attachment> native;  ///< binds the plan's arrays
  };

  struct FamilyStats {
    int hits = 0;
    int misses = 0;
    int invalidations = 0;  ///< built plans dropped by invalidate_array
  };

  struct Stats {
    FamilyStats regular;
    FamilyStats irregular;
    long long comm_hits = 0;
    long long comm_misses = 0;
    long long comm_invalidations = 0;
    long long native_runs = 0;
    long long native_attaches = 0;   ///< plans lowered+compiled (or declined)
    long long native_fallbacks = 0;  ///< run_native answered -1 after attach
    long long native_invalidations = 0;
    int shared_hits = 0;  ///< lookups answered by the SharedPlanMeta store
    /// FORALL and reduction executions the ladder sent to the tree walk
    /// (full runs only; skeleton runs never plan).
    long long tree_stmts = 0;
  };

  /// True when `family` declined `stmt_id` for reasons independent of
  /// runtime scalar values.  Consults the attached SharedPlanMeta on a
  /// local miss and pulls hits local.
  [[nodiscard]] bool declined_structurally(Family family, int stmt_id);

  /// Memoized plan_key_scalars(s, env, family == kRegular): the name list
  /// is static per statement; only the formatted values change per call.
  const std::vector<std::string>& key_scalars(const compile::SpmdStmt& s,
                                              const Env& env, Family family);

  /// The entry for `s` at the current values of `key_names` (created
  /// empty on first use).  Warm lookups do not allocate.
  Entry& entry(const compile::SpmdStmt& s, const Env& env,
               std::span<const std::string> key_names);
  /// Same, by an already-built key.
  Entry& entry(const std::string& key);

  /// The entry's regular / irregular build outcome, building it on the
  /// family's first lookup (a miss) and recording structural declines.
  template <typename Build>
  const PlanEntry& regular(int stmt_id, Entry& e, Build&& build) {
    return part(Family::kRegular, stmt_id, e.regular, build);
  }
  template <typename Build>
  const IrrPlanEntry& irregular(int stmt_id, Entry& e, Build&& build) {
    return part(Family::kIrregular, stmt_id, e.irregular, build);
  }

  /// The entry's compiled pre-communication slots, built on first use.
  template <typename Build>
  CommPlans::StmtPlan& comm(Entry& e, Build&& build) {
    if (e.comm) {
      ++stats_.comm_hits;
      return *e.comm;
    }
    ++stats_.comm_misses;
    return e.comm.emplace(build());
  }

  /// One statement execution fell through every compiled rung.
  void note_tree_stmt() { ++stats_.tree_stmts; }

  /// Run kernel `mode` of the entry's (bound) plan — its regular plan, or
  /// else its irregular core — attaching it on first use and re-packing
  /// its arguments after a rebind.  Mode 0 executes (a buffered lhs
  /// refills `values`/`ids`); mode 1 + r appends irregular read r's needs
  /// to `ids`.  Returns the iteration count, or -1 when the caller must
  /// use the tape interpreter instead.  Every kernel run counts in
  /// Stats::native_runs.
  Index run_native(Entry& e, int mode, std::vector<double>* values,
                   std::vector<Index>* ids);

  /// Drop every entry that binds `array`'s storage — all of its parts
  /// together.  Must be called by any operation that may replace the
  /// array's descriptor or storage (redistribution / remapping); see
  /// docs/EXECUTION.md.
  void invalidate_array(const std::string& array);

  /// Attach the cross-run metadata store (service mode).  `prefix`
  /// namespaces this cache's statement ids inside the store (the artifact
  /// hash plus init tag).  Null detaches.
  void set_shared(SharedPlanMeta* meta, const std::string& prefix);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] std::size_t size() const { return map_.size(); }

 private:
  template <typename Outcome, typename Build>
  const Outcome& part(Family f, int stmt_id, std::optional<Outcome>& slot,
                      Build& build) {
    FamilyStats& fs = family_stats(f);
    if (slot) {
      ++fs.hits;
      return *slot;
    }
    ++fs.misses;
    slot.emplace(build());
    if (!slot->plan && slot->structural && stmt_id >= 0)
      record_structural_decline(f, stmt_id);
    return *slot;
  }

  static bool binds(const Entry& e, const std::string& array);
  FamilyStats& family_stats(Family f) {
    return f == Family::kRegular ? stats_.regular : stats_.irregular;
  }
  void record_structural_decline(Family f, int stmt_id);

  std::unordered_map<std::string, Entry> map_;
  std::set<int> declines_[2];  ///< structural declines, by Family
  std::unordered_map<int, std::vector<std::string>> key_scalars_[2];
  std::string key_scratch_;  ///< reused key buffer (warm trips: no alloc)
  SharedPlanMeta* shared_ = nullptr;
  std::string shared_ns_[2];  ///< by Family
  Stats stats_;
};

}  // namespace f90d::exec
