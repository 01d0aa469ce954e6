// The program-level communication optimizer (src/compile/comm_opt.cpp):
// liveness kill-sets for cross-statement redundancy elimination, hoist
// legality for loop-invariant communication, message coalescing, and the
// differential property that every pass combination produces identical
// results with monotonically non-increasing message counts.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace f90d {
namespace {

using compile::CodegenOptions;
using compile::CommAction;
using compile::CommKind;
using compile::Compiled;
using compile::SpmdKind;
using compile::SpmdStmt;
using compile::compile_source;

std::string prelude_1d() {
  return R"(PROGRAM EX
      INTEGER N
      PARAMETER (N = 32)
      REAL A(N)
      REAL B(N)
      REAL D(N)
      REAL X
      REAL Y
      REAL Z
      INTEGER M
      INTEGER IT
      INTEGER JT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN D(I) WITH T(I)
)";
}

Compiled compile_body(const std::string& body,
                      const CodegenOptions& opt = {}) {
  return compile_source(prelude_1d() + body + "      END PROGRAM EX\n", {},
                        opt);
}

int histogram(const Compiled& c, const std::string& key) {
  auto it = c.program.action_histogram.find(key);
  return it == c.program.action_histogram.end() ? 0 : it->second;
}

/// Count live (non-eliminated) actions of a kind across the whole program,
/// preheaders included.
int count_live(const compile::SpmdProgram& p, CommKind k) {
  int live = 0;
  std::function<void(const std::vector<compile::SpmdStmtPtr>&)> walk =
      [&](const std::vector<compile::SpmdStmtPtr>& body) {
        for (const auto& s : body) {
          for (const CommAction& a : s->pre)
            live += (a.kind == k && !a.eliminated);
          for (const CommAction& a : s->post)
            live += (a.kind == k && !a.eliminated);
          for (const compile::PreheaderAction& pa : s->preheader)
            live += (pa.action.kind == k && !pa.action.eliminated);
          walk(s->body);
          walk(s->else_body);
        }
      };
  walk(p.body);
  return live;
}

const SpmdStmt& stmt(const Compiled& c, size_t i) { return *c.program.body[i]; }

// --- cross-statement redundancy elimination (liveness kill sets) -------------

TEST(CrossStmtElim, IdenticalShiftEliminated) {
  auto c = compile_body(
      "      FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "      FORALL (I = 1:N-1) D(I) = B(I+1)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 1);
  EXPECT_EQ(histogram(c, "overlap_shift"), 1);
  EXPECT_EQ(histogram(c, "overlap_shift(eliminated)"), 1);
  EXPECT_NE(c.listing.find("eliminated overlap_shift of B"),
            std::string::npos);
}

TEST(CrossStmtElim, InterveningWriteKills) {
  auto c = compile_body(
      "      FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "      FORALL (I = 1:N) B(I) = A(I)\n"
      "      FORALL (I = 1:N-1) D(I) = B(I+1)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 2);
  EXPECT_EQ(histogram(c, "overlap_shift(eliminated)"), 0);
}

TEST(CrossStmtElim, IdenticalBroadcastRewiredToProviderBuffer) {
  auto c = compile_body(
      "      X = B(3)\n"
      "      Y = B(3)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kBcastElement), 1);
  EXPECT_EQ(histogram(c, "broadcast(eliminated)"), 1);
  // The eliminated consumer reads the provider's scalar slot.
  const SpmdStmt& provider = stmt(c, 0);
  const SpmdStmt& consumer = stmt(c, 1);
  ASSERT_FALSE(provider.pre.empty());
  ASSERT_FALSE(consumer.pre.empty());
  EXPECT_TRUE(consumer.pre[0].eliminated);
  EXPECT_EQ(consumer.refs[0].buffer_id, provider.pre[0].buffer_id);
}

TEST(CrossStmtElim, ScalarSubscriptRedefinitionKills) {
  auto c = compile_body(
      "      X = B(M)\n"
      "      M = M + 1\n"
      "      Y = B(M)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kBcastElement), 2);
}

TEST(CrossStmtElim, SurvivesIfWhenNeitherBranchKills) {
  auto c = compile_body(
      "      X = B(3)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        Y = B(3)\n"
      "      END IF\n"
      "      Z = B(3)\n");
  // Both the branch read and the post-branch read reuse the first bcast.
  EXPECT_EQ(count_live(c.program, CommKind::kBcastElement), 1);
  EXPECT_EQ(histogram(c, "broadcast(eliminated)"), 2);
}

TEST(CrossStmtElim, BranchKillInvalidatesAfterIf) {
  auto c = compile_body(
      "      X = B(3)\n"
      "      IF (X .GT. 0.0) THEN\n"
      "        FORALL (I = 1:N) B(I) = A(I)\n"
      "      END IF\n"
      "      Z = B(3)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kBcastElement), 2);
}

TEST(CrossStmtElim, LoopBodyKillBlocksReuseFromOutside) {
  auto c = compile_body(
      "      FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "      DO IT = 1, 3\n"
      "        FORALL (I = 1:N-1) D(I) = B(I+1)\n"
      "        FORALL (I = 1:N) B(I) = D(I)\n"
      "      END DO\n");
  // B is written inside the loop: the in-loop shift must stay live (it is
  // needed again at every iteration entry).
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 2);
}

TEST(CrossStmtElim, ReuseFromOutsideLoopWhenBodyPreservesArray) {
  CodegenOptions opt;
  opt.hoist_invariant_comm = false;  // isolate the dataflow result
  auto c = compile_body(
      "      FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "      DO IT = 1, 3\n"
      "        FORALL (I = 1:N-1) D(I) = B(I+1)\n"
      "      END DO\n",
      opt);
  // B is never rewritten: the in-loop shift is redundant at every
  // iteration thanks to the pre-loop fill.
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 1);
  EXPECT_EQ(histogram(c, "overlap_shift(eliminated)"), 1);
}

// --- per-statement elimination (the legacy toggle) ---------------------------

TEST(CoveredBcast, EliminatedUnderDistinctHistogramKey) {
  auto on = compile_source(apps::gauss_source(16, 4));
  CodegenOptions off;
  off.eliminate_redundant_comm = false;
  auto noelim = compile_source(apps::gauss_source(16, 4), {}, off);
  EXPECT_EQ(histogram(on, "broadcast"), 0);
  EXPECT_EQ(histogram(on, "broadcast(eliminated)"), 1);
  EXPECT_EQ(histogram(noelim, "broadcast"), 1);
  EXPECT_EQ(histogram(noelim, "broadcast(eliminated)"), 0);
}

// --- loop-invariant hoisting -------------------------------------------------

TEST(Hoist, InvariantShiftMovesToPreheader) {
  auto c = compile_body(
      "      DO IT = 1, 3\n"
      "        FORALL (I = 1:N-1) A(I) = B(I+1) + A(I)\n"
      "      END DO\n");
  const SpmdStmt& loop = stmt(c, 0);
  ASSERT_EQ(loop.kind, SpmdKind::kSeqDo);
  ASSERT_EQ(loop.preheader.size(), 1u);
  EXPECT_EQ(loop.preheader[0].action.kind, CommKind::kOverlapShift);
  EXPECT_TRUE(loop.preheader[0].action.hoisted);
  EXPECT_EQ(loop.preheader[0].ref.array, "B");
  EXPECT_TRUE(loop.body[0]->pre.empty());
  EXPECT_NE(c.listing.find("hoisted: loop-invariant in DO IT"),
            std::string::npos);
}

TEST(Hoist, WriteInLoopBlocksHoist) {
  auto c = compile_body(
      "      DO IT = 1, 3\n"
      "        FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "        FORALL (I = 1:N) B(I) = A(I)\n"
      "      END DO\n");
  const SpmdStmt& loop = stmt(c, 0);
  EXPECT_TRUE(loop.preheader.empty());
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 1);
}

TEST(Hoist, LoopVariantBroadcastStays) {
  auto c = compile_body(
      "      DO M = 1, 8\n"
      "        X = B(M)\n"
      "      END DO\n");
  const SpmdStmt& loop = stmt(c, 0);
  EXPECT_TRUE(loop.preheader.empty());
  EXPECT_EQ(count_live(c.program, CommKind::kBcastElement), 1);
}

TEST(Hoist, InvariantBroadcastMovesToPreheader) {
  auto c = compile_body(
      "      DO IT = 1, 3\n"
      "        X = X + B(3)\n"
      "      END DO\n");
  const SpmdStmt& loop = stmt(c, 0);
  ASSERT_EQ(loop.preheader.size(), 1u);
  EXPECT_EQ(loop.preheader[0].action.kind, CommKind::kBcastElement);
}

TEST(Hoist, ZeroTripLoopRunsNoPreheaderComm) {
  // A hoisted action must not speculate: with M out of range and a
  // zero-trip loop, the unoptimized program never touches B(M) — neither
  // may the preheader (it is guarded on the trip count).
  auto c = compile_body(
      "      M = 99\n"
      "      DO IT = 1, 0\n"
      "        X = B(M)\n"
      "      END DO\n");
  const SpmdStmt& loop = stmt(c, 1);
  ASSERT_EQ(loop.preheader.size(), 1u);  // hoisted (M is loop-invariant)
  EXPECT_NE(c.listing.find("IF (n_trips(1, 0, 1) .GT. 0) THEN"),
            std::string::npos);
  machine::SimMachine m = harness::make_machine(4);
  auto result = interp::run_compiled(c, m, {});
  EXPECT_EQ(result.machine.total_messages(), 0u);
}

TEST(Hoist, LiftsThroughNestedLoops) {
  auto c = compile_body(
      "      DO IT = 1, 3\n"
      "        DO JT = 1, 2\n"
      "          FORALL (I = 1:N-1) A(I) = B(I+1) + A(I)\n"
      "        END DO\n"
      "      END DO\n");
  const SpmdStmt& outer = stmt(c, 0);
  ASSERT_EQ(outer.preheader.size(), 1u);
  EXPECT_EQ(outer.preheader[0].ref.array, "B");
  EXPECT_TRUE(outer.body[0]->preheader.empty());
}

TEST(Hoist, ZeroTripInnerLoopBlocksLift) {
  // The inner loop never executes: the broadcast must stay behind the
  // inner trip-count guard, not lift into the (executing) outer preheader
  // — lifting would speculate an access the source never performs.
  auto c = compile_body(
      "      M = 99\n"
      "      DO IT = 1, 3\n"
      "        DO JT = 1, 0\n"
      "          X = B(M)\n"
      "        END DO\n"
      "      END DO\n");
  const SpmdStmt& outer = stmt(c, 1);
  EXPECT_TRUE(outer.preheader.empty());
  ASSERT_EQ(outer.body[0]->kind, SpmdKind::kSeqDo);
  EXPECT_EQ(outer.body[0]->preheader.size(), 1u);
  machine::SimMachine m = harness::make_machine(4);
  auto result = interp::run_compiled(c, m, {});
  EXPECT_EQ(result.machine.total_messages(), 0u);
}

TEST(Hoist, RuntimeInnerBoundsBlockLift) {
  // Variable inner bounds: the trip count is unknown at compile time, so
  // the action stays in the inner preheader (its guard re-evaluates each
  // outer iteration).
  auto c = compile_body(
      "      DO IT = 1, 3\n"
      "        DO JT = 1, M\n"
      "          FORALL (I = 1:N-1) A(I) = B(I+1) + A(I)\n"
      "        END DO\n"
      "      END DO\n");
  const SpmdStmt& outer = stmt(c, 0);
  EXPECT_TRUE(outer.preheader.empty());
  EXPECT_EQ(outer.body[0]->preheader.size(), 1u);
}

// --- message coalescing ------------------------------------------------------

TEST(Coalesce, AdjacentShiftsWidenIntoOne) {
  auto c = compile_body(
      "      FORALL (I = 1:N-2) A(I) = B(I+2)\n"
      "      FORALL (I = 1:N-3) D(I) = B(I+3)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 1);
  const SpmdStmt& first = stmt(c, 0);
  ASSERT_FALSE(first.pre.empty());
  EXPECT_EQ(first.pre[0].shift_amount, 3);  // widened from 2
  EXPECT_NE(c.listing.find("coalesced"), std::string::npos);
  // Ghost allocation still covers the widened fill.
  EXPECT_EQ(c.program.overlaps.at("B")[0].second, 3);
}

TEST(Coalesce, NarrowerFollowerFoldsWithoutWidening) {
  auto c = compile_body(
      "      FORALL (I = 1:N-3) A(I) = B(I+3)\n"
      "      FORALL (I = 1:N-2) D(I) = B(I+2)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 1);
  EXPECT_EQ(stmt(c, 0).pre[0].shift_amount, 3);
}

TEST(Coalesce, InterveningWriteBlocks) {
  auto c = compile_body(
      "      FORALL (I = 1:N-2) A(I) = B(I+2)\n"
      "      FORALL (I = 1:N) B(I) = A(I)\n"
      "      FORALL (I = 1:N-3) D(I) = B(I+3)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 2);
  EXPECT_EQ(stmt(c, 0).pre[0].shift_amount, 2);  // not widened
}

TEST(Coalesce, OppositeDirectionsStaySeparate) {
  auto c = compile_body(
      "      FORALL (I = 2:N) A(I) = B(I-1)\n"
      "      FORALL (I = 1:N-1) D(I) = B(I+1)\n");
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 2);
}

// --- all_off(): the unoptimized compiler -------------------------------------

TEST(AllOff, KeepsEveryAction) {
  auto c = compile_body(
      "      FORALL (I = 1:N-1) A(I) = B(I+1)\n"
      "      FORALL (I = 1:N-1) D(I) = B(I+1)\n",
      CodegenOptions::all_off());
  EXPECT_EQ(count_live(c.program, CommKind::kOverlapShift), 2);
  EXPECT_EQ(histogram(c, "overlap_shift"), 2);
  EXPECT_EQ(histogram(c, "overlap_shift(eliminated)"), 0);
}

// --- differential property: identical results, non-increasing messages ------

struct GridShape {
  int p;
  int q;
};

class CommOptSweep : public ::testing::TestWithParam<GridShape> {};

TEST_P(CommOptSweep, JacobiHoistedIdenticalResultsFewerMessages) {
  const auto [p, q] = GetParam();
  std::map<std::string, std::uint64_t> messages;
  for (const auto& [name, opt] : harness::pass_ladder()) {
    auto r = harness::run_jacobi_hoisted(12, 3, p, q, "BLOCK", opt);
    ASSERT_EQ(r.diff.got.size(), r.diff.want.size()) << name;
    EXPECT_LE(harness::max_abs_diff(r.diff), 1e-9)
        << name << " on " << p << "x" << q;
    messages[name] = r.messages;
  }
  const std::uint64_t off_messages = messages.at("all_off");
  const std::uint64_t on_messages = messages.at("all_on");
  // Each pass alone never adds messages; all passes together are the floor.
  for (const auto& [name, count] : messages) {
    EXPECT_LE(count, off_messages)
        << name << " must not add messages on " << p << "x" << q;
    EXPECT_GE(count, on_messages)
        << name << " vs all_on on " << p << "x" << q;
  }
  // The acceptance bar: hoisting + cross-statement elimination beat the
  // unoptimized program outright on any real (multi-processor) grid — at
  // minimum the per-iteration corner broadcast collapses to one.
  if (p * q > 1) {
    EXPECT_LT(messages.at("elim_plus_hoist"), off_messages) << p << "x" << q;
    EXPECT_LT(on_messages, off_messages) << p << "x" << q;
  }
}

TEST_P(CommOptSweep, GaussIdenticalResultsMonotoneMessages) {
  const auto [p, q] = GetParam();
  const int n = 24;
  std::uint64_t off_messages = 0;
  for (const auto& [name, opt] : harness::pass_ladder()) {
    auto r = harness::run_gauss_counted(n, p * q, "BLOCK", opt);
    ASSERT_EQ(r.diff.got.size(), r.diff.want.size()) << name;
    EXPECT_LE(
        harness::max_abs_diff(r.diff, harness::gauss_defined_region(n)), 1e-6)
        << name << " on " << p * q << " procs";
    if (std::string(name) == "all_off") off_messages = r.messages;
    EXPECT_LE(r.messages, off_messages) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CommOptSweep,
    ::testing::Values(GridShape{1, 1}, GridShape{1, 2}, GridShape{2, 1},
                      GridShape{2, 2}, GridShape{1, 4}, GridShape{4, 1},
                      GridShape{4, 2}, GridShape{2, 4}, GridShape{4, 4}),
    [](const ::testing::TestParamInfo<GridShape>& info) {
      return std::to_string(info.param.p) + "x" + std::to_string(info.param.q);
    });

}  // namespace
}  // namespace f90d
