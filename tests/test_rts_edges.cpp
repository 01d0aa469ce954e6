// Run-time library edge cases at grid boundaries: overlap/temporary shifts
// that wrap (or must not wrap) at the ends of the processor grid, shifts
// that spill across multiple processors, empty local blocks when P > N, and
// remap-based redistribution round trips.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "comm/grid_comm.hpp"
#include "harness.hpp"
#include "machine/topology.hpp"
#include "parti/schedule.hpp"
#include "rts/dist_array.hpp"
#include "rts/remap.hpp"
#include "rts/shift_ops.hpp"
#include "support/diag.hpp"

namespace f90d {
namespace {

using harness::on_machine;
using machine::CostModel;
using machine::SimMachine;
using rts::Dad;
using rts::DimMap;
using rts::DistArray;
using rts::DistKind;
using rts::Index;

Dad block1d(Index n, const comm::ProcGrid& g, int overlap_lo, int overlap_hi) {
  return harness::dist1d(n, g, DistKind::kBlock, overlap_lo, overlap_hi);
}

constexpr double kSentinel = -999.0;

/// Non-circular overlap shift: interior boundaries are exchanged, but the
/// grid-edge processor's ghost cells must be left untouched (EOSHIFT /
/// interior-only FORALL bounds semantics).
TEST(OverlapShift, EdgeProcessorGhostUntouchedWithoutWrap) {
  for (int p : {2, 4}) {
    on_machine(p, [&](comm::GridComm& gc) {
      const Index n = 16;
      DistArray<double> a(block1d(n, gc.grid(), 0, 1), gc);
      a.fill_global([](std::span<const Index> g) { return g[0] * 1.0; });
      const Index lext = a.local_extent(0);
      const std::vector<Index> ghost{lext};
      a.at_local(ghost) = kSentinel;

      rts::overlap_shift(gc, a, 0, +1, /*circular=*/false);

      if (gc.coord(0) < p - 1) {
        // My high ghost holds my successor's first element.
        const Index next_first = a.dad().global_of_local(0, 0, gc.coord(0) + 1);
        EXPECT_DOUBLE_EQ(a.at_local(ghost), static_cast<double>(next_first));
      } else {
        EXPECT_DOUBLE_EQ(a.at_local(ghost), kSentinel)
            << "edge processor ghost must stay untouched";
      }
    });
  }
}

/// Circular overlap shift: the last processor wraps around to the first
/// (CSHIFT), in both directions.
TEST(OverlapShift, CircularWrapsAtBothGridEdges) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 16;
    DistArray<double> a(block1d(n, gc.grid(), 1, 1), gc);
    a.fill_global([](std::span<const Index> g) { return 10.0 + g[0]; });

    rts::overlap_shift(gc, a, 0, +1, /*circular=*/true);
    rts::overlap_shift(gc, a, 0, -1, /*circular=*/true);

    const Index lext = a.local_extent(0);
    const Index my_first = a.dad().global_of_local(0, 0, gc.coord(0));
    const Index my_last = my_first + lext - 1;
    const std::vector<Index> hi{lext};
    const std::vector<Index> lo{-1};
    EXPECT_DOUBLE_EQ(a.at_local(hi), 10.0 + (my_last + 1) % n);
    EXPECT_DOUBLE_EQ(a.at_local(lo), 10.0 + (my_first - 1 + n) % n);
  });
}

/// Shift amount equal to the full declared overlap width moves a multi-plane
/// slab in one exchange.
TEST(OverlapShift, FullWidthSlabExchange) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 16;
    const int width = 2;
    DistArray<double> a(block1d(n, gc.grid(), 0, width), gc);
    a.fill_global([](std::span<const Index> g) { return g[0] * 1.0; });

    rts::overlap_shift(gc, a, 0, width, /*circular=*/true);

    const Index lext = a.local_extent(0);
    const Index my_first = a.dad().global_of_local(0, 0, gc.coord(0));
    for (int k = 0; k < width; ++k) {
      const std::vector<Index> ghost{lext + k};
      EXPECT_DOUBLE_EQ(a.at_local(ghost),
                       static_cast<double>((my_first + lext + k) % n));
    }
  });
}

/// P > N: trailing processors own zero elements; the collective shift must
/// still terminate and fill the ghosts that exist.
TEST(OverlapShift, EmptyLocalBlocksWhenMoreProcsThanElements) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 3;  // block(1,1,1,0): last processor is empty
    DistArray<double> a(block1d(n, gc.grid(), 0, 1), gc);
    a.fill_global([](std::span<const Index> g) { return 5.0 + g[0]; });

    rts::overlap_shift(gc, a, 0, +1, /*circular=*/false);

    const Index lext = a.local_extent(0);
    if (lext > 0 && gc.coord(0) + 1 < p &&
        a.dad().local_extent(0, gc.coord(0) + 1) > 0) {
      const std::vector<Index> ghost{lext};
      const Index next_first = a.dad().global_of_local(0, 0, gc.coord(0) + 1);
      EXPECT_DOUBLE_EQ(a.at_local(ghost), 5.0 + next_first);
    }
  });
}

/// 2-D (BLOCK, BLOCK): shifting along the second dimension exchanges a
/// non-contiguous column slab; row boundaries must be preserved exactly.
TEST(OverlapShift, TwoDimensionalColumnSlab) {
  const int p = 2, q = 2;
  SimMachine m(p * q, CostModel::ipsc860(), machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, comm::ProcGrid({p, q}));
    const Index n = 8;
    DimMap mr, mc;
    mr.kind = DistKind::kBlock;
    mr.grid_dim = 0;
    mr.template_extent = n;
    mc.kind = DistKind::kBlock;
    mc.grid_dim = 1;
    mc.template_extent = n;
    mc.overlap_hi = 1;
    DistArray<double> a(Dad({n, n}, {mr, mc}, gc.grid()), gc);
    a.fill_global(
        [](std::span<const Index> g) { return g[0] * 100.0 + g[1]; });

    rts::overlap_shift(gc, a, 1, +1, /*circular=*/false);

    if (gc.coord(1) + 1 < q) {
      const Index rows = a.local_extent(0);
      const Index cols = a.local_extent(1);
      const Index next_col = a.dad().global_of_local(1, 0, gc.coord(1) + 1);
      for (Index r = 0; r < rows; ++r) {
        const std::vector<Index> ghost{r, cols};
        const Index gr = a.dad().global_of_local(0, r, gc.coord(0));
        EXPECT_DOUBLE_EQ(a.at_local(ghost), gr * 100.0 + next_col);
      }
    }
  });
}

/// temporary_shift with an amount larger than the local block spills across
/// multiple processors; out-of-range elements stay at the zero fill.
TEST(TemporaryShift, MultiProcessorSpillNonCircular) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 16, amount = 6;  // block size 4: spills two procs over
    DistArray<double> a(block1d(n, gc.grid(), 0, 0), gc);
    a.fill_global([](std::span<const Index> g) { return 1.0 + g[0]; });

    DistArray<double> tmp =
        rts::temporary_shift(gc, a, 0, amount, /*circular=*/false);

    tmp.for_each_owned([&](const std::vector<Index>& g, double& v) {
      const Index src = g[0] + amount;
      if (src < n)
        EXPECT_DOUBLE_EQ(v, 1.0 + src) << "tmp(" << g[0] << ")";
      else
        EXPECT_DOUBLE_EQ(v, 0.0) << "out-of-range tmp(" << g[0] << ")";
    });
  });
}

/// Circular temporary shift wraps through the grid edge in both directions,
/// including |amount| > N (reduces mod N).
TEST(TemporaryShift, CircularWrapAndNegativeAmounts) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 12;
    DistArray<double> a(block1d(n, gc.grid(), 0, 0), gc);
    a.fill_global([](std::span<const Index> g) { return 2.0 * g[0]; });

    for (Index amount : {Index{5}, Index{-5}, Index{n + 2}}) {
      DistArray<double> tmp =
          rts::temporary_shift(gc, a, 0, amount, /*circular=*/true);
      tmp.for_each_owned([&](const std::vector<Index>& g, double& v) {
        const Index src = ((g[0] + amount) % n + n) % n;
        EXPECT_DOUBLE_EQ(v, 2.0 * src)
            << "tmp(" << g[0] << ") amount " << amount;
      });
    }
  });
}

/// redistribute (remap with the identity map) preserves every element across
/// a BLOCK -> CYCLIC -> BLOCK round trip — the paper's automatic
/// redistribution at subroutine boundaries.
TEST(Remap, BlockCyclicRoundTripPreservesValues) {
  for (int p : {2, 4}) {
    on_machine(p, [&](comm::GridComm& gc) {
      const Index n = 19;  // deliberately not divisible by p
      DistArray<double> a(block1d(n, gc.grid(), 0, 0), gc);
      a.fill_global([](std::span<const Index> g) { return 7.0 + 3.0 * g[0]; });

      DimMap mc;
      mc.kind = DistKind::kCyclic;
      mc.grid_dim = 0;
      mc.template_extent = n;
      Dad cyclic({n}, {mc}, gc.grid());

      DistArray<double> c = rts::redistribute(gc, a, cyclic);
      c.for_each_owned([&](const std::vector<Index>& g, double& v) {
        EXPECT_DOUBLE_EQ(v, 7.0 + 3.0 * g[0]);
      });

      DistArray<double> back = rts::redistribute(gc, c, a.dad());
      back.for_each_owned([&](const std::vector<Index>& g, double& v) {
        EXPECT_DOUBLE_EQ(v, 7.0 + 3.0 * g[0]);
      });
    });
  }
}

/// BLOCK -> CYCLIC(k) -> BLOCK for k in {2, 3}: the block-cyclic descriptor
/// must route every element to its new owner and back without loss, on a
/// size that leaves ragged trailing blocks.
TEST(Remap, BlockCyclicKRoundTripPreservesValues) {
  for (int p : {2, 4}) {
    for (Index k : {Index{2}, Index{3}}) {
      on_machine(p, [&](comm::GridComm& gc) {
        const Index n = 23;  // not divisible by k*p: ragged last course
        DistArray<double> a(block1d(n, gc.grid(), 0, 0), gc);
        a.fill_global([](std::span<const Index> g) { return 1.5 + 2.0 * g[0]; });

        DistArray<double> c = rts::redistribute(
            gc, a,
            harness::dist1d(n, gc.grid(), DistKind::kCyclic, 0, 0, k));
        c.for_each_owned([&](const std::vector<Index>& g, double& v) {
          EXPECT_DOUBLE_EQ(v, 1.5 + 2.0 * g[0]) << "k=" << k;
        });

        DistArray<double> back = rts::redistribute(gc, c, a.dad());
        back.for_each_owned([&](const std::vector<Index>& g, double& v) {
          EXPECT_DOUBLE_EQ(v, 1.5 + 2.0 * g[0]) << "k=" << k;
        });
      });
    }
  }
}

/// CYCLIC(2) -> CYCLIC(3): redistribution between two block-cyclic layouts
/// with different block sizes (the mappings interleave differently, so
/// almost every element moves).
TEST(Remap, CyclicTwoToCyclicThreePreservesValues) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 26;
    DistArray<double> a(
        harness::dist1d(n, gc.grid(), DistKind::kCyclic, 0, 0, 2), gc);
    a.fill_global([](std::span<const Index> g) { return 4.0 - 0.5 * g[0]; });

    DistArray<double> c = rts::redistribute(
        gc, a, harness::dist1d(n, gc.grid(), DistKind::kCyclic, 0, 0, 3));
    c.for_each_owned([&](const std::vector<Index>& g, double& v) {
      EXPECT_DOUBLE_EQ(v, 4.0 - 0.5 * g[0]);
    });
  });
}

/// temporary_shift on a CYCLIC(k) array: the shifted temporary is exact for
/// amounts that cross block and course boundaries, both directions.
TEST(TemporaryShift, BlockCyclicShiftsAcrossBlockBoundaries) {
  const int p = 4;
  on_machine(p, [&](comm::GridComm& gc) {
    const Index n = 21;
    DistArray<double> a(
        harness::dist1d(n, gc.grid(), DistKind::kCyclic, 0, 0, 2), gc);
    a.fill_global([](std::span<const Index> g) { return 3.0 * g[0] + 1.0; });

    for (Index amount : {Index{1}, Index{-1}, Index{3}, Index{10}}) {
      DistArray<double> tmp =
          rts::temporary_shift(gc, a, 0, amount, /*circular=*/true);
      tmp.for_each_owned([&](const std::vector<Index>& g, double& v) {
        const Index src = ((g[0] + amount) % n + n) % n;
        EXPECT_DOUBLE_EQ(v, 3.0 * src + 1.0)
            << "tmp(" << g[0] << ") amount " << amount;
      });
    }
  });
}

// --- irregular computation edges ---------------------------------------------

std::string pgtn_source(int n, int p) {
  return strformat(R"(PROGRAM PGTN
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      REAL C(N)
      INTEGER U(N)
      INTEGER V(N)
      INTEGER MAP(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(INDIRECT(MAP))
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 1:N) A(U(I)) = B(V(I)) + C(I)
      END DO
      END PROGRAM PGTN
)",
                   n, p);
}

/// A(U(I)) = B(V(I)) + C(I) on an INDIRECT(MAP) template with more
/// processors than template cells: some processors own nothing, yet they
/// must still join every collective schedule build.
TEST(IrregularEdges, IndirectWithMoreProcsThanElements) {
  const int n = 3;
  for (int p : {4, 6}) {
    auto compiled = compile::compile_source(pgtn_source(n, p));
    machine::SimMachine m = harness::make_machine(p);
    interp::Init init;
    init.ints["U"] = [n](std::span<const Index> g) {
      return harness::irregular_u(n, g[0]) + 1;
    };
    init.ints["V"] = [n](std::span<const Index> g) {
      return harness::irregular_v(n, g[0]) + 1;
    };
    init.ints["MAP"] = [p](std::span<const Index> g) {
      return harness::map_owner(g[0], p) + 1;
    };
    init.real["B"] = [](std::span<const Index> g) { return g[0] * 2.0; };
    init.real["C"] = [](std::span<const Index> g) { return g[0] * 100.0; };
    auto result = interp::run_compiled(compiled, m, init);
    const auto want = harness::irregular_oracle(n);
    const auto& got = result.real_arrays.at("A");
    ASSERT_EQ(got.size(), want.size()) << "p=" << p;
    for (size_t k = 0; k < want.size(); ++k)
      EXPECT_EQ(got[k], want[k]) << "p=" << p << " k=" << k;
  }
}

std::string oob_source(int n, int p) {
  return strformat(R"(PROGRAM OOB
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER V(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, 2
        FORALL (I = 1:N) A(I) = B(V(I))
      END DO
      END PROGRAM OOB
)",
                   n, p);
}

/// An out-of-range gather subscript surfaces as a runtime diagnostic naming
/// the subscripted array, from the tree walk and the planned inspector
/// alike.
TEST(IrregularEdges, OutOfRangeGatherIndexDiagnosed) {
  const int n = 8, p = 2;
  for (bool plans : {false, true}) {
    auto compiled = compile::compile_source(oob_source(n, p));
    machine::SimMachine m = harness::make_machine(p);
    interp::Init init;
    init.ints["V"] = [n](std::span<const Index> g) {
      return g[0] == 3 ? n + 5 : 1;  // one rogue subscript
    };
    init.real["B"] = [](std::span<const Index>) { return 0.0; };
    interp::RunOptions ro;
    ro.exec_plans = plans;
    try {
      (void)interp::run_compiled(compiled, m, init, ro);
      FAIL() << "expected an out-of-range diagnostic (plans=" << plans << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("B"), std::string::npos)
          << e.what();
    }
  }
}

/// Same for an out-of-range scatter destination (lhs indirection value).
TEST(IrregularEdges, OutOfRangeScatterDestinationDiagnosed) {
  const int n = 8, p = 2;
  for (bool plans : {false, true}) {
    auto compiled =
        compile::compile_source(apps::irregular_source(n, p, /*steps=*/2));
    machine::SimMachine m = harness::make_machine(p);
    interp::Init init;
    init.ints["U"] = [](std::span<const Index> g) {
      return g[0] == 2 ? 0 : static_cast<Index>(g[0]) + 1;  // 0 < lower bound
    };
    init.ints["V"] = [](std::span<const Index> g) {
      return static_cast<Index>(g[0]) + 1;
    };
    init.real["B"] = [](std::span<const Index>) { return 0.0; };
    init.real["C"] = [](std::span<const Index>) { return 0.0; };
    interp::RunOptions ro;
    ro.exec_plans = plans;
    try {
      (void)interp::run_compiled(compiled, m, init, ro);
      FAIL() << "expected an out-of-range diagnostic (plans=" << plans << ")";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("A"), std::string::npos)
          << e.what();
    }
  }
}

/// execute_write with a sum combiner gives duplicate destination ids
/// accumulate semantics (every processor's iterations hit the same two
/// cells); integer-valued doubles keep the sum order-independent bitwise.
TEST(IrregularEdges, DuplicateScatterDestinationsAccumulateWithCombine) {
  for (int p : {1, 2, 4}) {
    on_machine(p, [&](comm::GridComm& gc) {
      const Index n = 12;
      Dad dad = block1d(n, gc.grid(), 0, 0);
      DistArray<double> a(dad, gc);
      std::vector<Index> my_dests;
      std::vector<double> my_vals;
      const Index cnt = dad.local_extent(0, gc.coord(0));
      for (Index l = 0; l < cnt; ++l) {
        const Index i = dad.global_of_local(0, l, gc.coord(0));
        my_dests.push_back(i % 2);  // everything lands on cell 0 or 1
        my_vals.push_back(static_cast<double>(i + 1));
      }
      auto sched = parti::schedule3(gc, dad, my_dests);
      parti::execute_write<double>(
          gc, *sched, a, std::span<const double>(my_vals),
          [](const double& x, const double& y) { return x + y; });
      auto full = a.gather_global(gc);
      // Sum of odd-indexed vs even-indexed contributions of 1..n.
      double even = 0, odd = 0;
      for (Index i = 0; i < n; ++i) (i % 2 == 0 ? even : odd) += i + 1;
      EXPECT_EQ(full[0], even) << "p=" << p;
      EXPECT_EQ(full[1], odd) << "p=" << p;
      for (Index i = 2; i < n; ++i)
        EXPECT_EQ(full[static_cast<size_t>(i)], 0.0) << "p=" << p;
    });
  }
}

std::string zero_trip_source(int n, int p) {
  return strformat(R"(PROGRAM ZT
      INTEGER N
      PARAMETER (N = %d)
      REAL A(N)
      REAL B(N)
      INTEGER U(N)
      INTEGER V(N)
      INTEGER IT
C$ PROCESSORS P(%d)
C$ TEMPLATE T(N)
C$ DISTRIBUTE T(BLOCK)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
      DO IT = 1, 3
        FORALL (I = 5:4) A(U(I)) = B(V(I))
      END DO
      END PROGRAM ZT
)",
                   n, p);
}

/// A zero-trip irregular FORALL must not run its inspector: no schedules
/// are built, nothing is exchanged, and the destination stays untouched —
/// even though the statement carries gather and scatter actions.
TEST(IrregularEdges, ZeroTripForallBuildsNoSchedules) {
  const int n = 8;
  for (int p : {1, 3}) {
    auto compiled = compile::compile_source(zero_trip_source(n, p));
    machine::SimMachine m = harness::make_machine(p);
    interp::Init init;
    init.ints["U"] = [](std::span<const Index>) { return 1; };
    init.ints["V"] = [](std::span<const Index>) { return 1; };
    init.real["A"] = [](std::span<const Index> g) { return g[0] * 3.0; };
    init.real["B"] = [](std::span<const Index> g) { return g[0] * 7.0; };
    auto result = interp::run_compiled(compiled, m, init);
    EXPECT_EQ(result.schedule_misses, 0) << "p=" << p;
    EXPECT_EQ(result.schedule_hits, 0) << "p=" << p;
    EXPECT_EQ(result.schedules_built, 0) << "p=" << p;
    const auto& a = result.real_arrays.at("A");
    for (Index i = 0; i < n; ++i)
      EXPECT_EQ(a[static_cast<size_t>(i)], i * 3.0) << "p=" << p;
  }
}

/// gather_global_root must reproduce gather_global's result exactly on the
/// logical root (and stay empty elsewhere) for every distribution kind the
/// DAD supports — the root reconstructs each sender's global indices from
/// the DAD instead of receiving {index,value} pairs, so a placement slip
/// would silently permute the collected array.
TEST(GatherGlobalRoot, MatchesAllGatherAcrossDistributions) {
  struct Case {
    DistKind kind;
    rts::Index block;  // CYCLIC(k) block size
  };
  const Case cases[] = {{DistKind::kBlock, 1},
                        {DistKind::kCyclic, 1},
                        {DistKind::kCyclic, 3}};
  for (int p : {1, 2, 4}) {
    for (const Case& c : cases) {
      on_machine(p, [&](comm::GridComm& gc) {
        const Index n = 19;  // deliberately not divisible by p
        DistArray<double> a(
            harness::dist1d(n, gc.grid(), c.kind, 0, 0, c.block), gc);
        a.fill_global([](std::span<const Index> g) { return 2.0 + 5.0 * g[0]; });
        auto all = a.gather_global(gc);
        auto root = a.gather_global_root(gc);
        if (gc.my_logical() == 0) {
          ASSERT_EQ(root.size(), all.size());
          for (size_t i = 0; i < all.size(); ++i)
            EXPECT_DOUBLE_EQ(root[i], all[i]) << "p=" << p << " i=" << i;
        } else {
          EXPECT_TRUE(root.empty());
        }
      });
    }
  }
}

/// Same equivalence on a 2-D (BLOCK, BLOCK) array over a 2x2 grid, where
/// row-major placement must interleave the four processors' blocks.
TEST(GatherGlobalRoot, TwoDimensionalBlocks) {
  const int p = 2, q = 2;
  machine::SimMachine m(p * q, machine::CostModel::ipsc860(),
                        machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, comm::ProcGrid({p, q}));
    const Index n = 6, nn = 5;  // uneven second extent
    DimMap m0, m1;
    m0.kind = m1.kind = DistKind::kBlock;
    m0.grid_dim = 0;
    m1.grid_dim = 1;
    m0.template_extent = n;
    m1.template_extent = nn;
    DistArray<double> a(Dad({n, nn}, {m0, m1}, gc.grid()), gc);
    a.fill_global([](std::span<const Index> g) {
      return 100.0 * static_cast<double>(g[0]) + static_cast<double>(g[1]);
    });
    auto all = a.gather_global(gc);
    auto root = a.gather_global_root(gc);
    if (gc.my_logical() == 0) {
      ASSERT_EQ(root.size(), all.size());
      for (size_t i = 0; i < all.size(); ++i)
        EXPECT_DOUBLE_EQ(root[i], all[i]) << "i=" << i;
    } else {
      EXPECT_TRUE(root.empty());
    }
  });
}

// --- the array boundary: run-wise fill and gather ----------------------------
//
// fill_global and gather_global_root walk owned elements row by row through
// per-dimension global-index tables, and place_block copies runs of
// consecutive global indices.  Every mapping shape that changes those
// tables or runs gets a case: each element must land at its own global
// position, and fill_global must store exactly what a per-element at_global
// loop stores.

DimMap dim_map(DistKind kind, int grid_dim, Index template_extent,
               Index stride = 1, Index offset = 0, Index block = 1,
               int overlap_lo = 0, int overlap_hi = 0) {
  DimMap m;
  m.kind = kind;
  m.grid_dim = kind == DistKind::kCollapsed ? -1 : grid_dim;
  m.template_extent = template_extent;
  m.align_stride = stride;
  m.align_offset = offset;
  m.block = block;
  m.overlap_lo = overlap_lo;
  m.overlap_hi = overlap_hi;
  return m;
}

struct BoundaryCase {
  std::string name;
  std::vector<int> grid;
  std::function<Dad(const comm::ProcGrid&)> dad;
};

std::vector<BoundaryCase> boundary_cases() {
  return {
      {"indirect", {4},
       [](const comm::ProcGrid& g) {
         const Index n = 11;
         std::vector<int> owners;
         for (Index t = 0; t < n; ++t)
           owners.push_back(static_cast<int>((t * 7 + 3) % 4));
         DimMap m = dim_map(DistKind::kIndirect, 0, n);
         m.map_name = "MAP";
         m.table = rts::IndirectTable::build(std::move(owners), 4, "MAP");
         return Dad({n}, {m}, g);
       }},
      {"align_stride_2", {4},
       [](const comm::ProcGrid& g) {
         return Dad({9}, {dim_map(DistKind::kBlock, 0, 19, 2, 1)}, g);
       }},
      {"align_stride_minus_1_offset", {3},
       [](const comm::ProcGrid& g) {
         return Dad({13}, {dim_map(DistKind::kBlock, 0, 16, -1, 15)}, g);
       }},
      {"collapsed_dim", {3},
       [](const comm::ProcGrid& g) {
         return Dad({5, 4},
                    {dim_map(DistKind::kBlock, 0, 5),
                     dim_map(DistKind::kCollapsed, -1, 4)},
                    g);
       }},
      {"overlap_widths", {2, 2},
       [](const comm::ProcGrid& g) {
         return Dad({7, 6},
                    {dim_map(DistKind::kBlock, 0, 7, 1, 0, 1, 1, 2),
                     dim_map(DistKind::kBlock, 1, 6, 1, 0, 1, 2, 1)},
                    g);
       }},
      {"more_procs_than_elements", {8},
       [](const comm::ProcGrid& g) {
         return Dad({5}, {dim_map(DistKind::kCyclic, 0, 5, 1, 0, 2)}, g);
       }},
      {"rank_3", {2, 3},
       [](const comm::ProcGrid& g) {
         return Dad({4, 5, 9},
                    {dim_map(DistKind::kBlock, 0, 4),
                     dim_map(DistKind::kCollapsed, -1, 5),
                     dim_map(DistKind::kCyclic, 1, 9, 1, 0, 2)},
                    g);
       }},
  };
}

void PrintTo(const BoundaryCase& c, std::ostream* os) { *os << c.name; }

/// A distinct value for every global element: its row-major position.
double boundary_value(const Dad& dad, std::span<const Index> g) {
  Index flat = 0;
  for (int d = 0; d < dad.rank(); ++d)
    flat = flat * dad.extent(d) + g[static_cast<size_t>(d)];
  return 0.5 + static_cast<double>(flat);
}

/// Run `body(gc, dad)` on every processor of the case's grid.
template <typename F>
void on_case_grid(const BoundaryCase& c, F&& body) {
  const comm::ProcGrid grid(c.grid);
  SimMachine m(grid.size(), CostModel::ipsc860(), machine::make_hypercube());
  m.run([&](machine::Proc& proc) {
    comm::GridComm gc(proc, grid);
    body(gc, c.dad(gc.grid()));
  });
}

class GatherGlobalRootCases : public ::testing::TestWithParam<BoundaryCase> {};

TEST_P(GatherGlobalRootCases, PlacesEveryElementAtItsGlobalPosition) {
  on_case_grid(GetParam(), [](comm::GridComm& gc, const Dad& dad) {
    DistArray<double> a(dad, gc);
    a.fill_global(
        [&](std::span<const Index> g) { return boundary_value(dad, g); });
    const std::vector<double> root = a.gather_global_root(gc);
    if (gc.my_logical() != 0) {
      EXPECT_TRUE(root.empty());
      return;
    }
    ASSERT_EQ(static_cast<Index>(root.size()), dad.global_size());
    for (size_t i = 0; i < root.size(); ++i)
      EXPECT_EQ(root[i], 0.5 + static_cast<double>(i)) << "element " << i;
  });
}

TEST_P(GatherGlobalRootCases, FillGlobalMatchesPerElementAtGlobal) {
  on_case_grid(GetParam(), [](comm::GridComm& gc, const Dad& dad) {
    DistArray<double> a(dad, gc);
    a.fill_global(
        [&](std::span<const Index> g) { return boundary_value(dad, g); });
    // Reference: visit the whole global index space and write each owned
    // element through at_global.  Ghost cells stay zero on both sides.
    DistArray<double> ref(dad, gc);
    std::vector<Index> g(static_cast<size_t>(dad.rank()), 0);
    for (Index k = 0; k < dad.global_size(); ++k) {
      Index rest = k;
      for (int d = dad.rank() - 1; d >= 0; --d) {
        g[static_cast<size_t>(d)] = rest % dad.extent(d);
        rest /= dad.extent(d);
      }
      if (ref.owns_global(g)) ref.at_global(g) = boundary_value(dad, g);
    }
    EXPECT_EQ(a.storage(), ref.storage()) << "rank " << gc.my_logical();
  });
}

INSTANTIATE_TEST_SUITE_P(
    Boundary, GatherGlobalRootCases, ::testing::ValuesIn(boundary_cases()),
    [](const ::testing::TestParamInfo<BoundaryCase>& info) {
      return info.param.name;
    });

/// Replicated arrays written element by element in a DO loop gather as
/// processor 0's own copy (the other processors pack and send nothing)
/// and equal a sequential oracle on every grid from 1x1 to 4x4, on the
/// tree and plan rungs alike.  D is distributed and reads both, so the
/// copies also feed a planned statement.
TEST(ReplicatedGather, DoLoopWrittenArraysMatchOracleOnEveryGrid) {
  const int n = 7;
  std::vector<long long> m(n);
  std::vector<double> r(static_cast<size_t>(n) * 3), d(n * n);
  for (int i = 1; i <= n; ++i) {
    m[static_cast<size_t>(i - 1)] = i * i - 3;
    for (int j = 1; j <= 3; ++j)
      r[static_cast<size_t>((i - 1) * 3 + j - 1)] =
          0.5 * i + j + static_cast<double>(m[static_cast<size_t>(i - 1)]);
  }
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      d[static_cast<size_t>(i * n + j)] =
          r[static_cast<size_t>(i * 3)] + static_cast<double>(m[static_cast<size_t>(j)]);
  for (int p = 1; p <= 4; ++p)
    for (int q = 1; q <= 4; ++q)
      for (bool plans : {false, true}) {
        const std::string src = strformat(R"(PROGRAM REPL
      INTEGER N
      PARAMETER (N = %d)
      REAL R(N, 3)
      INTEGER M(N)
      REAL D(N, N)
      INTEGER I
      INTEGER J
C$ PROCESSORS P(%d, %d)
C$ TEMPLATE T(N, N)
C$ DISTRIBUTE T(BLOCK, BLOCK)
C$ ALIGN D(I, J) WITH T(I, J)
      DO I = 1, N
        M(I) = I * I - 3
        DO J = 1, 3
          R(I, J) = 0.5 * I + J + M(I)
        END DO
      END DO
      FORALL (I = 1:N, J = 1:N) D(I, J) = R(I, 1) + M(J)
      END PROGRAM REPL
)", n, p, q);
        interp::RunOptions ro;
        ro.exec_plans = plans;
        const auto res = harness::run_source(src, {}, ro);
        const std::string at = strformat("%dx%d plans=%d", p, q, plans);
        EXPECT_EQ(res.int_arrays.at("M"), m) << at;
        EXPECT_EQ(res.real_arrays.at("R"), r) << at;
        EXPECT_EQ(res.real_arrays.at("D"), d) << at;
      }
}

}  // namespace
}  // namespace f90d
