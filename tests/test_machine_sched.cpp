// The event-driven SimMachine backend and its failure semantics:
//  - both backends (fiber event loop vs one OS thread per proc) produce
//    bit-identical array results and identical simulated times,
//  - a node-program exception poisons the mailboxes so blocked peers unwind
//    (the historical `t.join()` hang),
//  - a communication deadlock (mismatched send/recv) fails with a per-proc
//    wait-state report instead of hanging,
//  - 32x32 and 1024-processor machines are cheap enough for routine tests.
#include <gtest/gtest.h>

#include <cfenv>
#include <chrono>
#include <span>
#include <thread>

#include "apps/gauss_hand.hpp"
#include "apps/sources.hpp"
#include "harness.hpp"
#include "interp/interp.hpp"
#include "machine/profiles.hpp"
#include "machine/topology.hpp"

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define F90D_TEST_SANITIZED 1
#endif
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define F90D_TEST_SANITIZED 1
#endif

namespace f90d {
namespace {

#ifdef F90D_TEST_SANITIZED
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

using machine::Backend;
using machine::CostModel;
using machine::DeadlockError;
using machine::MachineOptions;
using machine::Proc;
using machine::SimMachine;

MachineOptions opts(Backend b) {
  MachineOptions mo;
  mo.backend = b;
  return mo;
}

SimMachine ipsc_machine(int p, Backend b) {
  return SimMachine(p, CostModel::ipsc860(), machine::make_hypercube(),
                    opts(b));
}

// --- backend-parameterized failure semantics ---------------------------------

class Backends : public ::testing::TestWithParam<Backend> {};

TEST_P(Backends, ThrowOnRank0MidExchangeUnblocksPeers) {
  // Regression: rank 0 of a 2x2 grid throws mid-exchange while ranks 2 and 3
  // are blocked in recv on it.  The old threaded backend left the peers
  // parked in an untimed cv wait and run() hung in join(); now every mailbox
  // is poisoned, the peers unwind, and the original error is rethrown.
  SimMachine m(4, CostModel::ideal(), machine::make_crossbar(),
               opts(GetParam()));
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) {
        p.send_value<int>(1, 9, 41);
        throw RtsError("boom on rank 0 mid-exchange");
      }
      (void)p.recv_value<int>(0, 9);  // only rank 1 is ever served
      if (p.rank() == 1) return;
    });
    FAIL() << "expected the rank-0 error to propagate";
  } catch (const RtsError& e) {
    EXPECT_NE(std::string(e.what()).find("boom on rank 0"), std::string::npos);
  }
}

TEST_P(Backends, MismatchedTagsDeadlockFailsWithWaitReport) {
  // A cyclic wait from a hand-written node program: both sides send tag 1
  // but wait for tag 2.  Must fail with a diagnostic, not hang.
  SimMachine m(2, CostModel::ideal(), machine::make_crossbar(),
               opts(GetParam()));
  try {
    m.run([&](Proc& p) {
      p.send_value<int>(1 - p.rank(), 1, 7);
      (void)p.recv_value<int>(1 - p.rank(), 2);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("deadlock detected"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: blocked in recv(src=1, tag=2)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: blocked in recv(src=0, tag=2)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1 queued message(s)"), std::string::npos) << what;
  }
}

TEST_P(Backends, SelfDeadlockOnOneProcessorIsDetected) {
  SimMachine m(1, CostModel::ideal(), machine::make_crossbar(),
               opts(GetParam()));
  EXPECT_THROW(m.run([&](Proc& p) { (void)p.recv(0, 5); }), DeadlockError);
}

TEST_P(Backends, PeerFinishingWithoutSendingIsADeadlock) {
  // Rank 1 returns without ever sending what rank 0 waits for: all *live*
  // processors are blocked, which must be flagged just like a cyclic wait.
  SimMachine m(2, CostModel::ideal(), machine::make_crossbar(),
               opts(GetParam()));
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) (void)p.recv(1, 5);
    });
    FAIL() << "expected DeadlockError";
  } catch (const DeadlockError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("rank 0: blocked in recv(src=1, tag=5)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 1: finished"), std::string::npos) << what;
  }
}

TEST_P(Backends, ZeroByteMessagesDeliver) {
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(),
               opts(GetParam()));
  auto r = m.run([&](Proc& p) {
    if (p.rank() == 0) {
      p.send_bytes(1, 3, nullptr, 0);
    } else {
      machine::Message msg = p.recv(0, 3);
      EXPECT_EQ(msg.bytes(), 0u);
      EXPECT_EQ(msg.src, 0);
    }
  });
  EXPECT_EQ(r.total_messages(), 1u);
  EXPECT_EQ(r.total_bytes(), 0u);
}

TEST_P(Backends, SelfSendIsNotADeadlock) {
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(),
               opts(GetParam()));
  m.run([&](Proc& p) {
    p.send_value<int>(p.rank(), 4, 100 + p.rank());
    EXPECT_EQ((p.recv_value<int>(p.rank(), 4)), 100 + p.rank());
  });
}

TEST_P(Backends, ProbeSeesQueuedMessagesUnderTheMatchingRule) {
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(),
               opts(GetParam()));
  m.run([&](Proc& p) {
    if (p.rank() == 1) {
      p.send_value<int>(0, 1, 10);
      p.send_value<int>(0, 2, 20);
      p.send_value<int>(0, 99, 0);  // sync: arrives last (sender clock)
      return;
    }
    (void)p.recv_value<int>(1, 99);  // both payload messages are now queued
    EXPECT_TRUE(p.probe(1, 1));
    EXPECT_TRUE(p.probe(1, 2));
    EXPECT_TRUE(p.probe(machine::kAnySource, machine::kAnyTag));
    EXPECT_FALSE(p.probe(1, 5));
    // The wildcard receive takes the earliest-arrival match: tag 1 was sent
    // first, so the sender's monotone clock makes it arrive first.
    machine::Message first = p.recv(machine::kAnySource, machine::kAnyTag);
    EXPECT_EQ(first.tag, 1);
    EXPECT_FALSE(p.probe(1, 1));
    EXPECT_TRUE(p.probe(1, 2));
    machine::Message second = p.recv(machine::kAnySource, machine::kAnyTag);
    EXPECT_EQ(second.tag, 2);
    EXPECT_FALSE(p.probe(machine::kAnySource, machine::kAnyTag));
  });
}

TEST_P(Backends, UnmatchedSendFailsTheRunWithATrafficReport) {
  // Rank 0 sends a message nobody receives; both programs return normally.
  // The simulated times would silently hide that bug, so run() must fail
  // the end-of-run drain check with a per-processor report.
  SimMachine m(3, CostModel::ipsc860(), machine::make_hypercube(),
               opts(GetParam()));
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) {
        p.send_value<int>(2, 6, 1);
        p.send_value<int>(1, 7, 2);
      }
      if (p.rank() == 1) (void)p.recv_value<int>(0, 7);
    });
    FAIL() << "expected the unreceived message to fail the run";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 sent, 1 received"), std::string::npos) << what;
    EXPECT_NE(what.find("rank 0: sent 2, received 0, 0 queued"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("rank 2: sent 0, received 0, 1 queued (earliest: "
                        "src=0, tag=6, 4 bytes)"),
              std::string::npos)
        << what;
  }
}

TEST_P(Backends, FiberSwitchesCountEventBackendResumesOnly) {
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(),
               opts(GetParam()));
  auto r = m.run([&](Proc& p) {
    p.send_value<int>(1 - p.rank(), 1, p.rank());
    (void)p.recv_value<int>(1 - p.rank(), 1);
  });
  if (GetParam() == Backend::kThreaded) {
    EXPECT_EQ(r.fiber_switches, 0u);
  } else {
    // Rank 0 starts, sends and blocks; rank 1 starts, sends, takes its
    // message and finishes; rank 0 resumes to take its message.
    EXPECT_EQ(r.fiber_switches, 3u);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, Backends,
                         ::testing::Values(Backend::kEvent,
                                           Backend::kThreaded),
                         [](const auto& info) {
                           return info.param == Backend::kEvent ? "event"
                                                                : "threaded";
                         });

// --- event-scheduler determinism ---------------------------------------------

TEST(EventSched, AnySourceReceivesInArrivalOrderNotSendOrder) {
  // Three senders charge different amounts of compute before sending, so
  // their messages *arrive* in the reverse of their rank order.  The
  // scheduler wakes the receiver at the earliest matching arrival, so the
  // wildcard receive order is a pure function of virtual time.
  SimMachine m(4, CostModel::ipsc860(), machine::make_hypercube(),
               opts(Backend::kEvent));
  m.run([&](Proc& p) {
    if (p.rank() == 0) {
      std::vector<int> srcs;
      for (int i = 0; i < 3; ++i)
        srcs.push_back(p.recv(machine::kAnySource, 7).src);
      EXPECT_EQ(srcs, (std::vector<int>{3, 2, 1}));
    } else {
      p.charge_time((4 - p.rank()) * 1e-3);  // rank 3 sends at t=1ms, ...
      p.send_value<int>(0, 7, p.rank());
    }
  });
}

TEST(EventSched, RepeatRunsAreBitIdentical) {
  auto once = [] {
    auto r = harness::run_jacobi(32, 3, 2, 2, "BLOCK", {},
                                 opts(Backend::kEvent));
    return std::pair{r.got, r.sim_time};
  };
  const auto a = once();
  const auto b = once();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(EventSched, FiberSwitchesPinnedOnNativeGauss256P16) {
  // The scheduling order is a pure function of virtual time: Gauss 256 on
  // 16 processors (native rung; the plan interpreter it falls back to
  // without a toolchain schedules identically) makes exactly this many
  // fiber resumes, as it did under the ucontext switch.
  auto compiled =
      compile::compile_source(apps::gauss_source(256, 16, "BLOCK"));
  SimMachine m = ipsc_machine(16, Backend::kEvent);
  interp::Init init;
  init.real["A"] = [](std::span<const interp::Index> g) {
    return apps::gauss_matrix_entry(256, g[0], g[1]);
  };
  interp::RunOptions ro;
  ro.native_backend = true;
  auto r = interp::run_compiled(compiled, m, init, ro);
  EXPECT_EQ(r.machine.fiber_switches, 14345u);
  EXPECT_EQ(r.machine.total_messages(), 15300u);
  EXPECT_NEAR(r.machine.exec_time, 2.10381376, 1e-8);
}

// --- fiber contract ----------------------------------------------------------

TEST(FiberContract, ThrowAfterManyYieldsPoisonsUnwindsAndRethrows) {
  // Every rank ping-pongs with its partner for many rounds (hundreds of
  // switches per fiber), then rank 0 throws while the others are blocked
  // in recv.  The error must reach run(), and every fiber stack must have
  // unwound (the guard destructors ran) before run() returns.
  constexpr int kProcs = 4;
  constexpr int kRounds = 500;
  int unwound = 0;
  struct Guard {
    int* count;
    ~Guard() { ++*count; }
  };
  SimMachine m(kProcs, CostModel::ipsc860(), machine::make_hypercube(),
               opts(Backend::kEvent));
  try {
    m.run([&](Proc& p) {
      Guard guard{&unwound};
      const int peer = p.rank() ^ 1;
      for (int i = 0; i < kRounds; ++i) {
        p.send_value<int>(peer, 1, i);
        EXPECT_EQ(p.recv_value<int>(peer, 1), i);
      }
      if (p.rank() == 0) throw RtsError("boom after many yields");
      (void)p.recv(machine::kAnySource, 2);  // never satisfied
    });
    FAIL() << "expected the rank-0 error to propagate";
  } catch (const RtsError& e) {
    EXPECT_NE(std::string(e.what()).find("boom after many yields"),
              std::string::npos);
  }
  EXPECT_EQ(unwound, kProcs);
}

TEST(FiberContract, PingPongOn4096ProcessorsCompletes) {
  constexpr int kProcs = 4096;
  MachineOptions mo = opts(Backend::kEvent);
  mo.fiber_stack_bytes = 64 * 1024;
  SimMachine m(kProcs, CostModel::ipsc860(), machine::make_hypercube(), mo);
  auto r = m.run([&](Proc& p) {
    const int peer = p.rank() ^ 1;
    for (int i = 0; i < 3; ++i) {
      p.send_value<int>(peer, 1, p.rank() + i);
      EXPECT_EQ(p.recv_value<int>(peer, 1), peer + i);
    }
  });
  EXPECT_EQ(r.total_messages(), 3u * kProcs);
  EXPECT_GE(r.fiber_switches, static_cast<std::uint64_t>(kProcs));
}

/// One 1 KiB frame per level; the buffer is volatile and feeds the result
/// so neither the frames nor the recursion can be optimized away.  At the
/// deepest level the fiber exchanges a message (a switch out and back in
/// with the stack nearly full) and reports how deep the stack went.
[[gnu::noinline]] long deep_exchange(Proc& p, int depth, const char* top,
                                     std::size_t& used) {
  volatile char buf[1024];
  buf[0] = static_cast<char>(depth);
  buf[sizeof buf - 1] = static_cast<char>(depth + 1);
  long sum = 0;
  if (depth == 0) {
    used = static_cast<std::size_t>(top - const_cast<const char*>(&buf[0]));
    p.send_value<int>(1 - p.rank(), 3, p.rank());
    sum = p.recv_value<int>(1 - p.rank(), 3);
  } else {
    sum = deep_exchange(p, depth - 1, top, used);
  }
  return sum + buf[0] + buf[sizeof buf - 1];
}

TEST(FiberContract, RecursionUsingMostOfA64KiBStackCompletes) {
  // Sanitizers pad every frame with redzones, so they recurse less deeply.
  const int depth = kSanitized ? 24 : 44;
  MachineOptions mo = opts(Backend::kEvent);
  mo.fiber_stack_bytes = 64 * 1024;
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(), mo);
  std::size_t used[2] = {0, 0};
  long sums[2] = {0, 0};
  m.run([&](Proc& p) {
    const char top = 0;
    sums[p.rank()] = deep_exchange(p, depth, &top, used[p.rank()]);
  });
  // Levels contribute buf[0] + buf[1023] = 2*depth + 1 each.
  const long levels = (depth + 1L) * (depth + 1L);
  EXPECT_EQ(sums[0], 1 + levels);
  EXPECT_EQ(sums[1], 0 + levels);
  if (!kSanitized) {
    EXPECT_GT(used[0], 40u * 1024) << "recursion did not fill the stack";
    EXPECT_GT(used[1], 40u * 1024);
  }
}

TEST(FiberContract, RoundingModeDoesNotLeakBetweenFibers) {
  // Rank 0 rounds upward, rank 1 downward, and each blocks in recv (a
  // switch) while its mode is set.  Each fiber must keep its own x87
  // control word (fegetround) and MXCSR (an SSE division) across switches,
  // and start with the mode of the thread that created it.
  volatile double one = 1.0;
  const double divisor[2] = {3.0, 10.0};  // 1/3 rounds down to nearest,
                                          // 1/10 rounds up to nearest
  fesetround(FE_TONEAREST);
  double nearest[2];
  for (int r = 0; r < 2; ++r) nearest[r] = one / divisor[r];
  SimMachine m(2, CostModel::ipsc860(), machine::make_hypercube(),
               opts(Backend::kEvent));
  int seen[2] = {-1, -1};
  double quotient[2] = {0.0, 0.0};
  m.run([&](Proc& p) {
    const int r = p.rank();
    seen[r] = fegetround();
    fesetround(r == 0 ? FE_UPWARD : FE_DOWNWARD);
    if (r == 0) {
      (void)p.recv_value<int>(1, 4);  // rank 1 runs in between
      p.send_value<int>(1, 5, 0);
    } else {
      p.send_value<int>(0, 4, 0);
      (void)p.recv_value<int>(0, 5);  // rank 0 runs in between
    }
    EXPECT_EQ(fegetround(), r == 0 ? FE_UPWARD : FE_DOWNWARD) << "rank " << r;
    quotient[r] = one / divisor[r];
    fesetround(FE_TONEAREST);
  });
  EXPECT_EQ(seen[0], FE_TONEAREST);
  EXPECT_EQ(seen[1], FE_TONEAREST) << "rank 0's upward mode leaked";
  EXPECT_GT(quotient[0], nearest[0]);
  EXPECT_LT(quotient[1], nearest[1]);
  EXPECT_EQ(fegetround(), FE_TONEAREST);
}

// --- threaded watchdog -------------------------------------------------------

TEST(ThreadedWatchdog, FiresWhenAPeerIsStuckOutsideRecv) {
  // Rank 1 is wedged in host-side work (never blocked in recv), so the
  // exact all-blocked detection cannot fire; the wall-clock watchdog must.
  MachineOptions mo = opts(Backend::kThreaded);
  mo.watchdog_seconds = 0.2;
  SimMachine m(2, CostModel::ideal(), machine::make_crossbar(), mo);
  try {
    m.run([&](Proc& p) {
      if (p.rank() == 0) {
        (void)p.recv(1, 5);
      } else {
        std::this_thread::sleep_for(std::chrono::milliseconds(700));
      }
    });
    FAIL() << "expected the watchdog DeadlockError";
  } catch (const DeadlockError& e) {
    EXPECT_NE(std::string(e.what()).find("watchdog timeout"),
              std::string::npos)
        << e.what();
  }
}

// --- backend differential: bit-identical results and simulated times ---------

struct SimArray {
  std::vector<double> a;
  double sim_time = 0.0;
  std::uint64_t messages = 0;
};

SimArray jacobi_on(Backend b, int n, int iters, int p, int q) {
  auto compiled = compile::compile_source(
      apps::jacobi_source(n, p, q, iters, "BLOCK"));
  SimMachine m = ipsc_machine(p * q, b);
  interp::Init init;
  init.real["A"] = [](std::span<const interp::Index> g) {
    return harness::jacobi_entry(g[0], g[1]);
  };
  auto r = interp::run_compiled(compiled, m, init, {});
  return {r.real_arrays.at("A"), r.machine.exec_time,
          r.machine.total_messages()};
}

SimArray gauss_on(Backend b, int n, int p) {
  auto compiled = compile::compile_source(apps::gauss_source(n, p, "BLOCK"));
  SimMachine m = ipsc_machine(p, b);
  interp::Init init;
  init.real["A"] = [n](std::span<const interp::Index> g) {
    return apps::gauss_matrix_entry(n, g[0], g[1]);
  };
  auto r = interp::run_compiled(compiled, m, init, {});
  return {r.real_arrays.at("A"), r.machine.exec_time,
          r.machine.total_messages()};
}

TEST(BackendDifferential, JacobiGridSweepBitIdentical) {
  const std::pair<int, int> grids[] = {{1, 1}, {1, 2}, {2, 1}, {2, 2},
                                       {1, 3}, {3, 1}, {2, 3}, {3, 3},
                                       {4, 4}};
  for (auto [p, q] : grids) {
    SCOPED_TRACE(testing::Message() << "grid " << p << "x" << q);
    SimArray ev = jacobi_on(Backend::kEvent, 32, 3, p, q);
    SimArray th = jacobi_on(Backend::kThreaded, 32, 3, p, q);
    EXPECT_EQ(ev.a, th.a);
    EXPECT_EQ(ev.sim_time, th.sim_time);
    EXPECT_EQ(ev.messages, th.messages);
  }
}

TEST(BackendDifferential, GaussProcSweepBitIdentical) {
  for (int p : {1, 2, 3, 4, 8, 16}) {
    SCOPED_TRACE(testing::Message() << "p=" << p);
    SimArray ev = gauss_on(Backend::kEvent, 24, p);
    SimArray th = gauss_on(Backend::kThreaded, 24, p);
    EXPECT_EQ(ev.a, th.a);
    EXPECT_EQ(ev.sim_time, th.sim_time);
    EXPECT_EQ(ev.messages, th.messages);
  }
}

// --- scale: 32x32 and 1024-processor machines --------------------------------

TEST(EventScale, Jacobi256On32x32GridMatchesOracleAndRepeats) {
  const auto t0 = std::chrono::steady_clock::now();
  SimArray r1 = jacobi_on(Backend::kEvent, 256, 1, 32, 32);
  SimArray r2 = jacobi_on(Backend::kEvent, 256, 1, 32, 32);
  const double host_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const auto want = harness::jacobi_oracle(256, 1);
  ASSERT_EQ(r1.a.size(), want.size());
  EXPECT_EQ(r1.a, want);  // element-wise stencil: exactly the oracle
  EXPECT_EQ(r1.a, r2.a);
  EXPECT_EQ(r1.sim_time, r2.sim_time);
  EXPECT_GT(r1.messages, 0u);
  // Two full 1024-processor runs take ~2.5 s in Release; sanitizer builds
  // are an order of magnitude slower, so only guard unsanitized ones.
  if (!kSanitized) {
    EXPECT_LT(host_seconds, 120.0) << "event backend lost its scalability";
  }
}

TEST(EventScale, Gauss1024ProcSkeletonSmoke) {
  auto compiled =
      compile::compile_source(apps::gauss_source(256, 1024, "BLOCK"));
  SimMachine m = ipsc_machine(1024, Backend::kEvent);
  interp::Init init;
  init.real["A"] = [](std::span<const interp::Index> g) {
    return apps::gauss_matrix_entry(256, g[0], g[1]);
  };
  interp::RunOptions ro;
  ro.skeleton = true;
  auto r = interp::run_compiled(compiled, m, init, ro);
  EXPECT_GT(r.machine.exec_time, 0.0);
  EXPECT_GT(r.machine.total_messages(), 0u);
}

// --- machine profiles --------------------------------------------------------

TEST(Profiles, PortabilitySetBuildsMachinesAtScale) {
  const auto& profiles = machine::portability_profiles();
  ASSERT_EQ(profiles.size(), 5u);
  for (const auto& prof : profiles) {
    SCOPED_TRACE(prof.name);
    SimMachine m = machine::make_profile_machine(prof, 1024);
    auto r = m.run([&](Proc& p) {
      const int peer = (p.rank() + 1) % p.nprocs();
      p.send_value<int>(peer, 1, p.rank());
      (void)p.recv_value<int>((p.rank() + p.nprocs() - 1) % p.nprocs(), 1);
    });
    EXPECT_GT(r.exec_time, 0.0);
    EXPECT_EQ(r.total_messages(), 1024u);
  }
  EXPECT_EQ(machine::profile_by_name("cluster/fat-tree").cost->name,
            "modern-cluster");
  EXPECT_THROW(machine::profile_by_name("cray/torus"), Error);
}

}  // namespace
}  // namespace f90d
