#pragma once
// NativeCache: turn lowered kernel sources into callable function pointers.
//
// The cache is process-global (one compiler invocation serves every
// simulated processor, every DO trip, and every run in the process) and
// keyed by the complete source text — lower_plan() emits byte-identical
// text for structurally identical plans, so the key needs no hashing and
// cannot collide.  A content hash is used only to name the scratch files.
//
// Failures are memoized too: a source that failed to compile (or a probe
// that showed no usable toolchain) never retries, so a broken environment
// costs one attempt and then behaves exactly like F90D_NATIVE=OFF.
//
// Thread-safety (service mode: many worker threads attach concurrently):
//   * the memo map is read under a shared lock — warm requests never
//     serialize on each other;
//   * a cold source registers an in-flight record under the exclusive
//     lock and compiles OUTSIDE any cache lock, so two distinct sources
//     compile concurrently; a second thread asking for the same source
//     while it compiles blocks on that record and reuses the one result
//     (JitStats::coalesced counts these);
//   * dlopen handles are kept in a table (never dlclose'd — cached
//     KernelFn pointers live for the process, like the cache itself);
//   * statistics live behind their own mutex and are snapshotted whole.
//
// Requirements and switches:
//   * CMake bakes the configure-time compiler path in as F90D_NATIVE_CXX;
//     without the definition (-DF90D_NATIVE=OFF) available() is false and
//     every caller falls back to the tape interpreter.
//   * Env F90D_NATIVE_CXX overrides the baked compiler path.
//   * Env F90D_NATIVE=0 disables the backend at run time (the sanitizer
//     kill-switch; generated objects are built uninstrumented).
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "native/lower.hpp"

namespace f90d::native {

/// Process-global compile statistics (readable while running; the interp
/// layer snapshots deltas around each machine run for per-run reporting).
struct JitStats {
  long long cache_hits = 0;  ///< get_or_compile served from the map
  long long compiles = 0;    ///< compiler invocations that produced a .so
  long long failures = 0;    ///< compiler invocations that did not
  long long dlopens = 0;
  long long coalesced = 0;   ///< waits joined onto an in-flight compile
  double compile_ms = 0;     ///< wall time inside the system compiler
};

class NativeCache {
 public:
  static NativeCache& instance();

  /// True when generated kernels can actually run: the backend is compiled
  /// in, not disabled by env, and a one-time trivial compile+dlopen probe
  /// of the system compiler succeeded.
  bool available();

  /// The compiled kernel for `source`, or nullptr (memoized) on failure.
  KernelFn get_or_compile(const std::string& source);

  JitStats stats();

  /// Number of live dlopen handles (the kernels loaded so far).
  std::size_t handle_count();

  /// The scratch directory compiles write into ("" before the first
  /// compile).  Each compile removes its files once the kernel is loaded,
  /// and the directory itself goes when the cache is destroyed.
  [[nodiscard]] const std::string& scratch_dir() const { return dir_; }

 private:
  /// One cold compile in progress; waiters block on cv until done.
  struct Inflight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    KernelFn fn = nullptr;
  };

  NativeCache() = default;
  ~NativeCache();

  /// Compile + dlopen with no cache lock held.  Only touches per-call
  /// scratch files (unique names via counter_) and the stats/handles
  /// structures under their own locks.
  KernelFn compile(const std::string& source);
  bool ensure_probe();
  bool ensure_dir();

  std::shared_mutex mu_;  ///< guards map_ and inflight_
  std::unordered_map<std::string, KernelFn> map_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;

  std::mutex stats_mu_;
  JitStats stats_;

  std::mutex handles_mu_;
  std::vector<void*> handles_;  ///< intentionally never dlclose'd

  std::mutex probe_mu_;   ///< serializes the one-time toolchain probe
  int probe_state_ = 0;   ///< 0 = untried, 1 = ok, -1 = failed

  std::once_flag dir_once_;
  std::string dir_;       ///< scratch directory (created on first compile)
  std::atomic<int> counter_{0};
};

}  // namespace f90d::native
