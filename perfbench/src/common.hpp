#pragma once
// Shared pieces of the perfbench driver: clocks, the seeded generator, the
// percentile rule, the per-run structural record the determinism guard
// compares, and the line protocol run.py reads (one "SETUP {...}" line when
// set-up is done, one "RESULT {...}" line at the end).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "interp/interp.hpp"
#include "support/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64: the only source of randomness; every input is a pure
/// function of the --seed argument.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  long long uniform(long long lo, long long hi) {
    return lo + static_cast<long long>(next() %
                                       static_cast<std::uint64_t>(hi - lo + 1));
  }
  /// Uniform double in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Nearest-rank percentile (q in [0, 1]) of an unsorted sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

/// The counts that must repeat exactly across repetitions of one workload
/// (the determinism guard): drift in any of them is a failure, not noise.
struct Structure {
  double sim_s = 0;                 ///< max final clock, summed over programs
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  long long comm_actions = 0;
  long long plan_misses = 0;
  long long schedules_built = 0;
  long long native_compiles = 0;

  bool operator==(const Structure&) const = default;

  void add(const f90d::interp::ProgramResult& r) {
    sim_s += r.machine.exec_time;
    messages += r.machine.total_messages();
    bytes += r.machine.total_bytes();
    plan_misses += r.plan_misses;
    schedules_built += r.schedules_built;
    native_compiles += r.native_compiles;
  }

  void write(f90d::JsonWriter& w) const {
    w.begin_object()
        .field("sim_s", sim_s)
        .field("messages", static_cast<unsigned long long>(messages))
        .field("bytes", static_cast<unsigned long long>(bytes))
        .field("comm_actions", comm_actions)
        .field("plan_misses", plan_misses)
        .field("schedules_built", schedules_built)
        .field("native_compiles", native_compiles)
        .end_object();
  }
};

/// Failures seen during a phase: each one counts in `failed` and its text
/// goes to stderr and into the RESULT line.
struct Failures {
  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> notes;

  /// Count one attempted operation; `ok` false records `why`.
  void record(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
  /// A failure of an operation already counted (a second check on it).
  void fail(const std::string& why) {
    ++failed;
    if (notes.size() < 20) notes.push_back(why);
    std::fprintf(stderr, "perfbench: FAIL %s\n", why.c_str());
  }

  void write(f90d::JsonWriter& w) const {
    w.field("attempted", attempted).field("failed", failed);
    w.key("failures").begin_array();
    for (const std::string& n : notes) w.value(n);
    w.end_array();
  }
};

/// VmHWM (peak resident set) of process `pid` ("self" for this one) in MiB,
/// or 0 when /proc is unreadable.
double peak_rss_mb(const std::string& pid = "self");

/// The SETUP line: set-up is done.  Carries the cold run's structure and,
/// when the driver timed set-up itself (`setup_s` >= 0), that time.
void emit_setup(const Structure& s, double setup_s = -1);

/// The RESULT line: failures, structure, metrics and informational values.
void emit_result(const Failures& f, const Structure& s,
                 const std::map<std::string, double>& metrics,
                 const std::map<std::string, double>& info);

}  // namespace perfbench
