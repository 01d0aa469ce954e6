// The service workload: a closed loop of RUN requests against a live f90dcd
// over its Unix socket.  About three in four requests repeat a small hot set
// of programs (artifact hits); the rest are fresh programs with perturbed
// sizes and constants (artifact misses, full compiles).  Every response is
// checked against an unshared in-process service::compile_and_run of the
// same request.
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apps/sources.hpp"
#include "calibrate.hpp"
#include "phases.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "support/diag.hpp"
#include "trace.hpp"

extern char** environ;

namespace perfbench {

namespace {

constexpr int kHotSet = 4;        // one hot program per family
constexpr double kHotShare = 0.75;
constexpr int kProcs = 4;
constexpr const char* kSocket = "f90dcd.sock";  // relative: cwd is --workdir
// The daemon's artifact cache grows with every fresh program, so its peak
// RSS is read once this many loop requests have been sent (or at the end
// of a shorter loop), not after however many a run's time allowed.
constexpr long long kRssAtRequest = 2000;

// --- request programs --------------------------------------------------------

/// Insert self-initializing statements after the last directive line: wire
/// requests zero-fill every array, so each program fills its own inputs.
std::string with_init(const std::string& source, const std::string& lines) {
  const std::size_t last = source.rfind("\nC$");
  const std::size_t eol = source.find('\n', last + 1);
  return source.substr(0, eol + 1) + lines + source.substr(eol + 1);
}

/// A multiplier coprime to every size used here, so MOD(I * m + c, N) + 1 is
/// a permutation of 1..N.
long long coprime_multiplier(Rng& rng) {
  static constexpr long long kPrimes[] = {131, 137, 139, 149, 151, 157, 163, 167};
  return kPrimes[rng.uniform(0, 7)];
}

/// One program of family `family` (0 jacobi, 1 gauss, 2 irregular gather/
/// scatter, 3 ELL SpMV).  Hot programs have fixed sizes; fresh ones draw
/// them.  `salt` enters one initial value, so distinct salts give distinct
/// sources (and artifact keys) with the same control flow.
std::string make_program(int family, Rng& rng, bool fresh, long long salt) {
  using f90d::strformat;
  switch (family) {
    case 0: {
      const int n = fresh ? static_cast<int>(rng.uniform(16, 48)) : 32;
      const int iters = fresh ? static_cast<int>(rng.uniform(1, 4)) : 3;
      return with_init(f90d::apps::jacobi_source(n, 2, 2, iters),
                       strformat("      FORALL (I = 1:N, J = 1:N) A(I, J) = "
                                 "MOD(I * %lld + J * %lld, %lld) + %lld\n",
                                 rng.uniform(3, 29), rng.uniform(3, 29),
                                 rng.uniform(5, 17), salt));
    }
    case 1: {
      const int n = fresh ? static_cast<int>(rng.uniform(8, 32)) : 24;
      return with_init(
          f90d::apps::gauss_source(n, kProcs),
          strformat("      FORALL (I = 1:N, J = 1:N+1) A(I, J) = "
                    "1.0 / (1.0 + MOD(I * %lld + J * %lld, 13))\n"
                    "      FORALL (I = 1:N) A(I, I) = N + 2.0 + %lld\n",
                    rng.uniform(3, 37), rng.uniform(3, 37), salt));
    }
    case 2: {
      const int n = fresh ? static_cast<int>(rng.uniform(32, 96)) : 64;
      return with_init(
          f90d::apps::irregular_source(n, kProcs, 2),
          strformat("      FORALL (I = 1:N) U(I) = MOD(I * %lld + 3, N) + 1\n"
                    "      FORALL (I = 1:N) V(I) = MOD(I * %lld + 5, N) + 1\n"
                    "      FORALL (I = 1:N) B(I) = I * 2.0\n"
                    "      FORALL (I = 1:N) C(I) = I * 100.0 + %lld\n",
                    coprime_multiplier(rng), coprime_multiplier(rng), salt));
    }
    default: {
      const int n = fresh ? static_cast<int>(rng.uniform(32, 128)) : 64;
      const int nk = fresh ? static_cast<int>(rng.uniform(2, 4)) : 3;
      return with_init(
          f90d::apps::spmv_ell_source(n, nk, kProcs, 2),
          strformat("      FORALL (I = 1:N, J = 1:NK) COL(I, J) = "
                    "MOD(I * %lld + J * 5, N) + 1\n"
                    "      FORALL (I = 1:N, J = 1:NK) A(I, J) = MOD(I + J, 7) + 0.25\n"
                    "      FORALL (I = 1:N) X(I) = MOD(I, 17) * 0.5 + %lld\n",
                    rng.uniform(3, 61), salt));
    }
  }
}

std::vector<std::string> hot_set(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::string> out;
  for (int f = 0; f < kHotSet; ++f) out.push_back(make_program(f, rng, false, 0));
  return out;
}

/// Request `k` of the seeded stream: a hot-set index, or a fresh program.
struct StreamItem {
  bool fresh = false;
  int hot = 0;
  std::string source;
};

StreamItem stream_item(std::uint64_t seed, long long k,
                       const std::vector<std::string>& hot) {
  Rng rng(seed * 1000003ULL + static_cast<std::uint64_t>(k) + 1);
  StreamItem it;
  it.fresh = rng.unit() >= kHotShare;
  const int family = static_cast<int>(rng.uniform(0, kHotSet - 1));
  if (it.fresh) {
    it.source = make_program(family, rng, true, k + 1);
  } else {
    it.hot = family;
    it.source = hot[static_cast<std::size_t>(family)];
  }
  return it;
}

f90d::service::WireRequest run_request(const std::string& source) {
  f90d::service::WireRequest req;
  req.verb = "RUN";
  req.source = source;
  return req;
}

// --- responses ---------------------------------------------------------------

struct Reply {
  long long index = -1;  ///< position in the stream (-1: hot-set warm-up)
  int hot = -1;          ///< hot-set program, -1 for a fresh one
  bool ok = false;
  std::string error;
  double latency_ms = 0;
  double at_s = 0;  ///< when it was sent, on the loop's clock
  bool traced = false;
  double virtual_time_s = 0;
  double messages = 0;
  double bytes = 0;
  double compile_ms = 0;
  double run_ms = 0;
  bool artifact_hit = false;
  double plan_misses = 0;
  double schedules_built = 0;
  double shared_schedule_hits = 0;
  double shared_plan_hits = 0;
};

/// The first number after `"key":` that follows `anchor` in `body`.
double number_after(const std::string& body, const std::string& anchor,
                    const std::string& key) {
  const std::size_t at = body.find(anchor);
  if (at == std::string::npos) return 0;
  return f90d::json_number_or(body.substr(at), key, 0);
}

Reply send(const std::string& source) {
  Reply r;
  const auto t0 = Clock::now();
  const f90d::service::ClientResult cr =
      f90d::service::request(kSocket, run_request(source));
  r.latency_ms = ms_between(t0, Clock::now());
  r.ok = cr.connected && cr.ok;
  if (!r.ok) {
    r.error = cr.connected ? cr.body : cr.error;
    return r;
  }
  const std::string& b = cr.body;
  r.virtual_time_s = f90d::json_number_or(b, "virtual_time_s", -1);
  r.messages = f90d::json_number_or(b, "messages", -1);
  r.bytes = f90d::json_number_or(b, "bytes", -1);
  r.compile_ms = f90d::json_number_or(b, "compile_ms", 0);
  r.run_ms = f90d::json_number_or(b, "run_ms", 0);
  r.artifact_hit = b.find("\"artifact_hit\":true") != std::string::npos;
  r.plan_misses = number_after(b, "\"plan_cache\"", "misses");
  r.schedules_built = number_after(b, "\"schedule_cache\"", "built");
  r.shared_schedule_hits = number_after(b, "\"schedule_cache\"", "shared_hits");
  r.shared_plan_hits = number_after(b, "\"plan_cache\"", "shared_hits");
  return r;
}

// --- the daemon --------------------------------------------------------------

/// One f90dcd process.  The destructor stops it and waits for it to end.
class Daemon {
 public:
  explicit Daemon(const std::string& binary) {
    ::unlink(kSocket);
    const std::string sock = std::string("--socket=") + kSocket;
    const std::string work = "--workers=1";
    char* argv[] = {const_cast<char*>(binary.c_str()), const_cast<char*>(sock.c_str()),
                    const_cast<char*>(work.c_str()), nullptr};
    // The daemon's stdout goes to our stderr: stdout carries the protocol.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv, environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + binary);
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Block until the daemon answers PING (false after `timeout_s`).
  bool wait_ready(double timeout_s) const {
    const auto t0 = Clock::now();
    f90d::service::WireRequest ping;
    ping.verb = "PING";
    while (seconds_since(t0) < timeout_s) {
      if (f90d::service::request(kSocket, ping).ok) return true;
      ::usleep(200);
    }
    return false;
  }

  [[nodiscard]] double peak_rss() const { return peak_rss_mb(std::to_string(pid_)); }

  /// SHUTDOWN, then wait; SIGKILL if it has not ended within 10 s.
  void stop() {
    if (pid_ <= 0) return;
    f90d::service::WireRequest req;
    req.verb = "SHUTDOWN";
    (void)f90d::service::request(kSocket, req);
    int status = 0;
    const auto t0 = Clock::now();
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (seconds_since(t0) > 10) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      ::usleep(2000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Pin the calling thread, and the processes it starts, to the first CPU of
/// its affinity mask; `previous` receives the mask to restore.
bool pin_to_one_cpu(cpu_set_t& previous) {
  if (::sched_getaffinity(0, sizeof(previous), &previous) != 0) {
    std::fprintf(stderr, "perfbench: cannot read the CPU affinity mask\n");
    return false;
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &previous)) {
      CPU_SET(c, &one);
      break;
    }
  return ::sched_setaffinity(0, sizeof(one), &one) == 0;
}

// --- checks ------------------------------------------------------------------

/// What a response is checked against: an in-process run of the same request.
struct Reference {
  double virtual_time_s = -2;  ///< -2: the reference run failed (never matches)
  double messages = 0;
  double bytes = 0;
  f90d::interp::ProgramResult result;
};

Reference reference_of(const f90d::service::Outcome& o) {
  if (!o.ok) {
    std::fprintf(stderr, "perfbench: reference run failed: %s\n", o.error.c_str());
    return {};
  }
  return Reference{o.result.machine.exec_time,
                   static_cast<double>(o.result.machine.total_messages()),
                   static_cast<double>(o.result.machine.total_bytes()), o.result};
}

/// Cold references: an unshared service::compile_and_run of each distinct
/// source, on `threads` threads.
std::map<std::string, Reference> cold_references(const std::vector<std::string>& sources,
                                                 int threads) {
  std::vector<Reference> out(sources.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < sources.size();) {
      f90d::service::Outcome o;
      try {
        o = f90d::service::compile_and_run(
            sources[i], f90d::service::spec_from_request(run_request(sources[i])));
      } catch (const std::exception& e) {
        o.error = e.what();
      }
      out[i] = reference_of(o);
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) pool.emplace_back(work);
  for (std::thread& t : pool) t.join();
  std::map<std::string, Reference> by_source;
  for (std::size_t i = 0; i < sources.size(); ++i) by_source.emplace(sources[i], std::move(out[i]));
  return by_source;
}

/// Warm references for the hot set: the second answer of a private
/// in-process ServiceCore.  Once the daemon has answered a hot program, its
/// shared schedule store lets later runs skip the PARTI inspector and its
/// messages, so warm answers legitimately differ from the unshared run.
std::map<std::string, Reference> warm_references(const std::vector<std::string>& hot) {
  f90d::service::ServiceCore core;
  std::map<std::string, Reference> out;
  for (const std::string& src : hot) {
    const auto spec = f90d::service::spec_from_request(run_request(src));
    (void)core.submit(src, spec);
    out.emplace(src, reference_of(core.submit(src, spec)));
  }
  return out;
}

/// Check every reply: set-up answers and fresh programs against the cold
/// reference, hot-set answers in the loop against the warm one.  One
/// attempted operation per reply.
void check_replies(const std::vector<Reply>& replies, const std::vector<std::string>& sources,
                   const std::map<std::string, Reference>& cold,
                   const std::map<std::string, Reference>& warm, Failures& f) {
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const Reply& r = replies[i];
    const bool warm_hot = r.hot >= 0 && r.index >= 0;
    const Reference& ref = (warm_hot ? warm : cold).at(sources[i]);
    std::string why;
    if (!r.ok) why = "request failed: " + r.error;
    else if (r.virtual_time_s != ref.virtual_time_s || r.messages != ref.messages ||
             r.bytes != ref.bytes)
      why = f90d::strformat("response differs from the in-process %s run: virtual_time_s "
                            "%.17g vs %.17g, messages %.0f vs %.0f, bytes %.0f vs %.0f",
                            warm_hot ? "warm" : "unshared", r.virtual_time_s,
                            ref.virtual_time_s, r.messages, ref.messages, r.bytes, ref.bytes);
    f.record(why.empty(), "request " + std::to_string(r.index) + ": " + why);
  }
}

// --- the phases --------------------------------------------------------------

struct Session {
  std::vector<std::string> hot;
  std::vector<Reply> hot_replies;  ///< first (cold) answer per hot program
  double setup_s = 0;
};

/// Spawn-to-answered set-up: start the daemon and run the hot set once.
Session set_up(const Args& args, std::unique_ptr<Daemon>& daemon) {
  Session s;
  s.hot = hot_set(args.seed);
  const auto t0 = Clock::now();
  daemon = std::make_unique<Daemon>(args.f90dcd);
  if (!daemon->wait_ready(30)) throw std::runtime_error("f90dcd did not come up");
  for (int h = 0; h < kHotSet; ++h) {
    s.hot_replies.push_back(send(s.hot[static_cast<std::size_t>(h)]));
    s.hot_replies.back().hot = h;
  }
  s.setup_s = seconds_since(t0);
  return s;
}

Structure hot_structure(const Session& s) {
  Structure st;
  for (const Reply& r : s.hot_replies) {
    st.sim_s += r.virtual_time_s;
    st.messages += static_cast<std::uint64_t>(r.messages);
    st.bytes += static_cast<std::uint64_t>(r.bytes);
    st.plan_misses += static_cast<long long>(r.plan_misses);
    st.schedules_built += static_cast<long long>(r.schedules_built);
  }
  for (const std::string& src : s.hot)
    st.comm_actions += comm_counts(f90d::compile::compile_source(src).program).actions;
  return st;
}

/// The closed loop: one client sending its next request as soon as the
/// previous one is answered, for `seconds`, in stream order, timing the
/// calibration kernel every kCalibrateEvery_s between requests.  `traced`
/// wraps every other request in a span.
std::vector<Reply> closed_loop(const Args& args, const Session& s, const Daemon& daemon,
                               double seconds, bool traced, Calibrator& cal,
                               std::vector<std::string>& sources, double& window_s,
                               double& rss_mb) {
  std::vector<Reply> replies;
  Tracer tracer;
  const auto t0 = Clock::now();
  cal.record(0.0);
  double last_cal = 0;
  for (long long k = 0; seconds_since(t0) < seconds; ++k) {
    if (k == kRssAtRequest) rss_mb = daemon.peak_rss();
    StreamItem it = stream_item(args.seed, k, s.hot);
    Reply r;
    const double at = seconds_since(t0);
    if (traced && k % 2 == 1) {
      Tracer::Scope span(tracer, "service.request");
      r = send(it.source);
      r.traced = true;
    } else {
      r = send(it.source);
    }
    r.index = k;
    r.at_s = at;
    r.hot = it.fresh ? -1 : it.hot;
    replies.push_back(std::move(r));
    sources.push_back(std::move(it.source));
    if (seconds_since(t0) - last_cal >= kCalibrateEvery_s) {
      last_cal = seconds_since(t0);
      cal.record(last_cal);
    }
  }
  window_s = seconds_since(t0);
  if (static_cast<long long>(replies.size()) <= kRssAtRequest) rss_mb = daemon.peak_rss();
  return replies;
}

/// Request latencies at reference speed; `traced` -1 takes every request,
/// 0/1 only the untraced/traced ones.
std::vector<double> latencies(const std::vector<Reply>& rs, const Calibrator& cal,
                              int traced) {
  std::vector<double> v;
  for (const Reply& r : rs)
    if (traced < 0 || r.traced == (traced == 1)) v.push_back(r.latency_ms * cal.factor(r.at_s));
  return v;
}

/// The interp and native layers for the hot set, in-process (the daemon
/// runs the plan rung): the skeleton floor, the plan rung, their
/// difference, and one cold native run for the JIT.  Programs that index
/// through arrays they fill themselves cannot run in skeleton mode (it
/// computes no values), so the floor and the plan rung are timed over the
/// other hot programs.
std::map<std::string, double> hot_set_rungs(const std::vector<std::string>& hot) {
  constexpr int kReps = 3;
  const double factor = kReferenceMs / setup_calibration();
  double jit_ms = 0, compiles = 0;
  std::vector<std::string> skeletal;
  for (const std::string& src : hot) {
    f90d::service::RunSpec spec = f90d::service::spec_from_request(run_request(src));
    spec.run.skeleton = true;
    try {
      (void)f90d::service::compile_and_run(src, spec);
      skeletal.push_back(src);
    } catch (const f90d::Error&) {
    }
  }
  auto pass_ms = [&](const std::vector<std::string>& sources, bool skeleton, bool native) {
    double ms = 0;
    for (const std::string& src : sources) {
      f90d::service::RunSpec spec = f90d::service::spec_from_request(run_request(src));
      spec.run.skeleton = skeleton;
      spec.run.native_backend = native;
      const f90d::service::Outcome o = f90d::service::compile_and_run(src, spec);
      ms += o.run_ms * factor;
      jit_ms += o.result.native_compile_ms * factor;
      compiles += static_cast<double>(o.result.native_compiles);
    }
    return ms;
  };
  (void)pass_ms(hot, false, true);
  std::vector<double> skeleton, plan;
  for (int i = 0; i < kReps; ++i) {
    skeleton.push_back(pass_ms(skeletal, true, false));
    plan.push_back(pass_ms(skeletal, false, false));
  }
  const double floor = percentile(skeleton, 0.5), planned = percentile(plan, 0.5);
  return {{"interp.skeleton_ms", floor},
          {"interp.plan_ms", planned},
          {"interp.above_floor_ms", planned - floor},
          {"native.compiles", compiles},
          {"native.jit_ms", jit_ms}};
}

}  // namespace

int service_main(const Args& args) {
  if (args.f90dcd.empty()) {
    std::fprintf(stderr, "perfbench: the service workload needs --f90dcd\n");
    return 2;
  }
  if (::chdir(args.workdir.c_str()) != 0) {
    std::fprintf(stderr, "perfbench: cannot enter %s\n", args.workdir.c_str());
    return 2;
  }
  // One client and one daemon worker, pinned with the daemon to this
  // thread's first CPU: the loop is sequential anyway, and the calibration
  // kernel the client times between requests then runs on the same CPU as
  // the requests (other tenants slow each CPU of a shared host differently).
  cpu_set_t all;
  if (!pin_to_one_cpu(all)) return 2;

  Failures f;
  Tracer compile_tracer;
  Calibrator compile_cal;
  if (args.phase == "trace") {
    // Layer-by-layer compiles of the hot set and the first fresh programs
    // of the stream, on the client side, before the daemon starts.
    const std::vector<std::string> hot = hot_set(args.seed);
    std::vector<std::string> fresh;
    for (long long k = 0; fresh.size() < 32; ++k) {
      StreamItem it = stream_item(args.seed, k, hot);
      if (it.fresh) fresh.push_back(std::move(it.source));
    }
    const auto t0 = Clock::now();
    while (seconds_since(t0) < 0.1 * args.seconds) {
      compile_cal.record(compile_tracer.elapsed_s());
      for (const std::string& src : fresh) (void)compile_traced(compile_tracer, src);
    }
  }

  std::unique_ptr<Daemon> daemon;
  const Session s = set_up(args, daemon);
  const Structure hot_st = hot_structure(s);
  emit_setup(hot_st, s.setup_s);
  const double setup_kernel_ms = setup_calibration();

  std::vector<Reply> replies = s.hot_replies;
  std::vector<std::string> sources = s.hot;
  double window_s = 0, daemon_rss = 0;
  std::vector<Reply> loop;
  Calibrator cal;
  if (args.phase != "setup") {
    std::vector<std::string> loop_sources;
    loop = closed_loop(args, s, *daemon, args.phase == "trace" ? 0.7 * args.seconds : args.seconds,
                       args.phase == "trace", cal, loop_sources, window_s, daemon_rss);
    replies.insert(replies.end(), loop.begin(), loop.end());
    sources.insert(sources.end(), loop_sources.begin(), loop_sources.end());
  }
  daemon.reset();

  // Check every response against an in-process run of the same request.
  std::vector<std::string> distinct = sources;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  ::sched_setaffinity(0, sizeof(all), &all);
  const auto cold = cold_references(distinct, std::max(1, CPU_COUNT(&all)));
  check_replies(replies, sources, cold, warm_references(s.hot), f);

  std::map<std::string, double> m;
  std::map<std::string, double> info = {
      {"samples", static_cast<double>(loop.size())},
      {"setup_factor", kReferenceMs / setup_kernel_ms}};
  if (args.phase == "measure") {
    const std::vector<double> lat = latencies(loop, cal, -1);
    std::vector<double> raw;
    for (const Reply& r : loop) raw.push_back(r.latency_ms);
    info["run_ms_p50"] = percentile(lat, 0.5);
    info["raw_run_ms_p50"] = percentile(raw, 0.5);
    info["kernel_ms"] = cal.median_ms();
    m = {{"run_ms_p80", percentile(lat, 0.8)},
         {"throughput_per_s",
          static_cast<double>(loop.size()) / window_s * cal.median_ms() / kReferenceMs},
         {"sim_s", hot_st.sim_s},
         {"peak_rss_mb", daemon_rss}};
  } else if (args.phase == "trace") {
    std::vector<f90d::interp::ProgramResult> hot_results;
    for (const std::string& src : s.hot) hot_results.push_back(cold.at(src).result);
    m = layer_counters(hot_results);
    for (const std::string& stage : compile_stages())
      m[stage + "_ms"] = compile_tracer.median_ms(stage, compile_cal);
    CommCounts comm;
    for (const std::string& src : s.hot) {
      const CommCounts c = comm_counts(f90d::compile::compile_source(src).program);
      comm.actions += c.actions;
      comm.eliminated += c.eliminated;
    }
    m["compile.comm_actions"] = static_cast<double>(comm.actions);
    m["compile.comm_eliminated"] = static_cast<double>(comm.eliminated);
    for (const auto& [k, v] : hot_set_rungs(s.hot)) m[k] = v;
    std::vector<double> compile_ms, run_ms, queue_ms;
    double hits = 0, fresh = 0, shared_sched = 0, shared_plan = 0;
    for (const Reply& r : loop) {
      if (!r.artifact_hit) compile_ms.push_back(r.compile_ms);
      run_ms.push_back(r.run_ms);
      // A response reports its artifact's compile time on a hit as well.
      const double compiled_now = r.artifact_hit ? 0.0 : r.compile_ms;
      queue_ms.push_back(r.latency_ms - compiled_now - r.run_ms);
      hits += r.artifact_hit ? 1 : 0;
      fresh += r.hot < 0 ? 1 : 0;
      shared_sched += r.shared_schedule_hits;
      shared_plan += r.shared_plan_hits;
    }
    const double n = std::max<double>(1.0, static_cast<double>(loop.size()));
    m["service.compile_ms"] = percentile(compile_ms, 0.5);
    m["service.run_ms"] = percentile(run_ms, 0.5);
    m["service.queue_ms"] = percentile(queue_ms, 0.5);
    m["service.artifact_hit_ratio"] = hits / n;
    m["service.fresh_share"] = fresh / n;
    m["service.shared_schedule_hits"] = shared_sched / n;
    m["service.shared_plan_hits"] = shared_plan / n;
    const double untraced = percentile(latencies(loop, cal, 0), 0.5);
    m["trace.overhead_pct"] =
        100.0 * (percentile(latencies(loop, cal, 1), 0.5) - untraced) / untraced;
    info["run_ms_p50"] = untraced;
    if (!args.trace_out.empty()) std::ofstream(args.trace_out) << compile_tracer.chrome_json();
  }
  emit_result(f, hot_st, m, info);
  return 0;
}

}  // namespace perfbench
