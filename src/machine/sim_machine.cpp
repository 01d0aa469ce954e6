#include "machine/sim_machine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <numeric>
#include <thread>
#include <utility>

#include "machine/fiber.hpp"
#include "support/diag.hpp"

namespace f90d::machine {

namespace {

/// Shared formatting of the per-processor wait-state report (deadlock and
/// watchdog diagnostics on both backends).
enum class ProcState { kRunning, kBlocked, kDone };

std::string wildcard(int v) {
  return v == kAnySource ? std::string("ANY") : std::to_string(v);
}

std::string wait_line(int rank, ProcState state, int wait_src, int wait_tag,
                      double clock, std::size_t queued) {
  switch (state) {
    case ProcState::kBlocked:
      return strformat(
          "  rank %d: blocked in recv(src=%s, tag=%s) at t=%.9g s; "
          "%zu queued message(s)",
          rank, wildcard(wait_src).c_str(), wildcard(wait_tag).c_str(), clock,
          queued);
    case ProcState::kDone:
      return strformat("  rank %d: finished at t=%.9g s", rank, clock);
    case ProcState::kRunning:
      return strformat("  rank %d: running (not in recv) at t=%.9g s", rank,
                       clock);
  }
  return {};
}

}  // namespace

int Proc::nprocs() const { return machine_->nprocs(); }
const CostModel& Proc::cost() const { return machine_->cost(); }

void Proc::charge_flops(double n) {
  const double t = n * cost().time_per_flop;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_int_ops(double n) {
  const double t = n * cost().time_per_int_op;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_copy(double bytes) {
  const double t = bytes * cost().time_per_copy_byte;
  clock_ += t;
  stats_.compute_time += t;
}

void Proc::charge_time(double seconds) {
  clock_ += seconds;
  stats_.compute_time += seconds;
}

void Proc::send_bytes(int dest, int tag, const void* data, std::size_t bytes) {
  std::vector<std::byte> payload = acquire_payload(bytes);
  if (bytes > 0) std::memcpy(payload.data(), data, bytes);
  send_payload(dest, tag, std::move(payload));
}

std::vector<std::byte> Proc::acquire_payload(std::size_t bytes) {
  bool reused = false;
  std::vector<std::byte> buf = machine_->pool(rank_).acquire(bytes, reused);
  if (reused) stats_.pool_reuses += 1;
  return buf;
}

void Proc::release_payload(std::vector<std::byte>&& buf) {
  machine_->pool(rank_).release(std::move(buf));
}

void Proc::send_payload(int dest, int tag, std::vector<std::byte>&& payload) {
  require(dest >= 0 && dest < nprocs(), "send: destination rank in range");
  const std::size_t bytes = payload.size();
  Message m;
  m.src = rank_;
  m.tag = tag;
  m.payload = std::move(payload);

  // Injection: the sender is busy for latency + bytes*beta (blocking send,
  // as on the iPSC/860's store-and-forward style NX layer).
  const double inject =
      cost().msg_latency + static_cast<double>(bytes) * cost().time_per_byte;
  clock_ += inject;
  stats_.comm_time += inject;

  // Wire delay beyond the first hop.
  const int hops = machine_->topology().hops(rank_, dest);
  const double extra =
      hops > 1 ? static_cast<double>(hops - 1) * cost().time_per_hop : 0.0;
  m.arrival = clock_ + extra;

  stats_.messages_sent += 1;
  stats_.bytes_sent += bytes;
  machine_->deliver(dest, std::move(m));
}

Message Proc::recv(int src, int tag) {
  Message m = machine_->blocking_recv(*this, src, tag);
  if (m.arrival > clock_) {
    stats_.comm_time += m.arrival - clock_;
    clock_ = m.arrival;
  }
  stats_.messages_received += 1;
  return m;
}

bool Proc::probe(int src, int tag) {
  return machine_->probe_mailbox(rank_, src, tag);
}

std::uint64_t RunResult::total_messages() const {
  return std::accumulate(stats.begin(), stats.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ProcStats& s) {
                           return acc + s.messages_sent;
                         });
}

std::uint64_t RunResult::total_bytes() const {
  return std::accumulate(stats.begin(), stats.end(), std::uint64_t{0},
                         [](std::uint64_t acc, const ProcStats& s) {
                           return acc + s.bytes_sent;
                         });
}

// --- event-driven backend ----------------------------------------------------
//
// One fiber per simulated processor, driven by a single-threaded scheduler.
// The ready set is ordered by (virtual-time key, rank); the key of a task
// woken from recv is max(its clock, earliest matching arrival).  Because the
// scheduler always resumes the lowest key, by the time a woken receiver runs
// every still-runnable processor has a clock at or beyond that key, so no
// later send can beat the message the receiver is about to take — wildcard
// matching is a pure function of virtual time.
class SimMachine::EventLoop {
 public:
  EventLoop(SimMachine& m, const NodeProgram& program)
      : m_(m), program_(program) {
    const int n = m_.nprocs();
    procs_.reserve(static_cast<std::size_t>(n));
    for (int r = 0; r < n; ++r) procs_.emplace_back(m_, r);
    for (int r = 0; r < n; ++r)
      tasks_.emplace_back(m_.options().fiber_stack_bytes,
                          [this, r] { body(r); });
    ready_.reserve(static_cast<std::size_t>(4 * n));
    for (int r = 0; r < n; ++r) push_ready(0.0, r);
  }

  RunResult run() {
    const int n = m_.nprocs();
    while (done_ < n) {
      const int r = pop_ready();
      if (r < 0) {
        // No runnable processor, not everyone finished: communication
        // deadlock.  Record the report, then poison and resume every
        // blocked fiber so their stacks unwind before we rethrow.
        if (!first_error_)
          first_error_ =
              std::make_exception_ptr(DeadlockError(deadlock_report()));
        const int woke = poison_and_wake(
            "deadlock: every live processor is blocked in recv");
        require(woke > 0, "event loop: stuck with no blocked processor");
        continue;
      }
      Task& t = tasks_[static_cast<std::size_t>(r)];
      t.state = Task::State::kRunning;
      ++resumes_;
      t.fiber.resume();
      if (t.fiber.finished()) {
        t.state = Task::State::kDone;
        ++done_;
        if (t.error) {
          if (!first_error_) {
            first_error_ = t.error;
            poison_and_wake(
                strformat("node program on rank %d failed; unwinding", r));
          }
          t.error = nullptr;
        }
      }
      // Otherwise the task marked itself kBlocked and yielded from recv.
    }
    if (first_error_) std::rethrow_exception(first_error_);

    RunResult result;
    result.fiber_switches = resumes_;
    result.proc_times.reserve(procs_.size());
    result.stats.reserve(procs_.size());
    for (const Proc& p : procs_) {
      result.proc_times.push_back(p.clock());
      result.stats.push_back(p.stats());
      result.exec_time = std::max(result.exec_time, p.clock());
    }
    return result;
  }

  Message blocking_recv(Proc& p, int src, int tag) {
    const int r = p.rank();
    Mailbox& box = m_.mailbox(r);
    Task& t = tasks_[static_cast<std::size_t>(r)];
    for (;;) {
      if (box.poisoned()) throw PoisonedError(box.poison_reason());
      if (auto m = box.try_pop_match(src, tag)) {
        t.in_recv = false;
        return std::move(*m);
      }
      t.state = Task::State::kBlocked;
      t.wait_src = src;
      t.wait_tag = tag;
      t.in_recv = true;
      t.fiber.yield();
    }
  }

  /// A message (src, tag, arrival) was pushed to `dest`'s mailbox: wake the
  /// receiver if it is waiting for it, or improve its wake-up key if an
  /// earlier-arriving match came in while it was already scheduled.
  void on_push(int dest, int src, int tag, double arrival) {
    Task& t = tasks_[static_cast<std::size_t>(dest)];
    if (!t.in_recv) return;
    const bool match = (t.wait_src == kAnySource || t.wait_src == src) &&
                       (t.wait_tag == kAnyTag || t.wait_tag == tag);
    if (!match) return;
    const double key =
        std::max(procs_[static_cast<std::size_t>(dest)].clock(), arrival);
    if (t.state == Task::State::kBlocked) {
      t.state = Task::State::kReady;
      t.key = key;
      push_ready(key, dest);
    } else if (t.state == Task::State::kReady && key < t.key) {
      // The old entry stays in the heap; pop_ready discards it because its
      // key no longer matches the task's.
      t.key = key;
      push_ready(key, dest);
    }
  }

 private:
  struct Task {
    Task(std::size_t stack_bytes, std::function<void()> fn)
        : fiber(stack_bytes, std::move(fn)) {}

    enum class State { kReady, kRunning, kBlocked, kDone };
    State state = State::kReady;
    int wait_src = 0;
    int wait_tag = 0;
    bool in_recv = false;   ///< between entering recv and taking a message
    double key = 0.0;       ///< position in the ready set while kReady
    std::exception_ptr error;
    Fiber fiber;
  };

  void body(int r) {
    Task& t = tasks_[static_cast<std::size_t>(r)];
    try {
      program_(procs_[static_cast<std::size_t>(r)]);
    } catch (const PoisonedError&) {
      // Teardown unwinding: the original error is already recorded.
    } catch (...) {
      t.error = std::current_exception();
    }
  }

  int poison_and_wake(const std::string& reason) {
    for (int i = 0; i < m_.nprocs(); ++i) m_.mailbox(i).poison(reason);
    int woke = 0;
    for (int i = 0; i < m_.nprocs(); ++i) {
      Task& t = tasks_[static_cast<std::size_t>(i)];
      if (t.state != Task::State::kBlocked) continue;
      t.state = Task::State::kReady;
      t.key = procs_[static_cast<std::size_t>(i)].clock();
      push_ready(t.key, i);
      ++woke;
    }
    return woke;
  }

  std::string deadlock_report() const {
    std::string out =
        "deadlock detected (event backend): no runnable processor, every "
        "live processor blocked in recv with no matching message\n";
    for (int r = 0; r < m_.nprocs(); ++r) {
      const Task& t = tasks_[static_cast<std::size_t>(r)];
      ProcState s = ProcState::kRunning;
      if (t.state == Task::State::kDone) s = ProcState::kDone;
      else if (t.state == Task::State::kBlocked) s = ProcState::kBlocked;
      out += wait_line(r, s, t.wait_src, t.wait_tag,
                       procs_[static_cast<std::size_t>(r)].clock(),
                       m_.mailbox(r).size());
      out += '\n';
    }
    return out;
  }

  /// Push a (key, rank) wake-up entry onto the ready heap.  Superseded
  /// entries for a rank are not erased (a binary heap cannot remove from the
  /// middle cheaply); pop_ready filters them lazily.  Reusing the vector's
  /// capacity keeps the scheduler allocation-free at steady state, where the
  /// std::set it replaces paid one node allocation per block/wake cycle.
  void push_ready(double key, int r) {
    ready_.push_back({key, r});
    std::push_heap(ready_.begin(), ready_.end(), std::greater<>{});
  }

  /// Pop the runnable task with the lowest (key, rank).  An entry is live
  /// only when its task is still kReady *and* the key matches the task's
  /// current wake-up key — anything else is a stale leftover from a resume
  /// or a key improvement and is discarded.  Returns -1 when no task is
  /// runnable (the deadlock candidate state, equivalent to the old set
  /// being empty).
  int pop_ready() {
    while (!ready_.empty()) {
      const std::pair<double, int> top = ready_.front();
      std::pop_heap(ready_.begin(), ready_.end(), std::greater<>{});
      ready_.pop_back();
      const Task& t = tasks_[static_cast<std::size_t>(top.second)];
      if (t.state == Task::State::kReady && t.key == top.first)
        return top.second;
    }
    return -1;
  }

  SimMachine& m_;
  const NodeProgram& program_;
  std::vector<Proc> procs_;
  std::deque<Task> tasks_;
  std::vector<std::pair<double, int>> ready_;  ///< min-heap, lazy deletion
  std::exception_ptr first_error_;
  int done_ = 0;
  std::uint64_t resumes_ = 0;
};

RunResult SimMachine::run_event(const NodeProgram& program) {
  EventLoop loop(*this, program);
  event_ = &loop;
  try {
    RunResult result = loop.run();
    event_ = nullptr;
    return result;
  } catch (...) {
    event_ = nullptr;
    throw;
  }
}

// --- threaded backend --------------------------------------------------------
//
// One OS thread per simulated processor, kept for differential testing of
// the event loop.  A single machine-wide mutex serializes every mailbox
// operation; that makes the exact all-blocked deadlock check cheap and keeps
// the backend simple (it is only run at small processor counts).
struct SimMachine::ThreadedState {
  explicit ThreadedState(int n)
      : state(static_cast<std::size_t>(n), ProcState::kRunning),
        waits(static_cast<std::size_t>(n), {0, 0}),
        clocks(static_cast<std::size_t>(n), nullptr) {
    for (int i = 0; i < n; ++i) cvs.emplace_back();
  }

  /// Exact deadlock test, caller holds mu: every processor is blocked or
  /// done, at least one is blocked, no blocked processor has a matching
  /// message, and no teardown (poison) is already in flight.
  [[nodiscard]] bool deadlocked(SimMachine& m) const {
    bool any_blocked = false;
    for (int r = 0; r < m.nprocs(); ++r) {
      const auto k = static_cast<std::size_t>(r);
      if (m.mailbox(r).poisoned()) return false;
      if (state[k] == ProcState::kRunning) return false;
      if (state[k] != ProcState::kBlocked) continue;
      any_blocked = true;
      if (m.mailbox(r).probe(waits[k].first, waits[k].second)) return false;
    }
    return any_blocked;
  }

  /// Per-processor wait-state report, caller holds mu.
  [[nodiscard]] std::string report(SimMachine& m,
                                   const std::string& headline) const {
    std::string out = headline;
    out += '\n';
    for (int r = 0; r < m.nprocs(); ++r) {
      const auto k = static_cast<std::size_t>(r);
      const double clock = clocks[k] != nullptr ? clocks[k]->clock() : 0.0;
      out += wait_line(r, state[k], waits[k].first, waits[k].second, clock,
                       m.mailbox(r).size());
      out += '\n';
    }
    return out;
  }

  std::mutex mu;
  std::deque<std::condition_variable> cvs;   // one per rank, stable addresses
  std::vector<ProcState> state;
  std::vector<std::pair<int, int>> waits;    // (src, tag) while kBlocked
  std::vector<const Proc*> clocks;           // live Proc of each rank
};

RunResult SimMachine::run_threaded(const NodeProgram& program) {
  RunResult result;
  result.proc_times.assign(static_cast<std::size_t>(nprocs_), 0.0);
  result.stats.assign(static_cast<std::size_t>(nprocs_), ProcStats{});

  ThreadedState ts(nprocs_);
  threaded_ = &ts;

  std::mutex err_mu;
  std::exception_ptr first_error;
  auto record_error = [&](std::exception_ptr e) {
    std::lock_guard<std::mutex> lock(err_mu);
    if (!first_error) first_error = std::move(e);
  };

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs_));
  for (int r = 0; r < nprocs_; ++r) {
    threads.emplace_back([&, r]() {
      const auto k = static_cast<std::size_t>(r);
      Proc proc(*this, r);
      {
        std::lock_guard<std::mutex> lock(ts.mu);
        ts.clocks[k] = &proc;
      }
      try {
        program(proc);
      } catch (const PoisonedError&) {
        // A peer failed or a deadlock was detected: unwind quietly, the
        // original error is recorded by whoever raised it.
      } catch (...) {
        record_error(std::current_exception());
        std::lock_guard<std::mutex> lock(ts.mu);
        for (int i = 0; i < nprocs_; ++i)
          mailbox(i).poison(
              strformat("node program on rank %d failed; unwinding", r));
        for (auto& cv : ts.cvs) cv.notify_all();
      }
      // Mark done; if that starves the remaining blocked receivers (e.g. we
      // returned without sending what they wait for), fail the run now
      // instead of letting them hang.
      std::string report;
      {
        std::lock_guard<std::mutex> lock(ts.mu);
        ts.state[k] = ProcState::kDone;
        result.proc_times[k] = proc.clock();
        result.stats[k] = proc.stats();
        if (ts.deadlocked(*this)) {
          report = ts.report(
              *this,
              "deadlock detected (threaded backend): every live processor "
              "blocked in recv with no matching message");
          for (int i = 0; i < nprocs_; ++i)
            mailbox(i).poison(
                "deadlock: every live processor is blocked in recv");
          for (auto& cv : ts.cvs) cv.notify_all();
        }
        ts.clocks[k] = nullptr;
      }
      if (!report.empty())
        record_error(std::make_exception_ptr(DeadlockError(report)));
    });
  }
  for (auto& t : threads) t.join();
  threaded_ = nullptr;

  if (first_error) std::rethrow_exception(first_error);

  result.exec_time = 0.0;
  for (double t : result.proc_times)
    result.exec_time = std::max(result.exec_time, t);
  return result;
}

Message SimMachine::threaded_recv_locked(Proc& p, int src, int tag) {
  ThreadedState& ts = *threaded_;
  const int r = p.rank();
  const auto k = static_cast<std::size_t>(r);
  Mailbox& box = mailbox(r);
  std::unique_lock<std::mutex> lock(ts.mu);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(options_.watchdog_seconds));
  for (;;) {
    if (box.poisoned()) throw PoisonedError(box.poison_reason());
    if (auto m = box.try_pop_match(src, tag)) return std::move(*m);
    ts.state[k] = ProcState::kBlocked;
    ts.waits[k] = {src, tag};
    if (ts.deadlocked(*this)) {
      std::string report = ts.report(
          *this,
          "deadlock detected (threaded backend): every live processor "
          "blocked in recv with no matching message");
      for (int i = 0; i < nprocs_; ++i)
        mailbox(i).poison("deadlock: every live processor is blocked in recv");
      for (auto& cv : ts.cvs) cv.notify_all();
      ts.state[k] = ProcState::kRunning;
      throw DeadlockError(report);
    }
    const auto status = ts.cvs[k].wait_until(lock, deadline);
    ts.state[k] = ProcState::kRunning;
    if (status == std::cv_status::timeout && !box.poisoned() &&
        !box.probe(src, tag)) {
      // Watchdog backstop: progress stalled for longer than the configured
      // wall-time budget (a peer is stuck outside recv, so the exact
      // all-blocked check cannot fire).
      std::string report = ts.report(
          *this,
          strformat("watchdog timeout (threaded backend): recv on rank %d "
                    "made no progress for %.3g s of host time",
                    r, options_.watchdog_seconds));
      for (int i = 0; i < nprocs_; ++i)
        mailbox(i).poison("watchdog: the machine stopped making progress");
      for (auto& cv : ts.cvs) cv.notify_all();
      throw DeadlockError(report);
    }
  }
}

// --- backend dispatch --------------------------------------------------------

SimMachine::SimMachine(int nprocs, const CostModel& cost,
                       std::unique_ptr<Topology> topology,
                       MachineOptions options)
    : nprocs_(nprocs),
      cost_(cost),
      topology_(std::move(topology)),
      options_(options) {
  require(nprocs >= 1, "machine needs at least one processor");
  require(topology_ != nullptr, "machine needs a topology");
  mailboxes_.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  pools_.resize(static_cast<std::size_t>(nprocs));
}

RunResult SimMachine::run(const NodeProgram& program) {
  require(event_ == nullptr && threaded_ == nullptr,
          "SimMachine::run is not reentrant");
  RunResult result = options_.backend == Backend::kEvent
                         ? run_event(program)
                         : run_threaded(program);
  check_drained(result);
  return result;
}

void SimMachine::check_drained(const RunResult& result) {
  bool queued = false;
  for (int r = 0; r < nprocs_; ++r) queued = queued || mailbox(r).size() > 0;
  std::uint64_t received = 0;
  for (const ProcStats& s : result.stats) received += s.messages_received;
  const std::uint64_t sent = result.total_messages();
  if (!queued && sent == received) return;
  std::string report = strformat(
      "unreceived messages at the end of the run: %llu sent, %llu received",
      static_cast<unsigned long long>(sent),
      static_cast<unsigned long long>(received));
  for (int r = 0; r < nprocs_; ++r) {
    const ProcStats& s = result.stats[static_cast<std::size_t>(r)];
    report += strformat("\n  rank %d: sent %llu, received %llu, %zu queued",
                        r, static_cast<unsigned long long>(s.messages_sent),
                        static_cast<unsigned long long>(s.messages_received),
                        mailbox(r).size());
    if (const Message* m = mailbox(r).peek_match(kAnySource, kAnyTag))
      report += strformat(" (earliest: src=%d, tag=%d, %zu bytes)", m->src,
                          m->tag, m->bytes());
  }
  throw Error(report);
}

void SimMachine::deliver(int dest, Message m) {
  if (event_ != nullptr) {
    const int src = m.src;
    const int tag = m.tag;
    const double arrival = m.arrival;
    mailbox(dest).push(std::move(m));
    event_->on_push(dest, src, tag, arrival);
    return;
  }
  if (threaded_ != nullptr) {
    std::lock_guard<std::mutex> lock(threaded_->mu);
    const auto k = static_cast<std::size_t>(dest);
    const int src = m.src;
    const int tag = m.tag;
    mailbox(dest).push(std::move(m));
    if (threaded_->state[k] == ProcState::kBlocked) {
      const auto [wsrc, wtag] = threaded_->waits[k];
      if ((wsrc == kAnySource || wsrc == src) &&
          (wtag == kAnyTag || wtag == tag))
        threaded_->cvs[k].notify_all();
    }
    return;
  }
  mailbox(dest).push(std::move(m));  // Proc used outside run(): just queue
}

Message SimMachine::blocking_recv(Proc& p, int src, int tag) {
  if (event_ != nullptr) return event_->blocking_recv(p, src, tag);
  if (threaded_ != nullptr) return threaded_recv_locked(p, src, tag);
  // Proc used outside run(): nothing can ever arrive, so only an already
  // queued message is valid.
  if (auto m = mailbox(p.rank()).try_pop_match(src, tag)) return std::move(*m);
  throw Error("recv outside SimMachine::run with no matching message queued");
}

bool SimMachine::probe_mailbox(int rank, int src, int tag) {
  if (threaded_ != nullptr) {
    std::lock_guard<std::mutex> lock(threaded_->mu);
    if (mailbox(rank).poisoned())
      throw PoisonedError(mailbox(rank).poison_reason());
    return mailbox(rank).probe(src, tag);
  }
  if (mailbox(rank).poisoned())
    throw PoisonedError(mailbox(rank).poison_reason());
  return mailbox(rank).probe(src, tag);
}

}  // namespace f90d::machine
