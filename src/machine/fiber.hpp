#pragma once
// A cooperatively scheduled stackful fiber — the execution vehicle of the
// event-driven SimMachine backend.  Each simulated processor runs its node
// program on one of these; a blocking receive yields back to the scheduler
// instead of parking an OS thread.
//
// Usage contract (enforced by the scheduler, not checked here):
//   * resume() is called from the scheduler context only;
//   * yield() is called from inside the fiber body only;
//   * the body must run to completion (normally or by unwinding an
//     exception) before the Fiber is destroyed, so destructors on the fiber
//     stack execute — the scheduler guarantees this by poisoning mailboxes
//     and resuming every blocked fiber during teardown.
//
// The implementation carries the sanitizer fiber-switching annotations
// (__sanitizer_*_switch_fiber for ASan, __tsan_*_fiber for TSan) so the
// event backend stays clean under -fsanitize=address and -fsanitize=thread.
//
// On x86-64 ELF targets a switch is the hand-written user-space stack switch
// in fiber_switch.S (callee-saved registers plus the MXCSR and x87 control
// words, no system call); every other ISA uses ucontext's swapcontext.
#if defined(__x86_64__) && defined(__ELF__)
#define F90D_FIBER_ASM_SWITCH 1
#else
#include <ucontext.h>
#endif

#include <cstddef>
#include <functional>
#include <memory>

namespace f90d::machine {

class Fiber {
 public:
  /// Create a fiber that will run `body` on a fresh `stack_bytes` stack when
  /// first resumed.  The body's exceptions must not escape (the scheduler
  /// wraps node programs in a catch-all).
  Fiber(std::size_t stack_bytes, std::function<void()> body);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switch from the caller (scheduler) into the fiber.  Returns when the
  /// fiber yields or its body finishes.
  void resume();

  /// Switch from inside the fiber back to the context that resumed it.
  void yield();

  /// True once the body has returned (or unwound); the fiber must not be
  /// resumed again.
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void trampoline();
  void enter_fiber();  // sanitizer bookkeeping on gaining fiber control
  void switch_out(bool final_exit);  // fiber -> caller

  std::function<void()> body_;
  std::unique_ptr<char[]> stack_;
  std::size_t stack_bytes_;
#if defined(F90D_FIBER_ASM_SWITCH)
  using Context = void*;  // saved stack pointer (fiber_switch.S frame)
#else
  using Context = ucontext_t;
#endif
  Context ctx_{};     // the fiber, while it is switched out
  Context caller_{};  // the resumer, while the fiber runs
  bool finished_ = false;

  // Sanitizer fiber bookkeeping (unused members when not sanitizing).
  void* caller_fake_stack_ = nullptr;  // ASan fake stack of the caller
  void* fiber_fake_stack_ = nullptr;   // ASan fake stack of the fiber
  const void* caller_stack_bottom_ = nullptr;
  std::size_t caller_stack_size_ = 0;
  void* tsan_fiber_ = nullptr;
  void* tsan_caller_ = nullptr;
};

}  // namespace f90d::machine
