#include "machine/fiber.hpp"

#include <cstdint>
#include <cstring>

#include "support/diag.hpp"

#if defined(F90D_FIBER_ASM_SWITCH)
// fiber_switch.S
extern "C" {
void f90d_fiber_switch(void** save_sp, void* load_sp);
void f90d_fiber_entry();
}
#endif

// --- sanitizer fiber-switch annotations --------------------------------------
// Declared by hand so the build does not depend on the sanitizer headers
// being installed; the calls compile away entirely in plain builds.
#if defined(__SANITIZE_ADDRESS__)
#define F90D_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define F90D_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define F90D_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define F90D_TSAN 1
#endif
#endif

#if defined(F90D_ASAN)
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom,
                                    size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save,
                                     const void** bottom_old, size_t* size_old);
}
#endif

#if defined(F90D_TSAN)
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

namespace f90d::machine {

namespace {
// Carries `this` into the trampoline (the entry function takes no
// arguments).  Set immediately before the first resume of a fiber; read
// exactly once at trampoline entry on the same OS thread.
thread_local Fiber* g_entering = nullptr;

// Save the running context to `from` and continue in `to`.
#if defined(F90D_FIBER_ASM_SWITCH)
void switch_context(void*& from, void* to) { f90d_fiber_switch(&from, to); }
#else
void switch_context(ucontext_t& from, ucontext_t& to) {
  swapcontext(&from, &to);
}
#endif
}  // namespace

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body)
    : body_(std::move(body)),
      stack_(new char[stack_bytes]),
      stack_bytes_(stack_bytes) {
  require(stack_bytes >= 64 * 1024, "fiber stack is at least 64 KiB");
#if defined(F90D_FIBER_ASM_SWITCH)
  // The first frame f90d_fiber_switch restores (layout in fiber_switch.S):
  // the creating thread's control words, as getcontext would capture them,
  // the entry function in rbx, and f90d_fiber_entry as the return address
  // just below the 16-byte aligned stack top.
  std::uint32_t mxcsr = 0;
  std::uint16_t x87cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87cw));
  const std::uint64_t frame[8] = {
      mxcsr | std::uint64_t{x87cw} << 32,                    // control words
      0, 0, 0, 0,                                            // r15 .. r12
      reinterpret_cast<std::uint64_t>(&Fiber::trampoline),  // rbx
      0,                                                     // rbp
      reinterpret_cast<std::uint64_t>(&f90d_fiber_entry)};  // return address
  const auto top = (reinterpret_cast<std::uintptr_t>(stack_.get()) +
                    stack_bytes_) & ~std::uintptr_t{15};
  char* sp = reinterpret_cast<char*>(top) - sizeof frame;
  std::memcpy(sp, frame, sizeof frame);
  ctx_ = sp;
#else
  require(getcontext(&ctx_) == 0, "getcontext succeeds");
  ctx_.uc_stack.ss_sp = stack_.get();
  ctx_.uc_stack.ss_size = stack_bytes_;
  ctx_.uc_link = nullptr;  // final switch-out is explicit in trampoline()
  makecontext(&ctx_, &Fiber::trampoline, 0);
#endif
#if defined(F90D_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(F90D_TSAN)
  if (tsan_fiber_ != nullptr) __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::resume() {
  require(!finished_, "resume of a finished fiber");
  g_entering = this;
#if defined(F90D_TSAN)
  tsan_caller_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(F90D_ASAN)
  __sanitizer_start_switch_fiber(&caller_fake_stack_, stack_.get(),
                                 stack_bytes_);
#endif
  switch_context(caller_, ctx_);
  // Back in the caller: the fiber either yielded or exited for good.
#if defined(F90D_ASAN)
  __sanitizer_finish_switch_fiber(caller_fake_stack_, nullptr, nullptr);
#endif
}

void Fiber::enter_fiber() {
#if defined(F90D_ASAN)
  __sanitizer_finish_switch_fiber(fiber_fake_stack_, &caller_stack_bottom_,
                                  &caller_stack_size_);
#endif
}

void Fiber::switch_out(bool final_exit) {
#if defined(F90D_TSAN)
  __tsan_switch_to_fiber(tsan_caller_, 0);
#endif
#if defined(F90D_ASAN)
  // On the final exit pass nullptr so ASan releases the fiber's fake stack.
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &fiber_fake_stack_,
                                 caller_stack_bottom_, caller_stack_size_);
#else
  (void)final_exit;
#endif
  switch_context(ctx_, caller_);
  enter_fiber();
}

void Fiber::yield() { switch_out(/*final_exit=*/false); }

void Fiber::trampoline() {
  Fiber* self = g_entering;
  g_entering = nullptr;
  self->enter_fiber();
  self->body_();
  self->finished_ = true;
  self->switch_out(/*final_exit=*/true);
  // Unreachable: a finished fiber is never resumed.
}

}  // namespace f90d::machine
