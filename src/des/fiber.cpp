// Fortified builds redirect _longjmp to __longjmp_chk, which aborts on a jump
// to a lower stack address unless it is on a sigaltstack — every switch onto
// a fiber stack would trip it. Switching stacks is this file's job.
#undef _FORTIFY_SOURCE

#include "des/fiber.hpp"

#include <setjmp.h>
#include <ucontext.h>

#include "util/assert.hpp"

// AddressSanitizer must be told about stack switches: its instrumentation
// poisons stack frames on scope exit, and exception unwinding only unpoisons
// the stack it believes is current. Without these annotations, a throw that
// unwinds frames on a fiber stack leaves stale scope poison behind, and the
// next run through the same stack depth reports a bogus stack-use-after-scope.
// The hooks compile to nothing when ASan is off.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define COLCOM_ASAN_FIBERS 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define COLCOM_ASAN_FIBERS 1
#endif

#if defined(COLCOM_ASAN_FIBERS)
#include <sanitizer/common_interface_defs.h>
#endif

namespace colcom::des {

namespace {

#if defined(COLCOM_ASAN_FIBERS)
inline void asan_start_switch(void** save, const void* bottom,
                              std::size_t size) {
  __sanitizer_start_switch_fiber(save, bottom, size);
}
inline void asan_finish_switch(void* save, const void** bottom,
                               std::size_t* size) {
  __sanitizer_finish_switch_fiber(save, bottom, size);
}
#else
inline void asan_start_switch(void**, const void*, std::size_t) {}
inline void asan_finish_switch(void*, const void**, std::size_t*) {}
#endif

}  // namespace

Fiber* Fiber::current_ = nullptr;

// makecontext() can only pass int arguments portably, so the target fiber is
// handed to the trampoline through this static slot. The engine is
// single-threaded, which makes this safe: the slot is written immediately
// before the one setcontext() that consumes it.
namespace {
Fiber* g_trampoline_target = nullptr;
}

Fiber::Fiber(std::size_t stack_bytes, std::function<void()> body)
    : stack_(std::make_unique_for_overwrite<std::byte[]>(stack_bytes)),
      stack_bytes_(stack_bytes),
      body_(std::move(body)) {
  COLCOM_EXPECT(stack_bytes >= 16 * 1024);
  COLCOM_EXPECT(body_ != nullptr);
}

Fiber::~Fiber() = default;

void Fiber::trampoline() {
  Fiber* self = g_trampoline_target;
  // First time on this stack: complete the switch resume() started and learn
  // the scheduler's stack bounds (finish reports the stack we came from).
  asan_finish_switch(nullptr, &self->sched_stack_bottom_,
                     &self->sched_stack_size_);
  try {
    self->body_();
  } catch (...) {
    self->exception_ = std::current_exception();
  }
  self->finished_ = true;
  // Back to the scheduler for good. save=nullptr: this fiber's fake stack
  // can be destroyed, the context never runs again.
  current_ = nullptr;
  asan_start_switch(nullptr, self->sched_stack_bottom_,
                    self->sched_stack_size_);
  _longjmp(self->return_ctx_, 1);
}

void Fiber::resume() {
  COLCOM_EXPECT_MSG(current_ == nullptr,
                    "resume() must be called from the scheduler context");
  COLCOM_EXPECT_MSG(!finished_, "cannot resume a finished fiber");
  current_ = this;
  void* fake = nullptr;
  asan_start_switch(&fake, stack_.get(), stack_bytes_);
  if (_setjmp(return_ctx_) == 0) {
    if (started_) _longjmp(ctx_, 1);
    started_ = true;
    ucontext_t entry;
    getcontext(&entry);
    entry.uc_stack.ss_sp = stack_.get();
    entry.uc_stack.ss_size = stack_bytes_;
    entry.uc_link = nullptr;  // trampoline never returns
    makecontext(&entry, &Fiber::trampoline, 0);
    g_trampoline_target = this;
    setcontext(&entry);
  }
  asan_finish_switch(fake, nullptr, nullptr);
  current_ = nullptr;
}

void Fiber::yield() {
  COLCOM_EXPECT_MSG(current_ == this, "yield() must be called from the fiber");
  current_ = nullptr;
  void* fake = nullptr;
  asan_start_switch(&fake, sched_stack_bottom_, sched_stack_size_);
  if (_setjmp(ctx_) == 0) _longjmp(return_ctx_, 1);
  asan_finish_switch(fake, nullptr, nullptr);
  current_ = this;
}

}  // namespace colcom::des
