// Fortified builds redirect _longjmp to __longjmp_chk, which aborts on a jump
// to a lower stack address unless it is on a sigaltstack — every switch onto
// a fiber stack would trip it. Switching stacks is this file's job.
#undef _FORTIFY_SOURCE

#include "des/fiber.hpp"

#include <setjmp.h>
#include <sys/mman.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <string>
#include <vector>

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
#include <sanitizer/asan_interface.h>
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
// A fiber abandoned mid-frame (its engine destroyed while it was suspended)
// leaves its frames' redzone poison on its stack; a stack is cleared before
// it runs a fiber.
inline void asan_unpoison(std::byte* stack, std::size_t size) {
  __asan_unpoison_memory_region(stack, size);
}
#else
inline void asan_start_switch(void**, const void*, std::size_t) {}
inline void asan_finish_switch(void*, const void**, std::size_t*) {}
inline void asan_unpoison(std::byte*, std::size_t) {}
#endif

// Stacks of one usable size. `free` is LIFO, so the most recently freed
// stack, whose touched pages are still resident, runs the next fiber. It
// never shrinks: its length is bounded by the peak number of live fibers of
// this size, and each pooled stack holds only the pages its fibers touched.
// Its capacity always covers every stack ever mapped, so returning a stack
// never allocates.
struct SizeClass {
  std::vector<std::byte*> free;
  std::size_t mapped = 0;
};

// Keyed by usable size. Never destroyed, so a fiber destroyed during static
// destruction still finds it; the host reclaims the mappings at exit. Like
// the engine, it is used from one thread only.
std::map<std::size_t, SizeClass>& size_classes() {
  static auto* classes = new std::map<std::size_t, SizeClass>();
  return *classes;
}

std::string stack_failure(const char* call, int err) {
  return std::string(call) + " of a fiber stack failed (" +
         std::strerror(err) +
         "); each live fiber holds two mappings, its guard page and its "
         "stack, so vm.max_map_count bounds the number of live fibers";
}

// Maps one PROT_NONE guard page with `bytes` of stack above it; returns the
// lowest usable address.
std::byte* map_stack(std::size_t bytes) {
  const auto guard = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  void* base = mmap(nullptr, guard + bytes, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                    -1, 0);
  COLCOM_EXPECT_MSG(base != MAP_FAILED, stack_failure("mmap", errno));
  const bool guarded = mprotect(base, guard, PROT_NONE) == 0;
  const int err = errno;
  if (!guarded) munmap(base, guard + bytes);
  COLCOM_EXPECT_MSG(guarded, stack_failure("mprotect", err));
  return static_cast<std::byte*>(base) + guard;
}

std::byte* take_stack(std::size_t bytes) {
  SizeClass& cls = size_classes()[bytes];
  std::byte* stack = nullptr;
  if (cls.free.empty()) {
    if (cls.free.capacity() <= cls.mapped) {
      cls.free.reserve(2 * (cls.mapped + 1));
    }
    stack = map_stack(bytes);
    ++cls.mapped;
  } else {
    stack = cls.free.back();
    cls.free.pop_back();
  }
  asan_unpoison(stack, bytes);
  return stack;
}

void give_stack(std::byte* stack, std::size_t bytes) {
  size_classes().find(bytes)->second.free.push_back(stack);
}

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
    : stack_bytes_(stack_bytes), body_(std::move(body)) {
  COLCOM_EXPECT(stack_bytes >= 16 * 1024);
  COLCOM_EXPECT(body_ != nullptr);
  stack_ = take_stack(stack_bytes_);
}

Fiber::~Fiber() { give_stack(stack_, stack_bytes_); }

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
  asan_start_switch(&fake, stack_, stack_bytes_);
  if (_setjmp(return_ctx_) == 0) {
    if (started_) _longjmp(ctx_, 1);
    started_ = true;
    ucontext_t entry;
    getcontext(&entry);
    entry.uc_stack.ss_sp = stack_;
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
