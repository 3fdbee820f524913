// Cooperative user-level fibers for DES actors.
//
// The engine is strictly single-threaded: exactly one fiber (or the main
// scheduler context) runs at any instant, and control transfers only at
// explicit resume/yield points. That makes every data structure in the
// simulation race-free by construction (CP.2) without any locking.
//
// Switches use _setjmp/_longjmp, which save and restore only the
// callee-saved registers, stack pointer and return address — no system call
// (swapcontext issues an rt_sigprocmask on every switch). makecontext runs
// once per fiber, for its first entry onto its fresh stack. Neither the
// signal mask nor the floating-point environment (MXCSR, x87 control word)
// is switched: all fibers share one floating-point environment, and nothing
// in the simulator changes it.
//
// Each stack is an anonymous mapping of its own with one PROT_NONE guard page
// below it, so an overflow faults at once instead of writing over
// neighbouring memory, and the host commits only the stack pages a fiber
// touches. A destroyed fiber's stack goes back to a free list of stacks of
// its size and is reused by the next fiber of that size, so once the list is
// warm creating a fiber makes no system call.
#pragma once

#include <csetjmp>
#include <cstddef>
#include <exception>
#include <functional>

namespace colcom::des {

/// Usable stack size of a fiber unless its creator asks for another (every
/// simulated rank gets this much; see mpi::MachineConfig::fiber_stack_bytes).
inline constexpr std::size_t kFiberStackBytes = 256 * 1024;

/// A single cooperative fiber. Not copyable/movable: the saved contexts
/// capture the object address.
class Fiber {
 public:
  /// `body` runs on the fiber's own stack of `stack_bytes` when resume() is
  /// first called. The stack is a guard-paged mapping, fresh or reused from
  /// a destroyed fiber of the same size; the host commits only the pages
  /// fibers on it touch. Throws ContractViolation when the host refuses the
  /// mapping.
  Fiber(std::size_t stack_bytes, std::function<void()> body);
  /// Returns the stack to the free list; a suspended body is abandoned, not
  /// unwound.
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Transfers control from the scheduler into the fiber; returns when the
  /// fiber yields or finishes. Must not be called from inside a fiber.
  void resume();

  /// Transfers control back to the scheduler. Must be called from inside
  /// this fiber.
  void yield();

  bool finished() const { return finished_; }

  /// If the body exited with an exception, it is captured here.
  std::exception_ptr exception() const { return exception_; }

  /// Fiber currently executing, or nullptr when in the scheduler context.
  static Fiber* current() { return current_; }

 private:
  static void trampoline();

  std::jmp_buf ctx_{};         // the fiber, saved at its last yield()
  std::jmp_buf return_ctx_{};  // the scheduler, saved at the last resume()
  std::size_t stack_bytes_;
  std::byte* stack_ = nullptr;  // lowest usable address, above the guard
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr exception_;
  // Scheduler-context stack bounds as reported by ASan at first entry —
  // handed back to __sanitizer_start_switch_fiber when yielding, so ASan
  // tracks which stack is live across each switch (unused without ASan).
  const void* sched_stack_bottom_ = nullptr;
  std::size_t sched_stack_size_ = 0;

  static Fiber* current_;
};

}  // namespace colcom::des
