#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "itoyori/common/error.hpp"
#include "itoyori/common/options.hpp"

/// C entry point the asm trampoline calls with the fiber pointer (extern "C"
/// so the hand-written assembly can name it without mangling).
extern "C" [[noreturn]] void ityr_fiber_entry_thunk(void* self);

namespace ityr::sim {

/// Saved execution state of a suspended fiber (or of the engine's run loop).
/// Which member is live depends on the process-wide fiber backend
/// (ITYR_FIBER_BACKEND, see common::fiber_backend_kind):
///  * asm_switch — `sp` points into the fiber's stack at the save frame
///    (callee-saved registers live on the stack itself; no syscalls, ~10ns
///    per switch);
///  * ucontext   — the full ucontext_t, via swapcontext (which performs a
///    sigprocmask syscall per switch on Linux, but is portable and is what
///    ASan's fiber tracking understands).
struct fiber_context {
  ucontext_t uctx{};
  void* sp = nullptr;
};

/// The process-wide backend all context switches use. Set once by the engine
/// constructor (from options::fiber_backend) before any of its fibers exist;
/// changing it while fibers are suspended is undefined.
common::fiber_backend_kind fiber_backend();
void set_fiber_backend(common::fiber_backend_kind k);

/// A fiber with an mmap'd, guard-paged, lazily-populated stack.
///
/// Fibers serve two roles in the simulator: (1) each simulated rank's main
/// context, and (2) the user-level threads of the uni-address tasking layer.
/// A suspended fiber is a self-contained continuation — handing the pointer
/// to another rank *is* thread migration (the network cost of copying the
/// stack is charged separately by the scheduler).
class fiber {
public:
  using entry_fn = std::function<void()>;

  fiber(std::size_t stack_size, entry_fn fn);
  ~fiber();

  fiber(const fiber&) = delete;
  fiber& operator=(const fiber&) = delete;

  fiber_context* context() { return &ctx_; }
  std::size_t stack_size() const { return stack_size_; }
  bool done() const { return done_; }

  /// Reinitialize a finished fiber with a new entry (used by the stack pool).
  /// Under the asm backend this only rebuilds an ~80-byte frame at the stack
  /// top — no getcontext/makecontext.
  void reset(entry_fn fn);

private:
  static void trampoline(unsigned lo, unsigned hi);  // ucontext entry path

  void prepare_context();
  void prepare_ucontext();
  void prepare_asm_context();
  [[noreturn]] void run_entry();  // asm entry path (via ityr_ctx_trampoline)

  fiber_context ctx_{};
  void* stack_ = nullptr;
  std::size_t stack_size_ = 0;
  entry_fn fn_;
  bool done_ = false;

  friend class fiber_pool;
  friend void ::ityr_fiber_entry_thunk(void* self);
};

/// Swap from `from` to `to`. `from` is saved and can be resumed later.
void fiber_switch(fiber_context* from, fiber_context* to);

/// The current fiber terminates; control transfers to `next` and never
/// returns here.
[[noreturn]] void fiber_exit_to(fiber_context* next);

/// Pool of reusable fibers: ULT spawn/death is on the fork/join fast path,
/// so stacks are recycled rather than mmap'd per task. Retention is capped
/// (`cap` idle stacks, 0 = unbounded): stacks released beyond the cap are
/// unmapped, so a burst of deep recursion does not pin its high-water
/// footprint for the rest of the run.
class fiber_pool {
public:
  explicit fiber_pool(std::size_t stack_size, std::size_t cap = 0)
      : stack_size_(stack_size), cap_(cap) {}

  fiber* acquire(fiber::entry_fn fn);
  void release(fiber* f);

  std::size_t outstanding() const { return outstanding_; }
  std::size_t idle() const { return free_.size(); }

  // ---- footprint/churn accounting (exported via the metrics registry) ----
  /// Max simultaneously-live fibers (outstanding + pooled) over the run.
  std::size_t high_water() const { return high_water_; }
  std::uint64_t created() const { return created_; }  ///< stacks mmap'd
  std::uint64_t reused() const { return reused_; }    ///< served from the pool
  std::uint64_t dropped() const { return dropped_; }  ///< unmapped at the cap

private:
  std::size_t stack_size_;
  std::size_t cap_;
  std::vector<std::unique_ptr<fiber>> free_;
  std::size_t outstanding_ = 0;
  std::size_t high_water_ = 0;
  std::uint64_t created_ = 0;
  std::uint64_t reused_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace ityr::sim
