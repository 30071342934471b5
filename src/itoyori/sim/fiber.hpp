#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "itoyori/common/error.hpp"

/// C entry point the asm trampoline calls with the fiber pointer (extern "C"
/// so the hand-written assembly can name it without mangling).
extern "C" [[noreturn]] void ityr_fiber_entry_thunk(void* self);

namespace ityr::sim {

/// Saved execution state of a suspended fiber (or of the engine's run loop).
/// `sp` points into the context's stack at the save frame ityr_ctx_switch
/// pushed (fiber_asm.cpp): callee-saved registers live on the stack itself,
/// so a switch makes no syscall and takes ~10ns.
///
/// The other fields serve AddressSanitizer builds, which are told about
/// every switch (fiber.cpp): the bounds of the context's stack and the fake
/// stack ASan keeps for it while it is suspended. A fiber's bounds are its
/// mmap'd stack; a run loop's context learns the thread stack's bounds the
/// first time it is switched away from.
struct fiber_context {
  void* sp = nullptr;
  const void* stack_bottom = nullptr;
  std::size_t stack_size = 0;
  void* fake_stack = nullptr;
};

/// A fiber with an mmap'd, guard-paged, lazily-populated stack.
///
/// Fibers serve two roles in the simulator: (1) each simulated rank's main
/// context, and (2) the user-level threads of the uni-address tasking layer.
/// A suspended fiber is a self-contained continuation — handing the pointer
/// to another rank *is* thread migration (the network cost of copying the
/// stack is charged separately by the scheduler).
class fiber {
public:
  /// A fiber's entry, run on its own stack as `fn(ctx)`. It must end in an
  /// explicit switch away (fiber_exit_to); returning is a fatal error. The
  /// fiber keeps only the two pointers: whatever `ctx` points to belongs to
  /// the caller, so starting a fiber allocates nothing.
  using entry_fn = void (*)(void* ctx);

  fiber(std::size_t stack_size, entry_fn fn, void* ctx);
  ~fiber();

  fiber(const fiber&) = delete;
  fiber& operator=(const fiber&) = delete;

  fiber_context* context() { return &ctx_; }
  std::size_t stack_size() const { return stack_size_; }
  bool done() const { return done_; }

  /// Reinitialize a finished fiber with a new entry (used by the stack pool):
  /// this only rebuilds the ~80-byte entry frame at the stack top.
  void reset(entry_fn fn, void* ctx);

private:
  void prepare_context();
  [[noreturn]] void run_entry();  // entered via ityr_ctx_trampoline

  fiber_context ctx_{};
  void* stack_ = nullptr;
  std::size_t stack_size_ = 0;
  entry_fn fn_ = nullptr;
  void* arg_ = nullptr;
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

  fiber* acquire(fiber::entry_fn fn, void* ctx);
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
