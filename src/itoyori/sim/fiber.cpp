#include "itoyori/sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

// Entry points of the hand-written switch (fiber_asm.cpp). ityr_ctx_jump and
// the trampoline never return; ityr_ctx_switch returns when the saved
// context is resumed.
extern "C" {
void ityr_ctx_switch(void** save_sp, void* restore_sp);
[[noreturn]] void ityr_ctx_jump(void* restore_sp);
void ityr_ctx_trampoline();
}

// AddressSanitizer follows one stack per thread, so every switch tells it
// which stack it lands on. Other builds compile the annotations away.
#if defined(__SANITIZE_ADDRESS__)
#define ITYR_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ITYR_ASAN 1
#endif
#endif

#ifdef ITYR_ASAN
#include <sanitizer/common_interface_defs.h>
#endif

namespace ityr::sim {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

#ifdef ITYR_ASAN
// The context the switch in flight leaves; null when a dead fiber exits.
thread_local fiber_context* t_leaving = nullptr;

// A null `from` (a dead fiber) makes ASan free the fiber's fake stack.
void start_switch(fiber_context* from, const fiber_context* to) {
  t_leaving = from;
  __sanitizer_start_switch_fiber(from != nullptr ? &from->fake_stack : nullptr,
                                 to->stack_bottom, to->stack_size);
}

// Runs first on the stack a switch lands on, with the fake stack saved when
// this context left (null for a fresh fiber). ASan reports the bounds of
// the stack just left: recording them is how a run loop's context learns
// the thread stack's bounds (a fiber's own are rewritten unchanged).
void finish_switch(void* fake_stack) {
  fiber_context* from = t_leaving;
  __sanitizer_finish_switch_fiber(fake_stack, from != nullptr ? &from->stack_bottom : nullptr,
                                  from != nullptr ? &from->stack_size : nullptr);
}
#else
void start_switch(fiber_context*, const fiber_context*) {}
void finish_switch(void*) {}
#endif

}  // namespace

fiber::fiber(std::size_t stack_size, entry_fn fn, void* ctx) : fn_(fn), arg_(ctx) {
  const std::size_t ps = page_size();
  stack_size_ = (stack_size + ps - 1) / ps * ps;
  // One guard page below the stack catches overflow instead of corrupting a
  // neighbouring fiber's stack. MAP_ANONYMOUS memory is populated lazily, so
  // a pooled 256 KiB stack that only ever uses a few KiB costs a few KiB of
  // RSS — per-rank footprint at O(1000) ranks depends on stack *use*, not
  // stack *reservation*.
  void* region = ::mmap(nullptr, stack_size_ + ps, PROT_READ | PROT_WRITE,
                        MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw common::resource_error("fiber stack mmap failed");
  if (::mprotect(region, ps, PROT_NONE) != 0)
    throw common::resource_error("fiber guard mprotect failed");
  stack_ = static_cast<char*>(region) + ps;
  ctx_.stack_bottom = stack_;
  ctx_.stack_size = stack_size_;
  prepare_context();
}

fiber::~fiber() {
  if (stack_ != nullptr) {
    ::munmap(static_cast<char*>(stack_) - page_size(), stack_size_ + page_size());
  }
}

void fiber::prepare_context() {
  // Build the save frame a restore expects (layout documented in
  // fiber_asm.cpp) at the top of the stack: "returning" from it enters
  // ityr_ctx_trampoline with `this` in the first callee-saved register.
  std::uintptr_t top = reinterpret_cast<std::uintptr_t>(stack_) + stack_size_;
  top &= ~std::uintptr_t{15};
#if defined(__x86_64__)
  auto* frame = reinterpret_cast<std::uintptr_t*>(top) - 10;  // 80 bytes, 16-aligned
  std::uint32_t mxcsr;
  std::uint16_t fcw;
  __asm__ volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(fcw));
  frame[0] = std::uintptr_t{mxcsr} | (std::uintptr_t{fcw} << 32);
  frame[1] = 0;                                                       // r15
  frame[2] = 0;                                                       // r14
  frame[3] = 0;                                                       // r13
  frame[4] = 0;                                                       // r12
  frame[5] = reinterpret_cast<std::uintptr_t>(this);                  // rbx
  frame[6] = 0;                                                       // rbp
  frame[7] = reinterpret_cast<std::uintptr_t>(&ityr_ctx_trampoline);  // ret
  frame[8] = 0;  // fake caller frame: stops backtraces, keeps alignment
  frame[9] = 0;
  ctx_.sp = frame;
#elif defined(__aarch64__)
  auto* frame = reinterpret_cast<std::uintptr_t*>(top) - 20;  // 160 bytes, 16-aligned
  for (int i = 0; i < 20; i++) frame[i] = 0;
  frame[0] = reinterpret_cast<std::uintptr_t>(this);                   // x19
  frame[11] = reinterpret_cast<std::uintptr_t>(&ityr_ctx_trampoline);  // x30
  ctx_.sp = frame;
#endif
  done_ = false;
}

void fiber::run_entry() {
  finish_switch(nullptr);
  fn_(arg_);
  // Entry functions must terminate via an explicit context switch (the
  // scheduler decides what runs next); falling off the end is a bug.
  ITYR_DIE("fiber entry function returned without switching away");
}

void fiber::reset(entry_fn fn, void* ctx) {
  fn_ = fn;
  arg_ = ctx;
  prepare_context();
}

void fiber_switch(fiber_context* from, fiber_context* to) {
  start_switch(from, to);
  ityr_ctx_switch(&from->sp, to->sp);
  finish_switch(from->fake_stack);
}

void fiber_exit_to(fiber_context* next) {
  start_switch(nullptr, next);
  ityr_ctx_jump(next->sp);
}

fiber* fiber_pool::acquire(fiber::entry_fn fn, void* ctx) {
  outstanding_++;
  if (outstanding_ + free_.size() > high_water_) high_water_ = outstanding_ + free_.size();
  if (!free_.empty()) {
    fiber* f = free_.back().release();
    free_.pop_back();
    f->reset(fn, ctx);
    reused_++;
    return f;
  }
  created_++;
  return std::make_unique<fiber>(stack_size_, fn, ctx).release();
}

void fiber_pool::release(fiber* f) {
  ITYR_CHECK(outstanding_ > 0);
  outstanding_--;
  if (cap_ != 0 && free_.size() >= cap_) {
    dropped_++;
    delete f;
    return;
  }
  free_.emplace_back(f);
}

}  // namespace ityr::sim

extern "C" void ityr_fiber_entry_thunk(void* self) {
  static_cast<ityr::sim::fiber*>(self)->run_entry();
}
