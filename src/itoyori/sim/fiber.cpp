#include "itoyori/sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>

// Assembly entry points of the asm backend (fiber_asm.cpp). ityr_ctx_jump
// and the trampoline never return; ityr_ctx_switch returns when the saved
// context is resumed.
extern "C" {
void ityr_ctx_switch(void** save_sp, void* restore_sp);
[[noreturn]] void ityr_ctx_jump(void* restore_sp);
void ityr_ctx_trampoline();
}

namespace ityr::sim {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

common::fiber_backend_kind g_backend = common::default_fiber_backend();

}  // namespace

common::fiber_backend_kind fiber_backend() { return g_backend; }
void set_fiber_backend(common::fiber_backend_kind k) { g_backend = k; }

fiber::fiber(std::size_t stack_size, entry_fn fn) : fn_(std::move(fn)) {
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
  prepare_context();
}

fiber::~fiber() {
  if (stack_ != nullptr) {
    ::munmap(static_cast<char*>(stack_) - page_size(), stack_size_ + page_size());
  }
}

void fiber::prepare_context() {
  if (g_backend == common::fiber_backend_kind::asm_switch) {
    prepare_asm_context();
  } else {
    prepare_ucontext();
  }
  done_ = false;
}

void fiber::prepare_ucontext() {
  ITYR_CHECK(::getcontext(&ctx_.uctx) == 0);
  ctx_.uctx.uc_stack.ss_sp = stack_;
  ctx_.uctx.uc_stack.ss_size = stack_size_;
  ctx_.uctx.uc_link = nullptr;  // fibers never fall off the end (see trampoline)
  // makecontext only forwards int arguments, so smuggle the 64-bit `this`
  // through two 32-bit halves (the classic portable-ucontext idiom).
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  ::makecontext(&ctx_.uctx, reinterpret_cast<void (*)()>(&fiber::trampoline), 2,
                static_cast<unsigned>(self & 0xffffffffu),
                static_cast<unsigned>(self >> 32));
}

void fiber::prepare_asm_context() {
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
#else
  ITYR_DIE("asm fiber backend unsupported on this target");
#endif
}

void fiber::trampoline(unsigned lo, unsigned hi) {
  auto* self = reinterpret_cast<fiber*>(std::uintptr_t{lo} | (std::uintptr_t{hi} << 32));
  self->fn_();
  // Entry functions must terminate via an explicit context switch (the
  // scheduler decides what runs next); falling off the end is a bug.
  ITYR_DIE("fiber entry function returned without switching away");
}

void fiber::run_entry() {
  fn_();
  ITYR_DIE("fiber entry function returned without switching away");
}

void fiber::reset(entry_fn fn) {
  fn_ = std::move(fn);
  prepare_context();
}

void fiber_switch(fiber_context* from, fiber_context* to) {
  if (g_backend == common::fiber_backend_kind::asm_switch) {
    ityr_ctx_switch(&from->sp, to->sp);
  } else {
    ITYR_CHECK(::swapcontext(&from->uctx, &to->uctx) == 0);
  }
}

namespace {
// Scratch context used as the "from" side when a fiber exits under the
// ucontext backend: its state is dead, so saving into a throwaway slot is
// fine and avoids setcontext's inability to report errors.
ucontext_t g_exit_scratch;
}  // namespace

void fiber_exit_to(fiber_context* next) {
  if (g_backend == common::fiber_backend_kind::asm_switch) {
    ityr_ctx_jump(next->sp);
  }
  ITYR_CHECK(::swapcontext(&g_exit_scratch, &next->uctx) == 0);
  ITYR_DIE("resumed a dead fiber");
}

fiber* fiber_pool::acquire(fiber::entry_fn fn) {
  outstanding_++;
  if (outstanding_ + free_.size() > high_water_) high_water_ = outstanding_ + free_.size();
  if (!free_.empty()) {
    fiber* f = free_.back().release();
    free_.pop_back();
    f->reset(std::move(fn));
    reused_++;
    return f;
  }
  created_++;
  return std::make_unique<fiber>(stack_size_, std::move(fn)).release();
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
