#include "host_split.hpp"

#include "itoyori/common/error.hpp"
#include "itoyori/sim/fiber.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

host_split* g_active = nullptr;

/// The per-scope clock must be cheap: the profiler reads it twice per
/// checkout, get and steal probe.
inline std::uint64_t ticks() {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(std::chrono::steady_clock::now().time_since_epoch().count());
#endif
}

scope_layer layer_of(ityr::common::prof_event e) {
  using ityr::common::prof_event;
  switch (e) {
    case prof_event::get:
    case prof_event::put:
    case prof_event::checkout:
    case prof_event::checkin:
      return scope_layer::access;
    case prof_event::release:
    case prof_event::release_lazy:
    case prof_event::acquire:
    case prof_event::spmd:  // barriers: release + acquire fences
      return scope_layer::fence;
    case prof_event::steal:
      return scope_layer::steal;
    case prof_event::serial_a:
    case prof_event::serial_b:
    case prof_event::serial_c:
    case prof_event::count_:
      break;
  }
  return scope_layer::kernel;
}

}  // namespace

void split_result::add(const split_result& o) {
  region_s += o.region_s;
  loop_s += o.loop_s;
  other_s += o.other_s;
  for (int l = 0; l < n_scope_layers; l++) layer_s[l] += o.layer_s[l];
}

double split_result::parts_sum() const {
  double s = loop_s + other_s;
  for (const double v : layer_s) s += v;
  return s;
}

host_split::host_split(ityr::runtime& rt)
    : rt_(rt), acc_(static_cast<std::size_t>(rt.eng().n_ranks()), 0), last_close_(ticks()) {
  ITYR_CHECK(g_active == nullptr);
  rt_.eng().set_resume_hook([this](int rank, double) { on_resume_end(rank); });
  rt_.prof().configure(
      rt_.eng().n_ranks(), [this] { return rank_ticks(rt_.eng().my_rank()); },
      [this] { return rt_.eng().my_rank(); });
  rt_.prof().set_enabled(true);
  g_active = this;
}

host_split::~host_split() {
  g_active = nullptr;
  rt_.prof().set_enabled(false);
  rt_.eng().set_resume_hook(nullptr);
}

double host_split::rank_ticks(int rank) const {
  auto t = static_cast<double>(acc_[static_cast<std::size_t>(rank)]);
  if (open_ && open_rank_ == rank) t += static_cast<double>(ticks() - open_t0_);
  return t;
}

void host_split::open_slice(std::uint64_t t0) {
  open_ = true;
  open_rank_ = rt_.eng().my_rank();
  open_t0_ = t0;
}

void host_split::close_slice(int rank) {
  last_close_ = ticks();
  acc_[static_cast<std::size_t>(rank)] += last_close_ - open_t0_;
  open_ = false;
}

void host_split::on_switch(const void* from, const void* to) {
  wrapper_seen_ = true;
  // The host_split is armed before spmd(), so the first switch it sees is
  // the run loop resuming rank 0.
  if (main_ctx_ == nullptr) main_ctx_ = from;
  if (from == main_ctx_) {
    // Provisional start, for a rank main's first slice (it never returns
    // from a switch); a resumed fiber restarts it in on_resumed.
    open_slice(last_close_);
  } else if (to == main_ctx_ && open_) {
    close_slice(open_rank_);
  }
}

void host_split::on_resumed(const void* from, const void* to) {
  // A fiber that yielded to the run loop is running again: the slice starts
  // here, after the switch-in.
  if (to == main_ctx_ && from != main_ctx_) open_slice(ticks());
}

void host_split::on_resume_end(int rank) {
  // A rank main that returns exits without switching back to the run loop.
  if (open_) close_slice(rank);
}

split_mark host_split::mark() const {
  split_mark m;
  m.tsc = ticks();
  m.steady = std::chrono::steady_clock::now();
  double s = 0;
  for (const std::uint64_t a : acc_) s += static_cast<double>(a);
  if (open_) s += static_cast<double>(m.tsc - open_t0_);
  m.slice_ticks = s;
  const auto& prof = rt_.prof();
  for (int r = 0; r < rt_.eng().n_ranks(); r++) {
    for (std::size_t e = 0; e < ityr::common::n_prof_events; e++) {
      const auto ev = static_cast<ityr::common::prof_event>(e);
      m.scope_ticks[e] += prof.accumulated(r, ev);
    }
  }
  return m;
}

split_result host_split::diff(const split_mark& a, const split_mark& b) {
  split_result s;
  s.region_s = std::chrono::duration<double>(b.steady - a.steady).count();
  const double sec_per_tick =
      b.tsc > a.tsc ? s.region_s / static_cast<double>(b.tsc - a.tsc) : 0.0;
  const double slices_s = (b.slice_ticks - a.slice_ticks) * sec_per_tick;
  s.loop_s = s.region_s - slices_s;
  double scoped = 0;
  for (std::size_t e = 0; e < ityr::common::n_prof_events; e++) {
    const auto l = static_cast<std::size_t>(layer_of(static_cast<ityr::common::prof_event>(e)));
    const double v = (b.scope_ticks[e] - a.scope_ticks[e]) * sec_per_tick;
    s.layer_s[l] += v;
    scoped += v;
  }
  s.other_s = slices_s - scoped;
  return s;
}

}  // namespace perfbench

// Link-time wrapper (-Wl,--wrap) around ityr::sim::fiber_switch: every call
// the engine makes goes through here. One predictable branch when no traced
// region is armed.
extern "C" void __real__ZN4ityr3sim12fiber_switchEPNS0_13fiber_contextES2_(
    ityr::sim::fiber_context* from, ityr::sim::fiber_context* to);

extern "C" void __wrap__ZN4ityr3sim12fiber_switchEPNS0_13fiber_contextES2_(
    ityr::sim::fiber_context* from, ityr::sim::fiber_context* to) {
  if (perfbench::g_active != nullptr) perfbench::g_active->on_switch(from, to);
  __real__ZN4ityr3sim12fiber_switchEPNS0_13fiber_contextES2_(from, to);
  if (perfbench::g_active != nullptr) perfbench::g_active->on_resumed(from, to);
}
