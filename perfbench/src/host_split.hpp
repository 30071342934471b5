#pragma once

/// Host-time split of a traced region by layer, measured from outside the
/// runtime.
///
/// The simulator is single-threaded, so host time is a sequence of DES loop
/// iterations, each running one rank's slice. A per-rank host clock advances
/// only while that rank's slice runs; the runtime's Fig. 9 profiler scopes
/// (checkout/checkin/get/put, fences, the steal loop, serial kernels) are
/// re-pointed at it through common::profiler::configure, so a scope that
/// suspends across other ranks' slices is charged only its own rank's time.
/// Time outside every slice is the DES loop's own (pick-next, queue update,
/// context switch in and out).
///
/// Slice boundaries come from a link-time wrapper of sim::fiber_switch
/// (switches into and out of the engine's run-loop context) plus the engine's
/// resume hook, which closes any slice still open (a rank main that exits
/// without switching back). The hook alone fires only after a slice, so it
/// cannot tell the loop's time from the slice's; a traced run in which the
/// wrapper saw no switch fails its self-check.

#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "itoyori/core/runtime.hpp"

namespace perfbench {

/// The profiler's scopes grouped into the benchmark's layers.
enum class scope_layer : int { access, fence, steal, kernel, count_ };
inline constexpr int n_scope_layers = static_cast<int>(scope_layer::count_);

/// Raw reading of the traced clocks at one instant (taken on rank 0).
struct split_mark {
  std::uint64_t tsc = 0;
  std::chrono::steady_clock::time_point steady{};
  double slice_ticks = 0;  ///< all ranks' slice time so far, in ticks
  std::array<double, ityr::common::n_prof_events> scope_ticks{};  ///< summed over ranks
};

/// Host seconds of one region, split by layer. Parts are nonnegative up to
/// clock jitter and sum to region_s.
struct split_result {
  double region_s = 0;
  double loop_s = 0;    ///< DES loop: region time outside every slice
  double other_s = 0;   ///< slice time outside every profiler scope
  std::array<double, n_scope_layers> layer_s{};

  void add(const split_result& o);
  double parts_sum() const;
};

class host_split {
public:
  /// Hook into `rt`: resume hook, profiler time source and the switch
  /// wrapper. Call before rt.spmd(); one host_split per runtime.
  explicit host_split(ityr::runtime& rt);
  ~host_split();
  host_split(const host_split&) = delete;
  host_split& operator=(const host_split&) = delete;

  split_mark mark() const;
  static split_result diff(const split_mark& a, const split_mark& b);

  /// Whether the fiber_switch wrapper saw the engine's switches.
  bool wrapper_seen() const { return wrapper_seen_; }

  // ---- called from the fiber_switch wrapper and the resume hook ----
  void on_switch(const void* from, const void* to);
  void on_resumed(const void* from, const void* to);
  void on_resume_end(int rank);

private:
  double rank_ticks(int rank) const;
  void open_slice(std::uint64_t t0);
  void close_slice(int rank);

  ityr::runtime& rt_;
  std::vector<std::uint64_t> acc_;  ///< closed-slice ticks per rank
  bool open_ = false;
  int open_rank_ = -1;
  std::uint64_t open_t0_ = 0;
  std::uint64_t last_close_ = 0;
  const void* main_ctx_ = nullptr;  ///< the engine's run-loop context
  bool wrapper_seen_ = false;
};

}  // namespace perfbench
