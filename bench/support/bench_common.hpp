#pragma once

/// Shared experiment drivers of the benches: the scaled cluster
/// configuration, one runner per application, and the paper-style text
/// table.
///
/// A runner simulates one whole run of the scaled cluster and returns its
/// virtual time, its validation result, its counts and the registry
/// snapshot taken after `spmd` returned. bench/paper runs the paper's
/// figure and table points through these runners. Compute cost inside the
/// simulation is measured host CPU time, so virtual times are directly
/// comparable to the serial (runtime-elided) baselines, which are measured
/// in real time.

#include <cstdint>
#include <string>
#include <vector>

#include "itoyori/apps/fmm/fmm.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/core/metrics.hpp"
#include "itoyori/pgas/cache_system.hpp"

namespace ityr::bench {

/// Scaled-down analog of the paper's Table 1 environment: N nodes x R
/// ranks/node over a Tofu-D-like network model, 64 KiB blocks, 4 KiB
/// sub-blocks, block-cyclic collective distribution, measured compute time.
common::options cluster_opts(int n_nodes, int ranks_per_node);

/// Aggregate metrics of one simulated run.
struct run_metrics {
  double time = 0;  ///< virtual seconds of the measured phase
  std::uint64_t steals = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t written_back_bytes = 0;
  std::uint64_t messages = 0;  ///< RMA messages over the whole run
  std::uint64_t bytes = 0;     ///< RMA payload bytes over the whole run
  bool ok = true;  ///< application-level validation passed
  /// Every registry series of the whole run (collect_metrics), taken after
  /// `spmd` returned.
  metrics_snapshot stats;
};

// ---- experiment drivers ----

run_metrics run_cilksort(const common::options& opt, std::size_t n, std::size_t cutoff);

/// Like run_cilksort, but additionally returns the aggregate cache-system
/// statistics of the whole run (fast-path hits, visit accounting, coalescing
/// savings) through `cache_stats_out`.
run_metrics run_cilksort_with_stats(const common::options& opt, std::size_t n, std::size_t cutoff,
                                    pgas::cache_system::stats* cache_stats_out);

/// Serial baseline with all runtime calls elided (paper Section 6.1):
/// quicksort+merge on plain local memory, measured in real seconds.
double run_cilksort_serial(std::size_t n);

/// Cilksort for the Fig. 9 breakdown: the profiler is on and is reset after
/// input generation, so the snapshot's `prof.*.self_s` series cover the sort
/// alone. No timing and no validation pass.
metrics_snapshot run_cilksort_profiled(const common::options& opt, std::size_t n,
                                       std::size_t cutoff);

struct uts_metrics {
  run_metrics traverse;  ///< time and fetched bytes of the traversal alone
  std::uint64_t n_nodes = 0;
  double throughput = 0;  ///< traversal nodes per virtual second
};
uts_metrics run_uts_mem(const common::options& opt, const apps::uts_params& p);

struct fmm_metrics {
  run_metrics solve;  ///< upward + traversal + downward (tree build excluded)
  apps::fmm::fmm_error err;
  // Static baseline only, read from the scheduler's phase timeline (the
  // Table 2 source of truth): idleness plus the per-phase totals behind it.
  double idleness = -1;
  double timeline_busy_s = 0;
  double timeline_idle_s = 0;
};
fmm_metrics run_fmm(const common::options& opt, std::size_t n_bodies,
                    const apps::fmm::fmm_config& cfg, bool static_baseline, bool check = true);
/// Serial FMM with the runtime elided: one rank, no forked tasks.
run_metrics run_fmm_serial(std::size_t n_bodies, const apps::fmm::fmm_config& cfg);

// ---- result table printing ----

class result_table {
public:
  result_table(std::string title, std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  void print() const;

  static std::string fmt(double v, int prec = 4);

private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ityr::bench
