#pragma once

/// Shared experiment drivers for the paper-reproduction benchmarks.
///
/// Every figure/table binary follows the same pattern: run full simulations
/// of the scaled-down cluster for each configuration point, report the
/// *virtual* execution time through google-benchmark's manual-time mode, and
/// print a paper-style summary table at the end. Compute cost inside the
/// simulation is measured host CPU time, so virtual times are directly
/// comparable to the serial (runtime-elided) baselines, which are measured
/// in real time.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "itoyori/apps/fmm/fmm.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/common/options.hpp"
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
  std::uint64_t intra_node_steals = 0;
  std::uint64_t forks = 0;
  std::uint64_t fetched_bytes = 0;
  std::uint64_t written_back_bytes = 0;
  std::uint64_t messages = 0;     ///< RMA messages over the whole run
  std::uint64_t bytes = 0;        ///< RMA payload bytes over the whole run
  std::uint64_t inter_bytes = 0;  ///< the inter-node share of `bytes`
  bool ok = true;  ///< application-level validation passed
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

struct uts_metrics {
  run_metrics build;
  run_metrics traverse;
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
  std::size_t n_cells = 0;
};
fmm_metrics run_fmm(const common::options& opt, std::size_t n_bodies,
                    const apps::fmm::fmm_config& cfg, bool static_baseline, bool check = true);
double run_fmm_serial(std::size_t n_bodies, const apps::fmm::fmm_config& cfg);

/// Per-category breakdown of a cilksort run (Fig. 9), read from the unified
/// metrics registry: categories are the profiler's `prof.*.self_s` series
/// and the capacity term ("Others" remainder) is the phase timeline's
/// busy+steal+idle total.
struct breakdown_row {
  std::string category;
  double seconds = 0;  ///< accumulated over all ranks
};
std::vector<breakdown_row> run_cilksort_breakdown(const common::options& opt, std::size_t n,
                                                  std::size_t cutoff, double* total_capacity);

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

/// Register a google-benchmark entry that runs `fn` once per iteration and
/// reports its returned virtual seconds as manual time. A configuration
/// that throws is reported and skipped instead of aborting the whole sweep.
template <typename Fn>
void register_sim_benchmark(const std::string& name, Fn fn) {
  benchmark::RegisterBenchmark(name.c_str(), [fn, name](benchmark::State& state) {
    for (auto _ : state) {
      double virtual_seconds = 1e-9;
      try {
        virtual_seconds = fn(state);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[%s] FAILED: %s\n", name.c_str(), e.what());
        state.SkipWithError(e.what());
      }
      state.SetIterationTime(virtual_seconds);
    }
  })->UseManualTime()->Iterations(1)->Unit(benchmark::kMillisecond);
}

}  // namespace ityr::bench
