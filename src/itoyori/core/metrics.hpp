#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "itoyori/common/histogram.hpp"

namespace ityr {

class runtime;

/// One named counter with per-rank values plus the aggregate view.
/// `integral` marks exact counters (message counts, checkouts, ...) so the
/// JSON exporter prints them without a fractional part; doubles up to 2^53
/// hold them exactly.
struct metric_series {
  std::string name;
  bool integral = false;
  std::vector<double> per_rank;

  double of(int rank) const { return per_rank[static_cast<std::size_t>(rank)]; }
  double total() const {
    double s = 0;
    for (const double v : per_rank) s += v;
    return s;
  }
};

/// One named distribution: the cluster-wide log2-bucketed histogram every
/// rank records into (integer counts, so independent of rank order).
struct metric_histogram {
  std::string name;
  common::log_histogram hist;
};

/// One row of the per-job section (ITYR_SERVE): lifecycle timestamps plus
/// the job's scheduler-busy share and its aggregated software-cache traffic.
/// `name` is "job<id>:<workload>" — unique per row, so tools/stats_diff can
/// address fields as `jobs.job3:cilksort.latency_s` regardless of order.
struct metric_job_row {
  std::string name;
  std::uint32_t id = 0;
  bool done = false;
  double t_admit_s = 0;
  double t_start_s = 0;
  double t_complete_s = 0;
  double latency_s = 0;
  double busy_s = 0;   ///< scheduler busy time attributed to the job (all ranks)
  double span_s = 0;   ///< job-local critical path (0 unless ITYR_CRITPATH)
  std::uint64_t fetched_bytes = 0;
  std::uint64_t written_back_bytes = 0;
  std::uint64_t block_fetches = 0;
  /// Sum of the ranks' own peaks: an upper bound on the job's cluster-wide
  /// resident peak, not a measurement of it (ranks need not peak together).
  std::uint64_t cached_bytes_peak = 0;
};

/// One entry of the pgas.hot_blocks export (ITYR_HOT_BLOCKS_TOPN): the
/// cumulative traffic profile of one home block, hottest first.
struct metric_hot_block {
  std::string name;                ///< "block<id>"
  int owner = -1;                  ///< current owner rank (-1 = allocation freed)
  std::uint64_t reader_mask = 0;   ///< reader ranks (clamped to the first 64)
  std::uint64_t fetch_bytes = 0;
  std::uint64_t writeback_bytes = 0;
};

/// Unified snapshot of every runtime counter — cache, scheduler, network,
/// VM, engine, timeline, and profiler — under one naming scheme
/// (docs/observability.md). Snapshots are plain data: diff two of them with
/// delta() to meter a region, export with to_json() (ITYR_STATS_JSON).
class metrics_snapshot {
public:
  void add(std::string name, bool integral, std::vector<double> per_rank) {
    series_.push_back({std::move(name), integral, std::move(per_rank)});
  }
  void add_histogram(std::string name, common::log_histogram hist) {
    histograms_.push_back({std::move(name), std::move(hist)});
  }
  void add_hot_block(metric_hot_block hb) { hot_blocks_.push_back(std::move(hb)); }
  void add_job(metric_job_row row) { jobs_.push_back(std::move(row)); }

  const std::vector<metric_series>& all() const { return series_; }
  std::size_t size() const { return series_.size(); }
  const std::vector<metric_histogram>& histograms() const { return histograms_; }
  /// nullptr when no histogram has that name.
  const metric_histogram* find_histogram(const std::string& name) const;
  /// Hottest home blocks (empty unless ITYR_HOT_BLOCKS_TOPN > 0).
  const std::vector<metric_hot_block>& hot_blocks() const { return hot_blocks_; }
  /// Per-job rows in admission order (empty unless ITYR_SERVE ran jobs).
  const std::vector<metric_job_row>& jobs() const { return jobs_; }

  /// nullptr when no series has that name.
  const metric_series* find(const std::string& name) const;

  /// Aggregate over ranks; 0 for unknown names.
  double total(const std::string& name) const {
    const metric_series* s = find(name);
    return s != nullptr ? s->total() : 0.0;
  }
  /// Single-rank value; 0 for unknown names.
  double of(const std::string& name, int rank) const {
    const metric_series* s = find(name);
    return s != nullptr ? s->of(rank) : 0.0;
  }

  /// Elementwise `this - base`, matched by series name: the counter growth
  /// across a region. Series missing from `base` pass through unchanged;
  /// series only in `base` are dropped. Histograms subtract counts the same
  /// way (they are monotone between snapshots).
  metrics_snapshot delta(const metrics_snapshot& base) const;

  /// Deterministic JSON: {"schema": "itoyori.metrics.v3", "schema_version":
  /// 3, "n_ranks": N, "metrics": [{"name", "total", "per_rank"}...],
  /// "histograms": [{"name", "count", "p50", "p90", "p99", ...}...]} in
  /// insertion order, plus "jobs" (ITYR_SERVE) and "hot_blocks"
  /// (ITYR_HOT_BLOCKS_TOPN) sections only when non-empty (so files written
  /// with those features off match ones from before the features existed,
  /// bar the version bump). tools/stats_diff compares two such files and
  /// reads v2 and v3 alike.
  std::string to_json() const;
  /// Write to_json() to `path`; false (with a stderr note) on I/O failure.
  bool write_json(const std::string& path) const;

private:
  std::vector<metric_series> series_;
  std::vector<metric_histogram> histograms_;
  std::vector<metric_hot_block> hot_blocks_;
  std::vector<metric_job_row> jobs_;
};

/// Snapshot every counter of the running cluster. Callable between regions
/// or mid-run (counters are monotonically increasing; pair with delta()).
metrics_snapshot collect_metrics(runtime& rt);

}  // namespace ityr
