#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "itoyori/common/job.hpp"

namespace ityr::pgas {

/// Per-job software-cache counters (serving mode, docs/internals.md
/// "Multi-job serving"). One row per job id; row 0 collects untagged traffic
/// (the admission driver, SPMD-mode operations) and is omitted from metrics.
///
/// Attribution is by the job current on the rank when the traffic happens:
/// fetches always belong to the faulting job; write-backs are attributed at
/// flush time, so dirty bytes flushed lazily by a later fence may land on a
/// successor job's row (exact producer tracking would need per-byte tags).
struct job_cache_stats {
  std::uint64_t fetched_bytes = 0;
  std::uint64_t written_back_bytes = 0;  ///< incl. write-through bytes
  std::uint64_t block_fetches = 0;       ///< block misses that entered a fetch round
  std::uint64_t cached_bytes = 0;        ///< cache slots currently tagged to the job
  std::uint64_t cached_bytes_peak = 0;
};

/// Shared accounting state between cache_system (facade counter deltas) and
/// block_directory (block tags): the current job on this rank and the
/// per-job rows. Disabled (single-job mode) it costs one predicted branch
/// per facade call.
///
/// Rows are sparse: a rank holds a row only for a job that moved cache
/// traffic on it (a tagged cache block or a nonzero counter delta), so the
/// store grows with traffic, not with ranks x jobs. The map is node-based,
/// so a reference returned by of() survives later inserts.
struct job_cache_accounting {
  bool enabled = false;
  common::job_id_t cur = common::no_job;
  std::unordered_map<common::job_id_t, job_cache_stats> rows;

  job_cache_stats& of(common::job_id_t j) { return rows[j]; }
  /// Number of jobs this rank holds a row for.
  std::size_t n_rows() const { return rows.size(); }
};

}  // namespace ityr::pgas
