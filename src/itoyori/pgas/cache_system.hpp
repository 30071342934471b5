#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "itoyori/common/interval_set.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/eviction_policy.hpp"
#include "itoyori/pgas/fetch_engine.hpp"
#include "itoyori/pgas/front_table.hpp"
#include "itoyori/pgas/global_heap.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/pgas/types.hpp"
#include "itoyori/pgas/write_policy.hpp"
#include "itoyori/pgas/writeback_engine.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"
#include "itoyori/vm/view_region.hpp"

namespace ityr::pgas {

class placement_engine;

/// Per-rank software cache and coherence engine (paper Sections 4 and 5.2):
/// the orchestrating facade of a layered stack.
///
/// checkout()/checkin() implement Fig. 4; coherence follows SC-for-DRF with
/// self-invalidation: release() writes all dirty bytes back to their homes,
/// acquire() invalidates every cache block, and release_lazy()/
/// acquire(handler)/poll() implement the epoch-based lazy release protocol
/// of Fig. 6.
///
/// The machinery lives in four cooperating layers (docs/internals.md has the
/// full diagram and ownership rules):
///
/// * block_directory — home/cache mem_block ownership, the recency lists and
///   mapping-entry budget (Section 4.3), eviction via the eviction_policy
///   seam (LRU default, clock via ITYR_EVICTION_POLICY), and the per-rank
///   view region + cache pool.
/// * fetch_engine — demand-fetch gap collection at sub-block granularity,
///   coalesced nonblocking gets, the round completion wait, and the adaptive
///   stream prefetcher (ITYR_PREFETCH) with its in-flight pipeline.
/// * writeback_engine — the dirty list, blocking and asynchronous
///   epoch-pipelined write-back rounds (ITYR_ASYNC_RELEASE), the epoch words
///   and fence handshakes, visibility watermarks and idle-time flushing.
/// * front_table — the direct-mapped fast-path memo serving single-block
///   checkouts without touching the generic machinery.
///
/// Checkin dirty-byte handling is a write_policy object (write-through vs
/// write-back), not a branch. The facade walks blocks, keeps the pinned-set
/// rollback for too-much-checkout, and wires the layers together; each layer
/// takes its dependencies by reference and is unit-tested in isolation
/// against a mock rma::channel.
class cache_system : private block_directory::client {
public:
  using stats = cache_stats;

  /// `ctrl_win` must expose, at offsets 0 and 8 of each rank's region, the
  /// current-epoch and request-epoch words of that rank. `pl` (optional) is
  /// the dynamic placement engine: fetches route through its read sources,
  /// writes invalidate its replicas, and stale cached homes are fixed up via
  /// the forwarding generation.
  cache_system(sim::engine& eng, rma::context& rma, global_heap& heap, rma::window& ctrl_win,
               int rank, placement_engine* pl = nullptr);

  // ---- checkout/checkin (Section 3.3 / Fig. 4) ----
  void* checkout(gaddr_t g, std::size_t size, access_mode mode);
  void checkin(gaddr_t g, std::size_t size, access_mode mode);

  // ---- front-table fast paths ----
  /// Single-block fast path: non-null iff the block is memoized, mapped and,
  /// for reads, holds valid data for the request (front_table has the
  /// rule). Pins the block like checkout(). checkout() tries this first, so
  /// callers only need it to skip the generic prologue.
  void* checkout_fast(gaddr_t g, std::size_t size, access_mode mode) {
    return front_.checkout_fast(g, size, mode);
  }
  /// Matching fast checkin; false means the caller must use checkin().
  bool checkin_fast(gaddr_t g, std::size_t size, access_mode mode) {
    return front_.checkin_fast(g, size, mode);
  }
  /// One-shot single-element load/store: checkout+copy+checkin fused, no
  /// pin/unpin (nothing can intervene — the copy cannot yield). False means
  /// the caller must fall back to the generic span path.
  bool get_fast(gaddr_t g, std::size_t size, void* out) { return front_.get_fast(g, size, out); }
  bool put_fast(gaddr_t g, std::size_t size, const void* in) {
    return front_.put_fast(g, size, in);
  }

  // ---- fences (Section 4.4, Fig. 6) ----
  void release();
  release_handler release_lazy();
  void acquire();                    ///< plain acquire: self-invalidate
  void acquire(release_handler h);   ///< wait for the releaser's epoch first
  void poll() { wb_.poll(); }        ///< DoReleaseIfRequested

  // ---- asynchronous release pipeline (ITYR_ASYNC_RELEASE) ----
  /// Opportunistic flush from the worker loop's steal-backoff branch: issues
  /// a nonblocking write-back round for any dirty data (skipped, not
  /// stalled, when over the in-flight byte budget) so the next real fence
  /// finds an empty dirty list. No-op unless async release is enabled.
  void idle_flush() { wb_.idle_flush(); }
  /// Whether idle_flush() would issue a round (which may advance the clock).
  bool idle_flush_may_block() const { return wb_.idle_flush_may_block(); }
  /// Visibility watermark: the latest modelled completion time of any async
  /// write-back round this cache issued or transitively observed. Always 0
  /// in synchronous mode (every fence completes inline), so callers can
  /// stamp/wait unconditionally.
  double visibility_watermark() const { return wb_.visibility_watermark(); }
  /// Wait (targeted, not a flush) until `w`, then fold it into our own
  /// watermark: data observed under `w` may include third-party rounds that
  /// later handoffs must also respect. No-op for w <= now.
  void wait_visibility(double w) { wb_.wait_visibility(w); }
  /// Plain acquire whose releaser's watermark is known locally (join with a
  /// finished child, barrier): wait out the watermark, then self-invalidate.
  /// Equivalent to acquire() in synchronous mode.
  void acquire_watermark(double w);
  /// Modelled completion time of the write-back round that advanced this
  /// rank's epoch to `epoch` (0 when nothing needs waiting). Monotone in
  /// `epoch`; epochs older than the ring conservatively report the latest
  /// recorded completion. Peers reach this through the pgas_space callback.
  double release_ready_at(std::uint64_t epoch) const { return wb_.release_ready_at(epoch); }
  /// Async-release peer lookup, wired by pgas_space: maps (rank, epoch) to
  /// that rank's release_ready_at (cache_system cannot see sibling caches).
  void set_peer_ready(std::function<double(int, std::uint64_t)> fn) {
    wb_.set_peer_ready(std::move(fn));
  }

  // ---- introspection ----
  bool has_dirty() const { return wb_.has_dirty(); }
  std::uint64_t current_epoch() const { return wb_.current_epoch(); }
  std::size_t n_cache_blocks() const { return dir_.n_cache_blocks(); }
  std::size_t home_mapped_limit() const { return dir_.home_mapped_limit(); }
  std::size_t checked_out_bytes() const { return checked_out_bytes_; }
  std::size_t front_table_entries() const { return front_.entries(); }
  const stats& get_stats() const { return st_; }

  // ---- per-job accounting (serving mode) ----
  /// Attribute cache traffic since the last sync to the previously-current
  /// job, then switch attribution to `j`. The scheduler calls this whenever
  /// the job running on this rank changes; no-op when serving is off.
  ///
  /// Attribution is snapshot-based: the facade counters (fetched bytes,
  /// written-back + write-through bytes, block misses) only advance while
  /// this rank executes, and `cur` is constant between switches, so the
  /// delta since the last sync belongs entirely to the outgoing job.
  void set_current_job(common::job_id_t j) {
    if (!jobs_acct_.enabled) return;
    sync_job_deltas();
    jobs_acct_.cur = j;
  }
  /// Per-job cache counters, synced to the latest traffic on access.
  const job_cache_accounting& job_accounting() {
    if (jobs_acct_.enabled) sync_job_deltas();
    return jobs_acct_;
  }
  const vm::view_region& view() const { return dir_.view(); }

  /// Emit eviction instants and write-back spans into `t` (nullptr detaches).
  void set_tracer(common::tracer* t) {
    dir_.set_tracer(t);
    fetch_.set_tracer(t);
    wb_.set_tracer(t);
  }

  /// Raw view pointer for a gaddr (valid only while checked out).
  std::byte* view_ptr(gaddr_t g) { return dir_.view().at(heap_.view_off(g)); }

  // ---- dynamic placement hooks (placement_engine only) ----
  /// True iff the block is pinned or dirty in this rank's directory (its
  /// home must not migrate).
  bool placement_block_busy(std::uint64_t mb_id) const { return dir_.block_busy(mb_id); }
  /// Drop this rank's directory record of the block ahead of a home
  /// migration; true iff a record existed.
  bool placement_purge(std::uint64_t mb_id) { return dir_.purge_block(mb_id); }

private:
  // block_directory::client: a block is about to die / eviction needs clean
  // victims.
  void on_block_evicted(mem_block& mb) override;
  void flush_dirty_for_eviction() override { wb_.writeback_all(); }

  void invalidate_all();
  void sync_job_deltas();

  sim::engine& eng_;
  rma::channel& ch_;
  global_heap& heap_;
  const int rank_;
  const std::size_t block_size_;
  const std::size_t sub_block_size_;
  placement_engine* pl_;  ///< dynamic placement (null when off)

  cache_stats st_;
  std::size_t checked_out_bytes_ = 0;

  // Serving mode: per-job rows shared with the directory (block tags)
  // plus the counter snapshots backing the delta attribution.
  job_cache_accounting jobs_acct_;
  std::uint64_t job_sync_fetched_ = 0;
  std::uint64_t job_sync_wb_ = 0;
  std::uint64_t job_sync_misses_ = 0;

  std::unique_ptr<eviction_policy> evict_;
  block_directory dir_;
  writeback_engine wb_;
  std::unique_ptr<write_policy> write_policy_;
  fetch_engine fetch_;
  front_table front_;

  // Reused per checkout round (no allocation on the hot path).
  struct touched {
    mem_block* mb;
    common::interval write_added;  // empty unless write-mode valid.add
    bool mapped_early;             // mapped by this checkout, not yet charged
  };
  std::vector<touched> pinned_;
};

}  // namespace ityr::pgas
