#pragma once

#include <array>
#include <memory>
#include <vector>

#include "itoyori/pgas/cache_system.hpp"
#include "itoyori/pgas/global_heap.hpp"
#include "itoyori/pgas/types.hpp"

namespace ityr::pgas {

/// The full PGAS layer of the simulated cluster: the shared global heap plus
/// one cache_system per rank, the epoch control window for the lazy-release
/// protocol, a GET/PUT baseline (paper Section 6.1's "No Cache"
/// configuration: thin wrappers over MPI_Get/MPI_Put into user buffers), and
/// an SPMD barrier.
///
/// All per-rank operations dispatch on the calling rank; they must be called
/// from inside simulated rank fibers.
class pgas_space {
public:
  pgas_space(sim::engine& eng, rma::context& rma);

  global_heap& heap() { return heap_; }
  cache_system& cache() { return cache_of(eng_.my_rank()); }
  cache_system& cache_of(int rank) { return *caches_[static_cast<std::size_t>(rank)]; }

  // ---- checkout/checkin on the calling rank ----
  void* checkout(gaddr_t g, std::size_t size, access_mode mode) {
    return cache().checkout(g, size, mode);
  }
  void checkin(gaddr_t g, std::size_t size, access_mode mode) {
    cache().checkin(g, size, mode);
  }

  // ---- fences on the calling rank ----
  void release() { cache().release(); }
  release_handler release_lazy() { return cache().release_lazy(); }
  void acquire() { cache().acquire(); }
  void acquire(release_handler h) { cache().acquire(h); }
  /// Plain acquire that first waits out a known releaser watermark (async
  /// release: the finishing child's pending write-back rounds).
  void acquire_watermark(double w) { cache().acquire_watermark(w); }
  void poll() {
    if (release_requested()) cache().poll();
    heap_.poll();
  }
  /// A thief raised the calling rank's request epoch past its current one,
  /// so its cache's poll() owes a release round. Read from the dense array
  /// behind the control window, not through the rank's cache: every idle
  /// step asks.
  bool release_requested() const {
    const auto& ew = epochs_[static_cast<std::size_t>(eng_.my_rank())];
    return ew[0] < ew[1];
  }

  // ---- GET/PUT baseline (uncached, copies into user memory) ----
  void get(gaddr_t from, void* to, std::size_t size);
  void put(const void* from, gaddr_t to, std::size_t size);

  // ---- single-block fast-path entry points (front-table served) ----
  /// False means the caller must fall back to checkout/checkin or GET/PUT.
  bool get_fast(gaddr_t from, void* to, std::size_t size) {
    return cache().get_fast(from, size, to);
  }
  bool put_fast(const void* from, gaddr_t to, std::size_t size) {
    return cache().put_fast(to, size, from);
  }

  /// SPMD-mode barrier across all ranks, with release/acquire semantics
  /// (all writes before the barrier are visible after it). After its
  /// acquire, each rank's cache gives its stale pages back to the kernel if
  /// it held any byte since its last drop (cache_system::drop_stale_pages).
  void barrier();

  /// Aggregate cache statistics over all ranks.
  cache_system::stats aggregate_stats() const;

  /// Aggregate the ranks' sparse per-job cache rows into one dense vector
  /// (serving mode; empty when off or when no job moved traffic). Row index =
  /// job id, up to the highest id any rank holds a row for; row 0 collects
  /// untagged traffic. cached_bytes and cached_bytes_peak sum the ranks' own
  /// values, so the peak is an upper bound on the cluster-wide resident peak
  /// (ranks need not peak at the same time).
  std::vector<job_cache_stats> aggregate_job_stats() {
    std::vector<job_cache_stats> rows;
    for (auto& c : caches_) {
      for (const auto& [j, r] : c->job_accounting().rows) {
        if (j >= rows.size()) rows.resize(static_cast<std::size_t>(j) + 1);
        rows[j].fetched_bytes += r.fetched_bytes;
        rows[j].written_back_bytes += r.written_back_bytes;
        rows[j].block_fetches += r.block_fetches;
        rows[j].cached_bytes += r.cached_bytes;
        rows[j].cached_bytes_peak += r.cached_bytes_peak;
      }
    }
    return rows;
  }

  /// Attach the tracer to every rank's cache system (nullptr detaches).
  void set_tracer(common::tracer* t) {
    for (auto& c : caches_) c->set_tracer(t);
  }

private:
  /// Shared GET/PUT walk: per-block transfers with pool-contiguous runs
  /// merged into single messages when coalescing is enabled.
  void xfer(gaddr_t g, std::byte* local, std::size_t size, bool is_put);

  sim::engine& eng_;
  rma::context& rma_;
  global_heap heap_;

  // Epoch control words, one pair per rank, registered as an RMA window so
  // thieves can poll/request write-backs remotely (Fig. 6).
  std::vector<std::array<std::uint64_t, 2>> epochs_;
  rma::window* ctrl_win_ = nullptr;

  std::vector<std::unique_ptr<cache_system>> caches_;

  // Barrier state (shared; the DES serializes access).
  std::uint64_t barrier_generation_ = 0;
  int barrier_arrived_ = 0;
  // Async release: max visibility watermark of the arriving ranks' pending
  // write-back rounds. Accumulated into `pending` while ranks arrive, sealed
  // into `sealed` by the last arrival, waited on by everyone after the flip
  // (always 0 in synchronous mode).
  double barrier_vis_pending_ = 0;
  double barrier_vis_sealed_ = 0;
};

}  // namespace ityr::pgas
