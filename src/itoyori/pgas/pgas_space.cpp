#include "itoyori/pgas/pgas_space.hpp"

namespace ityr::pgas {

pgas_space::pgas_space(sim::engine& eng, rma::context& rma)
    : eng_(eng), rma_(rma), heap_(eng, rma) {
  const auto n = static_cast<std::size_t>(eng_.n_ranks());
  epochs_.assign(n, {0, 0});
  std::vector<rma::window::region> regions;
  regions.reserve(n);
  for (auto& e : epochs_) {
    regions.push_back({reinterpret_cast<std::byte*>(e.data()), sizeof(e)});
  }
  ctrl_win_ = rma_.create_window(std::move(regions));

  caches_.reserve(n);
  for (std::size_t r = 0; r < n; r++) {
    caches_.push_back(
        std::make_unique<cache_system>(eng_, rma_, heap_, *ctrl_win_, static_cast<int>(r)));
  }
  // Async-release visibility: an acquirer that observed a releaser's epoch
  // word still has to wait out that round's modelled completion time; the
  // caches cannot see each other, so the lookup goes through us.
  for (auto& c : caches_) {
    c->set_peer_ready(
        [this](int r, std::uint64_t epoch) { return cache_of(r).release_ready_at(epoch); });
  }
}

void pgas_space::get(gaddr_t from, void* to, std::size_t size) {
  xfer(from, static_cast<std::byte*>(to), size, /*is_put=*/false);
}

void pgas_space::put(const void* from, gaddr_t to, std::size_t size) {
  xfer(to, const_cast<std::byte*>(static_cast<const std::byte*>(from)), size, /*is_put=*/true);
}

void pgas_space::xfer(gaddr_t g, std::byte* local, std::size_t size, bool is_put) {
  ITYR_CHECK(size > 0);
  if (!heap_.in_heap(g, size))
    throw common::api_error(is_put ? "PUT outside the global heap" : "GET outside the global heap");
  const std::size_t bs = heap_.block_size();
  const bool coalesce = eng_.opts().coalesce_rma;
  const std::uint64_t off0 = heap_.view_off(g);
  std::uint64_t pos = off0;
  const std::uint64_t end = off0 + size;

  // Per-block spans whose homes sit back-to-back in one rank's pool (block
  // distribution, or a rank's successive cyclic blocks) ride one message:
  // both the remote range and the user buffer are contiguous across the
  // block boundary, so plain run-merging suffices — no gather list needed.
  global_heap::home_loc run_home{};   // home of the run's first block
  global_heap::home_loc prev_home{};  // home of the last block appended
  std::uint64_t run_begin = 0;        // view offset where the current run starts
  std::uint64_t run_len = 0;

  auto flush_run = [&] {
    if (run_len == 0) return;
    if (is_put) {
      rma_.put_nb(*run_home.win, run_home.rank, run_home.pool_off + run_begin % bs,
                  local + (run_begin - off0), run_len);
    } else {
      rma_.get_nb(*run_home.win, run_home.rank, run_home.pool_off + run_begin % bs,
                  local + (run_begin - off0), run_len);
    }
    run_len = 0;
  };

  while (pos < end) {
    const std::uint64_t mb_id = pos / bs;
    const std::uint64_t in_block = pos % bs;
    const std::uint64_t len = std::min<std::uint64_t>(bs - in_block, end - pos);
    const auto home = heap_.locate_block(mb_id);
    // A new block can only extend the run if the run ended exactly at the
    // previous block boundary (in_block == 0 guarantees it) and its home
    // bytes directly follow the previous block's in the same pool.
    if (run_len > 0 && coalesce && in_block == 0 && heap_.homes_contiguous(prev_home, home)) {
      run_len += len;
    } else {
      flush_run();
      run_home = home;
      run_begin = pos;
      run_len = len;
    }
    prev_home = home;
    pos += len;
  }
  flush_run();
  rma_.flush();
}

void pgas_space::barrier() {
  // Release before the rendezvous, acquire after: a barrier is a global
  // synchronization point under SC-for-DRF.
  cache().release();

  const int n = eng_.n_ranks();
  const std::uint64_t my_generation = barrier_generation_;
  barrier_vis_pending_ = std::max(barrier_vis_pending_, cache().visibility_watermark());
  if (++barrier_arrived_ == n) {
    barrier_arrived_ = 0;
    // Seal the watermark of this generation before releasing the spinners; a
    // laggard of generation g reads `sealed` strictly before it can arrive at
    // generation g+1, so the two-variable scheme cannot race.
    barrier_vis_sealed_ = barrier_vis_pending_;
    barrier_vis_pending_ = 0;
    barrier_generation_++;
  } else {
    while (barrier_generation_ == my_generation) {
      if (eng_.any_rank_failed()) {
        // A peer died with an exception; unblock so the error surfaces
        // instead of spinning forever.
        barrier_arrived_--;
        throw common::resource_error("barrier aborted: another rank failed");
      }
      eng_.advance(eng_.opts().poll_interval);
    }
  }
  // Latency of the barrier tree itself. This must *advance* (yield), not
  // just charge: a barrier is a synchronization point, and yielding commits
  // the measured compute of the slice that ran before it — otherwise a
  // single-rank barrier would leave the preceding computation's time
  // uncommitted and invisible to now().
  double depth = 0.0;
  for (int p = 1; p < n; p *= 2) depth += 1.0;
  eng_.advance(depth * eng_.opts().net.inter_latency);

  // Under async release the pre-barrier releases may still be in flight;
  // wait out the sealed watermark before invalidating (no-op when 0).
  cache().acquire_watermark(barrier_vis_sealed_);
  // Nothing in the cache is valid now. The acquire dropped its pages if a
  // block's worth was fetched; a barrier drops them for any held byte,
  // unless the cache is full and would rewrite them at once.
  cache().drop_stale_pages();
}

cache_system::stats pgas_space::aggregate_stats() const {
  cache_system::stats agg;
  for (const auto& c : caches_) {
    const auto& s = c->get_stats();
    agg.checkouts += s.checkouts;
    agg.checkins += s.checkins;
    agg.block_visits += s.block_visits;
    agg.block_hits += s.block_hits;
    agg.block_misses += s.block_misses;
    agg.write_skips += s.write_skips;
    agg.fast_path_hits += s.fast_path_hits;
    agg.front_table_conflicts += s.front_table_conflicts;
    agg.coalesced_messages += s.coalesced_messages;
    agg.fetched_bytes += s.fetched_bytes;
    agg.written_back_bytes += s.written_back_bytes;
    agg.write_through_bytes += s.write_through_bytes;
    agg.cache_evictions += s.cache_evictions;
    agg.home_evictions += s.home_evictions;
    agg.releases += s.releases;
    agg.acquires += s.acquires;
    agg.lazy_release_waits += s.lazy_release_waits;
    agg.prefetch_issued += s.prefetch_issued;
    agg.prefetch_issued_bytes += s.prefetch_issued_bytes;
    agg.prefetch_useful_bytes += s.prefetch_useful_bytes;
    agg.prefetch_wasted_bytes += s.prefetch_wasted_bytes;
    agg.prefetch_late += s.prefetch_late;
    agg.fetch_stall_s += s.fetch_stall_s;
    agg.releases_noop += s.releases_noop;
    agg.async_wb_rounds += s.async_wb_rounds;
    agg.epochs_in_flight = std::max(agg.epochs_in_flight, s.epochs_in_flight);
    agg.release_stall_s += s.release_stall_s;
  }
  return agg;
}

}  // namespace ityr::pgas
