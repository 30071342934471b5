#include "itoyori/pgas/writeback_engine.hpp"

#include <algorithm>

#include "itoyori/pgas/placement.hpp"

namespace ityr::pgas {

writeback_engine::writeback_engine(sim::engine& eng, rma::channel& ch, block_directory& dir,
                                   rma::window& ctrl_win, cache_stats& st, const config& cfg)
    : eng_(eng),
      ch_(ch),
      dir_(dir),
      ctrl_win_(ctrl_win),
      st_(st),
      rank_(cfg.rank),
      async_(cfg.async),
      wb_max_inflight_(cfg.wb_max_inflight),
      batch_(ch, cfg.coalesce, st.coalesced_messages),
      pl_(cfg.placement) {}

std::uint64_t* writeback_engine::epoch_words() const {
  return reinterpret_cast<std::uint64_t*>(ctrl_win_.addr(rank_, 0, 2 * sizeof(std::uint64_t)));
}

void writeback_engine::mark_dirty(mem_block& mb, common::interval iv) {
  // Stale replicas must die no later than the write becomes fetchable; being
  // earlier (at dirty marking instead of write-back issue) is always legal —
  // a reader just falls back to the owner.
  if (pl_ != nullptr) pl_->note_write_intent(mb.mb_id);
  mb.dirty.add(iv);
  if (!mb.in_dirty_list) {
    mb.in_dirty_list = true;
    dirty_blocks_.push_back(&mb);
  }
}

void writeback_engine::collect_dirty() {
  int cls = 0;
  for (mem_block* mb : dirty_blocks_) {
    if (pl_ != nullptr) {
      // Defensive forward fix-up: a dirty block's home cannot migrate (the
      // placement pass skips dirty blocks), so this should never fire — but
      // re-resolving here makes the no-lost-update invariant locally
      // checkable and keeps any future relaxation of the skip rule safe.
      home_loc cur;
      if (pl_->current_owner(mb->mb_id, cur) && cur.gen != mb->home.gen) {
        st_.forward_retries++;
        mb->home = cur;
      }
      pl_->note_writeback(mb->mb_id, rank_, mb->dirty.size());
    }
    for (const auto& iv : mb->dirty.to_vector()) {
      batch_.add(mb->home.win, mb->home.rank, mb->home.pool_off + iv.begin,
                 dir_.view_ptr(*mb) + iv.begin, iv.size());
      st_.written_back_bytes += iv.size();
    }
    // Stall attribution: the round waits on its farthest home.
    const int c = std::min(eng_.topo().class_of(rank_, mb->home.rank),
                           cache_stats::max_stall_classes - 1);
    if (c > cls) cls = c;
    mb->dirty.clear();
    mb->in_dirty_list = false;
  }
  dirty_blocks_.clear();
  wb_cls_ = cls;
}

void writeback_engine::writeback_all() {
  if (dirty_blocks_.empty()) {
    st_.releases_noop++;
    return;
  }
  if (async_) {
    async_writeback_round(/*opportunistic=*/false);
    return;
  }
  if (trace_ != nullptr) trace_->span_begin(rank_, eng_.now_precise(), "Write Back");
  collect_dirty();
  batch_.issue(/*is_put=*/true);
  const double stall_from = eng_.now_precise();
  ch_.flush();
  const double stalled = eng_.now_precise() - stall_from;
  st_.release_stall_s += stalled;
  st_.release_stall_class_s[wb_cls_] += stalled;
  // Completing a write-back round advances this process's epoch, releasing
  // any acquirer waiting on a handler from before this round (Fig. 6).
  epoch_words()[0]++;
  st_.releases++;
  if (trace_ != nullptr) trace_->span_end(rank_, eng_.now_precise(), "Write Back");
}

void writeback_engine::drain_wb_inflight() {
  const double now = eng_.now();
  while (wb_inflight_head_ < wb_inflight_.size() &&
         wb_inflight_[wb_inflight_head_].ready_at <= now) {
    wb_inflight_bytes_ -= wb_inflight_[wb_inflight_head_].bytes;
    wb_inflight_head_++;
  }
  if (wb_inflight_head_ == wb_inflight_.size()) {
    wb_inflight_.clear();
    wb_inflight_head_ = 0;
  }
}

void writeback_engine::record_epoch_ready(std::uint64_t epoch, double ready) {
  epoch_ready_last_ = std::max(epoch_ready_last_, ready);
  epoch_ready_[epoch % kEpochRing] = epoch_ready_last_;
}

double writeback_engine::release_ready_at(std::uint64_t epoch) const {
  if (epoch == 0 || !async_) return 0.0;
  const std::uint64_t cur = epoch_words()[0];
  // Epochs beyond the current word or evicted from the ring fall back to the
  // latest recorded completion: always conservative (waits no less).
  if (epoch > cur || cur - epoch >= kEpochRing) return epoch_ready_last_;
  return epoch_ready_[epoch % kEpochRing];
}

bool writeback_engine::async_writeback_round(bool opportunistic) {
  ITYR_CHECK(!dirty_blocks_.empty());
  std::size_t round_bytes = 0;
  for (mem_block* mb : dirty_blocks_) round_bytes += mb->dirty.size();

  drain_wb_inflight();
  if (wb_inflight_bytes_ + round_bytes > wb_max_inflight_) {
    // Over the in-flight budget. An opportunistic (idle-time) round just
    // bails and retries at the next backoff; a real fence stalls until
    // enough older rounds complete — bounded, never dropped.
    if (opportunistic) return false;
    const double stall_from = eng_.now_precise();
    while (wb_inflight_bytes_ + round_bytes > wb_max_inflight_ &&
           wb_inflight_head_ < wb_inflight_.size()) {
      ch_.wait_until(wb_inflight_[wb_inflight_head_].ready_at);
      drain_wb_inflight();
    }
    // The budget stall waits on earlier rounds; attribute it to the class of
    // the most recently collected one (conservative, sums stay consistent).
    const double stalled = eng_.now_precise() - stall_from;
    st_.release_stall_s += stalled;
    st_.release_stall_class_s[wb_cls_] += stalled;
  }

  const double t_issue = eng_.now_precise();
  if (trace_ != nullptr) trace_->span_begin(rank_, t_issue, "Write Back (async)");
  collect_dirty();
  const double done = std::max(batch_.issue(/*is_put=*/true), eng_.now());

  // The epoch word advances at issue; visibility is what the ready_at ring
  // models. Acquirers that observe the new epoch wait until `done` via a
  // targeted wait instead of this releaser flushing.
  const std::uint64_t epoch = epoch_words()[0] + 1;
  record_epoch_ready(epoch, done);
  vis_watermark_ = std::max(vis_watermark_, done);
  wb_inflight_.push_back({done, round_bytes});
  wb_inflight_bytes_ += round_bytes;
  st_.epochs_in_flight =
      std::max<std::uint64_t>(st_.epochs_in_flight, wb_inflight_.size() - wb_inflight_head_);
  epoch_words()[0] = epoch;
  st_.releases++;
  st_.async_wb_rounds++;
  if (trace_ != nullptr) {
    trace_->span_end(rank_, eng_.now_precise(), "Write Back (async)");
    // One flow arrow per round: issue -> modelled completion, both on this
    // rank's track (tools/trace_lint pairs them with the span count).
    trace_->flow(rank_, t_issue, rank_, std::max(done, t_issue), "writeback");
  }
  return true;
}

void writeback_engine::idle_flush() {
  if (!async_) return;
  drain_wb_inflight();
  if (dirty_blocks_.empty()) return;
  std::size_t round_bytes = 0;
  for (mem_block* mb : dirty_blocks_) round_bytes += mb->dirty.size();
  if (async_writeback_round(/*opportunistic=*/true)) {
    st_.idle_flush_bytes += round_bytes;
  }
}

void writeback_engine::wait_visibility(double w) {
  if (!async_ || w <= 0) return;
  ch_.wait_until(w);
  vis_watermark_ = std::max(vis_watermark_, w);
}

release_handler writeback_engine::release_lazy() {
  if (!has_dirty()) return {};  // Unneeded
  return {rank_, epoch_words()[0] + 1};
}

void writeback_engine::wait_handler(release_handler h) {
  if (!h.needed()) return;
  if (h.rank == rank_) {
    // Degenerate case: the handler refers to our own cache; a local
    // write-back round satisfies it directly.
    if (epoch_words()[0] < h.epoch) writeback_all();
    if (async_) {
      // The round was issued, not flushed: wait out its modelled
      // completion before trusting re-fetched home data.
      const double ready = release_ready_at(h.epoch);
      wait_visibility(ready);
      if (trace_ != nullptr && ready > 0) {
        trace_->flow(rank_, ready, rank_, eng_.now_precise(), "wb acquire");
      }
    }
  } else {
    ITYR_CHECK(!has_dirty());
    bool first = true;
    while (ch_.get_value(ctrl_win_, h.rank, 0) < h.epoch) {
      if (first) {
        // Ask the releaser (once) to perform its next write-back round.
        // Multiple acquirers race benignly: only the max epoch matters,
        // hence the remote atomic max (Fig. 6 lines 51-53).
        ch_.atomic_max(ctrl_win_, h.rank, sizeof(std::uint64_t), h.epoch);
        first = false;
        st_.lazy_release_waits++;
      }
      eng_.advance(eng_.opts().poll_interval);
    }
    if (async_ && peer_ready_) {
      // The releaser advanced its epoch at issue time; its round's data is
      // only visible from ready_at on. Wait there (targeted MPI_Wait
      // analog), not a full flush — unrelated in-flight traffic keeps
      // flying. The flow arrow starts at the releaser's round completion,
      // so trace_lint's f>=s check pins "no acquire lands early" down.
      const double ready = peer_ready_(h.rank, h.epoch);
      wait_visibility(ready);
      if (trace_ != nullptr && ready > 0) {
        trace_->flow(h.rank, ready, rank_, eng_.now_precise(), "wb acquire");
      }
    }
  }
}

void writeback_engine::poll() {
  std::uint64_t* ew = epoch_words();
  if (ew[0] < ew[1]) {
    // A thief requested a write-back of the data it stole a continuation
    // for (DoReleaseIfRequested, Fig. 6 lines 55-58).
    if (has_dirty()) {
      writeback_all();  // bumps the epoch (at issue time in async mode)
    } else {
      // The dirty data the handler covered was already flushed by an
      // eviction or another fence; still advance the epoch so the waiting
      // acquirer makes progress.
      ew[0]++;
      st_.releases++;
      if (async_) {
        // No data rides this advance, but earlier rounds might still be in
        // flight; the running max keeps the ring monotone and conservative.
        record_epoch_ready(ew[0], eng_.now());
      }
    }
  }
}

}  // namespace ityr::pgas
