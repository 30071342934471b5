#include "itoyori/pgas/fetch_engine.hpp"

#include <algorithm>

namespace ityr::pgas {

fetch_engine::fetch_engine(sim::engine& eng, rma::channel& ch, block_directory& dir,
                           const block_locator& heap, cache_stats& st, const config& cfg)
    : eng_(eng),
      ch_(ch),
      dir_(dir),
      heap_(heap),
      st_(st),
      rank_(cfg.rank),
      block_size_(cfg.block_size),
      sub_block_size_(cfg.sub_block_size),
      prefetch_on_(cfg.prefetch),
      prefetch_depth_(cfg.prefetch_depth),
      prefetch_max_inflight_(cfg.prefetch_max_inflight),
      batch_(ch, cfg.coalesce, st.coalesced_messages) {}

void fetch_engine::queue_demand(mem_block& mb, common::interval padded) {
  // Fetch at sub-block granularity for spatial locality, skipping
  // already-valid (possibly dirty!) byte ranges (Fig. 4 lines 18-21).
  const home_loc& src = mb.home;
  bool queued = false;
  for (const auto& miss : mb.valid.missing(padded)) {
    batch_.add(src.win, src.rank, src.pool_off + miss.begin, mb.data + miss.begin, miss.size());
    st_.fetched_bytes += miss.size();
    mb.valid.add(miss);
    queued = true;
  }
  if (queued) {
    // The round's stall is attributed to the farthest home it waits on.
    const int cls = std::min(eng_.topo().class_of(rank_, src.rank),
                             cache_stats::max_stall_classes - 1);
    if (cls > round_cls_) round_cls_ = cls;
  }
  mb.update_fully_valid(block_size_);
}

void fetch_engine::wait_round(double round_done) {
  // Both ends read the precise clock: in measured mode the committed clock
  // lags by the slice's compute so far, which would count as stall.
  const double stall_from = eng_.now_precise();
  if (prefetch_on_) {
    // Wait only for this round's demand fetches plus any in-flight prefetch
    // the round consumed; untouched prefetches stay pending instead of
    // serializing the checkout behind them.
    ch_.wait_until(std::max(round_done, pf_wait_));
    if (pf_wait_ > round_done && pf_wait_ > stall_from) st_.prefetch_late++;
  } else if (round_done > 0) {
    // An empty round (every byte already valid) has nothing to wait for: a
    // flush would wait out the rank's in-flight write-back rounds instead.
    ch_.flush();
  }
  const double stalled = eng_.now_precise() - stall_from;
  st_.fetch_stall_s += stalled;
  st_.fetch_stall_class_s[round_cls_] += stalled;
}

// ---------------------------------------------------------------------------
// Prefetcher (ITYR_PREFETCH): stream detection + nonblocking fetch pipeline
// ---------------------------------------------------------------------------

void fetch_engine::consume_prefetch(mem_block& mb, common::interval span, bool is_write) {
  if (mb.prefetched.overlaps(span)) {
    std::uint64_t bytes = 0;
    for (const auto& iv : mb.prefetched.overlapping(span)) bytes += iv.size();
    if (is_write) {
      st_.prefetch_wasted_bytes += bytes;
    } else {
      st_.prefetch_useful_bytes += bytes;
    }
    mb.prefetched.subtract(span);
  }
  if (mb.pf_segs.empty()) return;
  const double now = eng_.now_precise();
  for (auto it = mb.pf_segs.begin(); it != mb.pf_segs.end();) {
    if (intersect(it->iv, span).empty()) {
      ++it;
      continue;
    }
    // The consumer (or overwriter) must wait out this segment's modelled
    // completion; the checkout tail waits once for the round's maximum.
    pf_wait_ = std::max(pf_wait_, it->ready_at);
    if (is_write && !(span.begin <= it->iv.begin && it->iv.end <= span.end)) {
      // Partial overwrite: the rest of the segment may still be read later;
      // keep it (its terminator comes from that read, or from eviction).
      ++it;
      continue;
    }
    if (trace_ != nullptr) {
      trace_->instant(rank_, now, is_write ? "prefetch evict" : "prefetch consume");
    }
    it = mb.pf_segs.erase(it);
  }
}

void fetch_engine::drop_prefetched(mem_block& mb) {
  if (!mb.prefetched.empty()) {
    st_.prefetch_wasted_bytes += mb.prefetched.size();
    mb.prefetched.clear();
  }
  if (!mb.pf_segs.empty()) {
    if (trace_ != nullptr) {
      const double now = eng_.now_precise();
      for (std::size_t i = 0; i < mb.pf_segs.size(); i++) {
        trace_->instant(rank_, now, "prefetch evict");
      }
    }
    mb.pf_segs.clear();
  }
}

void fetch_engine::feed_stream(std::int64_t a, std::int64_t b, bool was_miss) {
  const auto depth = static_cast<std::int64_t>(prefetch_depth_);
  // Confirmed streams first. Matching is tolerant up to `depth` sub-blocks
  // ahead of the expected position: once prefetched blocks become fully
  // valid the front table serves them without reaching this detector, so
  // the next slow-path visit can land anywhere inside the issued window.
  for (stream& s : streams_) {
    if (!s.live || s.dir == 0) continue;
    if (s.dir > 0 && a >= s.next && a <= s.next + depth) {
      s.next = std::max(s.next, b + 1);
      if (s.issued_until < s.next) s.issued_until = s.next;
      // Top up with hysteresis: refill once the lead shrinks to half.
      if (s.issued_until - s.next < (depth + 1) / 2) issue_stream(s);
      return;
    }
    if (s.dir < 0 && b <= s.next && b >= s.next - depth) {
      s.next = std::min(s.next, a - 1);
      if (s.issued_until > s.next) s.issued_until = s.next;
      if (s.next - s.issued_until < (depth + 1) / 2) issue_stream(s);
      return;
    }
  }
  // Unconfirmed streams: the second sequential touch confirms a direction.
  for (stream& s : streams_) {
    if (!s.live || s.dir != 0) continue;
    if (a >= s.next_fwd && a <= s.next_fwd + depth) {
      s.dir = +1;
      s.next = b + 1;
      s.issued_until = s.next;
      issue_stream(s);
      return;
    }
    if (b <= s.next_bwd && b >= s.next_bwd - depth) {
      s.dir = -1;
      s.next = a - 1;
      s.issued_until = s.next;
      issue_stream(s);
      return;
    }
  }
  // No stream matched: a demand miss seeds a new (unconfirmed) candidate.
  if (!was_miss) return;
  stream& s = streams_[stream_rr_++ % kNStreams];
  s = {};
  s.live = true;
  s.next_fwd = b + 1;
  s.next_bwd = a - 1;
}

void fetch_engine::issue_stream(stream& s) {
  const auto depth = static_cast<std::int64_t>(prefetch_depth_);
  if (s.dir > 0) {
    const std::int64_t target = s.next + depth;
    while (s.issued_until < target) {
      const pf_result r = prefetch_sub_block(s.issued_until);
      if (r == pf_result::dead) {
        s = {};
        return;
      }
      if (r == pf_result::stall) return;  // retried at the next advance
      s.issued_until++;
    }
  } else {
    const std::int64_t target = s.next - depth;
    while (s.issued_until > target) {
      const pf_result r = prefetch_sub_block(s.issued_until);
      if (r == pf_result::dead) {
        s = {};
        return;
      }
      if (r == pf_result::stall) return;
      s.issued_until--;
    }
  }
}

fetch_engine::pf_result fetch_engine::prefetch_sub_block(std::int64_t sub) {
  if (sub < 0) return pf_result::dead;
  const std::uint64_t voff = static_cast<std::uint64_t>(sub) * sub_block_size_;
  if (voff >= heap_.total_size()) return pf_result::dead;
  const std::uint64_t mb_id = voff / block_size_;
  home_loc home;
  // Stop at unallocated territory: running past the end of an allocation is
  // how most streams die.
  if (!heap_.try_locate_block(mb_id, home)) return pf_result::dead;
  // Home data is already authoritative; the stream just passes through.
  if (home.rank == rank_ || eng_.same_node(home.rank, rank_)) return pf_result::ok;

  const double now = eng_.now();
  // Drain the modelled in-flight FIFO: transfers whose completion time has
  // passed no longer occupy the budget.
  while (inflight_head_ < inflight_.size() && inflight_[inflight_head_].ready_at <= now) {
    inflight_bytes_ -= inflight_[inflight_head_].bytes;
    inflight_head_++;
  }
  if (inflight_head_ == inflight_.size()) {
    inflight_.clear();
    inflight_head_ = 0;
  }

  const std::uint64_t block_base = mb_id * block_size_;
  const common::interval sub_iv{voff - block_base, voff - block_base + sub_block_size_};

  // No LRU touch on an existing block: speculation must not look like use.
  mem_block* mb = dir_.find_cache_block(mb_id);
  if (mb == nullptr) {
    mb = dir_.alloc_cache_block_speculative(mb_id, home);
    if (mb == nullptr) return pf_result::stall;
  }

  if (mb->valid.contains(sub_iv)) return pf_result::ok;
  for (const auto& miss : mb->valid.missing(sub_iv)) {
    if (inflight_bytes_ + miss.size() > prefetch_max_inflight_) return pf_result::stall;
    const double done = ch_.get_nb(*home.win, home.rank, home.pool_off + miss.begin,
                                   mb->data + miss.begin, miss.size());
    mb->valid.add(miss);
    mb->prefetched.add(miss);
    mb->pf_segs.push_back({miss, done});
    inflight_.push_back({done, miss.size()});
    inflight_bytes_ += miss.size();
    st_.prefetch_issued++;
    st_.prefetch_issued_bytes += miss.size();
    if (trace_ != nullptr) trace_->flow(rank_, now, rank_, done, "prefetch");
  }
  mb->update_fully_valid(block_size_);
  return pf_result::ok;
}

}  // namespace ityr::pgas
