#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/common/interval_set.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/home_loc.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/pgas/xfer_batch.hpp"
#include "itoyori/rma/channel.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::pgas {

class placement_engine;

/// Remote-read layer of the coherence stack: collects a checkout round's
/// demand-fetch gaps at sub-block granularity, issues them coalesced, and
/// performs the round's completion wait — plus the adaptive stream
/// prefetcher (ITYR_PREFETCH) with its nonblocking fetch pipeline, in-flight
/// byte budget and pf_seg tracking.
///
/// A round is: begin_round(); queue_demand() per missing block, which the
/// caller has mapped, since the gets copy through the view; issue_round();
/// (caller maps home blocks and books every map) wait_round(). The
/// wait is targeted when prefetching is on — only this round's fetches plus
/// consumed in-flight prefetches — and otherwise a full flush, which orders
/// the round's gets after the rank's own in-flight puts. A round that
/// queued nothing does not wait. The stall is charged to fetch_stall_s
/// identically in both modes.
class fetch_engine {
public:
  struct config {
    std::size_t block_size = 0;
    std::size_t sub_block_size = 0;
    bool coalesce = true;
    bool prefetch = false;
    std::size_t prefetch_depth = 8;    ///< sub-blocks ahead of a stream
    std::size_t prefetch_max_inflight = 1 * common::MiB;  ///< modelled in-flight byte cap
    int rank = -1;
    placement_engine* placement = nullptr;  ///< dynamic placement (may be null)
  };

  fetch_engine(sim::engine& eng, rma::channel& ch, block_directory& dir,
               const block_locator& heap, cache_stats& st, const config& cfg);

  void set_tracer(common::tracer* t) { trace_ = t; }
  bool prefetch_enabled() const { return prefetch_on_; }

  /// Pad a block-relative request to demand-fetch (sub-block) granularity.
  common::interval pad_to_sub_blocks(common::interval req) const {
    return {req.begin / sub_block_size_ * sub_block_size_,
            std::min<std::uint64_t>(
                (req.end + sub_block_size_ - 1) / sub_block_size_ * sub_block_size_,
                block_size_)};
  }

  // ---- demand round ----
  void begin_round() {
    pf_wait_ = 0.0;
    extra_wait_ = 0.0;
    round_cls_ = 0;
  }
  /// Queue the not-yet-valid sub-block ranges of `padded` for fetch and
  /// claim them valid (Fig. 4 lines 18-21); gaps ride the round's batch so
  /// same-home gaps can share one message. `mb` must be mapped: the data
  /// lands through the view.
  void queue_demand(mem_block& mb, common::interval padded) {
    queue_demand(mb, padded, mb.home, /*from_replica=*/false);
  }
  /// Same, fetching from `src` instead of the block's home — the placement
  /// engine's read_source (the owner, or the reader-node replica). Replica
  /// reads are issued eagerly at queue time: a concurrent writer can
  /// invalidate the replica (and its pool slot be reused) the moment this
  /// fiber yields, so the bytes must move while the copy is still live; only
  /// the modelled completion rides the round wait.
  void queue_demand(mem_block& mb, common::interval padded, const home_loc& src,
                    bool from_replica);
  /// Issue the round's gaps; returns the latest modelled completion (0 if
  /// none). Also the abort path: a failed checkout must still issue gaps
  /// already claimed valid before rolling back.
  double issue_round() { return batch_.issue(/*is_put=*/false); }
  /// Stall until the round's data is usable and charge fetch_stall_s.
  void wait_round(double round_done);

  // ---- prefetcher hooks (no-ops unless enabled) ----
  /// Account a checkout touching `span` of `mb` against the block's
  /// prefetched bytes and in-flight segments: useful/wasted byte counting,
  /// retirement (consume/evict terminators), and recording the latest
  /// in-flight completion this round must wait for.
  void consume_prefetch(mem_block& mb, common::interval span, bool is_write);
  /// Feed the stream detector with a read visit covering global sub-blocks
  /// [a, b]; confirmed/advanced streams top up their prefetch window.
  /// Streams are only created on demand misses.
  void feed_stream(std::int64_t a, std::int64_t b, bool was_miss);
  /// Drop a block's prefetcher state on eviction/invalidation: unread bytes
  /// count as wasted, unretired segments emit "prefetch evict" terminators.
  void drop_prefetched(mem_block& mb);
  /// Sync points cut the tracked working set off; restart detection.
  void reset_streams() {
    for (stream& s : streams_) s = {};
  }

private:
  /// One detected access stream (sequential run of sub-blocks, forward or
  /// backward). `next` and `issued_until` are *global* sub-block indices
  /// (view offset / sub-block size), so streams run across block
  /// boundaries and straight through home-block spans.
  struct stream {
    bool live = false;
    int dir = 0;                    ///< 0 = unconfirmed, +1 fwd, -1 bwd
    std::int64_t next_fwd = 0;      ///< unconfirmed: expected next if forward
    std::int64_t next_bwd = 0;      ///< unconfirmed: expected next if backward
    std::int64_t next = 0;          ///< confirmed: next expected consume
    std::int64_t issued_until = 0;  ///< next sub-block to issue (fwd: >= next)
  };

  /// Modelled in-flight prefetch budget entry (drained by virtual time).
  struct inflight_entry {
    double ready_at = 0;
    std::size_t bytes = 0;
  };

  /// Issue prefetches for `s` up to `next +/- depth`, stopping early on
  /// budget or slot pressure (retried at the next advance) and killing the
  /// stream when it runs off the heap or a live allocation.
  void issue_stream(stream& s);
  enum class pf_result { ok, stall, dead };
  pf_result prefetch_sub_block(std::int64_t sub);

  sim::engine& eng_;
  rma::channel& ch_;
  block_directory& dir_;
  const block_locator& heap_;
  cache_stats& st_;
  const int rank_;
  const std::size_t block_size_;
  const std::size_t sub_block_size_;
  const bool prefetch_on_;
  const std::size_t prefetch_depth_;
  const std::size_t prefetch_max_inflight_;

  xfer_batch batch_;  ///< this round's demand gaps

  static constexpr std::size_t kNStreams = 4;
  stream streams_[kNStreams];
  std::size_t stream_rr_ = 0;        ///< round-robin stream replacement
  std::vector<inflight_entry> inflight_;  ///< FIFO, drained by virtual time
  std::size_t inflight_head_ = 0;
  std::size_t inflight_bytes_ = 0;
  double pf_wait_ = 0;               ///< per-round: latest in-flight completion hit
  double extra_wait_ = 0;            ///< per-round: latest eager (replica) completion
  int round_cls_ = 0;                ///< per-round: max distance class queued
  placement_engine* pl_ = nullptr;   ///< dynamic placement (null when off)

  common::tracer* trace_ = nullptr;
};

}  // namespace ityr::pgas
