#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "itoyori/common/interval_set.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/pgas/types.hpp"
#include "itoyori/pgas/xfer_batch.hpp"
#include "itoyori/rma/channel.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::pgas {

/// Dirty-data layer of the coherence stack: what happens to the bytes a
/// checkin wrote (paper Section 4.4), the dirty-block list, blocking
/// write-back rounds, the epoch words of the lazy-release protocol (Fig. 6),
/// and the asynchronous epoch-pipelined release (ITYR_ASYNC_RELEASE) with
/// its ready-time ring, visibility watermarks and in-flight byte budget.
/// Rounds issue only at fences, evictions and thieves' requests: an idle
/// worker holds no dirty data. Every write-back of dirty data advances the
/// rank's epoch, so a clean rank has met every handler it issued. In
/// write-through mode (cache_policy::write_through) a checkin's bytes go to
/// the home at once and never become dirty; every other policy marks them
/// dirty for a later round (laziness lives in the fence protocol, not here).
///
/// `ctrl_win` must expose, at offsets 0 and 8 of each rank's region, the
/// current-epoch and request-epoch words of that rank. The engine holds raw
/// mem_block pointers in its dirty list; the directory never evicts a dirty
/// block, so these cannot dangle. Write-backs and write-throughs read the
/// bytes at the block's pool address.
class writeback_engine {
public:
  struct config {
    bool coalesce = true;
    bool async = false;
    /// Checkins put their bytes to the home at once (write-through).
    bool write_through = false;
    /// Modelled in-flight write-back byte cap; a fence over it stalls until
    /// enough older rounds complete, and 0 drains every previous round first.
    std::size_t wb_max_inflight = 4 * common::MiB;
    int rank = -1;
  };

  writeback_engine(sim::engine& eng, rma::channel& ch, rma::window& ctrl_win, cache_stats& st,
                   const config& cfg);

  void set_tracer(common::tracer* t) { trace_ = t; }

  /// A checkin wrote `iv` (block-relative) of cache block `mb`. Returns
  /// true iff the bytes were put to the home at once (write-through), so the
  /// caller must flush the channel before relying on them; false means the
  /// range is marked dirty for a later write-back round.
  bool checkin_write(mem_block& mb, common::interval iv);
  bool has_dirty() const { return !dirty_blocks_.empty(); }
  std::uint64_t current_epoch() const { return epoch_words()[0]; }

  /// Flush dirty data and bump the epoch: blocking in synchronous mode, an
  /// issue-and-return round in async mode. No-op (releases_noop) when clean.
  void writeback_all();

  /// Lazy release fence: a handler naming our next epoch (Fig. 6), or
  /// Unneeded when nothing is dirty.
  release_handler release_lazy();
  /// The acquire side of another rank's handler: request the releaser's
  /// round, poll its epoch up to h.epoch and wait out the round's
  /// visibility. The caller still self-invalidates afterwards. A thief
  /// never acquires its own handler: only a deque's owner pushes onto it.
  void wait_handler(release_handler h);
  /// DoReleaseIfRequested (Fig. 6 lines 55-58). A requested epoch past the
  /// current one names a handler the rank has not met, so dirty data
  /// remains for the round to write back.
  void poll();

  // ---- asynchronous release pipeline (ITYR_ASYNC_RELEASE) ----
  /// Latest modelled completion of any async round issued or transitively
  /// observed; always 0 in synchronous mode.
  double visibility_watermark() const { return vis_watermark_; }
  /// Wait (targeted, not a flush) until `w`, then fold it into our own
  /// watermark. No-op for w <= now.
  void wait_visibility(double w);
  /// Modelled completion time of the round that advanced this rank's epoch
  /// to `epoch` (0 when nothing needs waiting). Monotone in `epoch`.
  double release_ready_at(std::uint64_t epoch) const;
  /// Peer lookup wired by pgas_space: (rank, epoch) -> that rank's
  /// release_ready_at.
  void set_peer_ready(std::function<double(int, std::uint64_t)> fn) {
    peer_ready_ = std::move(fn);
  }

private:
  /// Modelled in-flight write-back budget entry (drained by virtual time).
  struct inflight_entry {
    double ready_at = 0;
    std::size_t bytes = 0;
  };

  std::uint64_t* epoch_words() const;  // [0]=currentEpoch, [1]=requestEpoch

  /// Async-mode write-back round: stall on the byte budget, issue the dirty
  /// segments nonblocking, record the round's completion in the epoch ring,
  /// advance the epoch.
  void async_writeback_round();
  /// Record `ready` as the completion time of the round advancing the epoch
  /// to `epoch`. Stored as a running max so ready_at is monotone in epoch
  /// even though per-round channel completions are not.
  void record_epoch_ready(std::uint64_t epoch, double ready);
  /// Drop in-flight write-back FIFO entries whose completion time passed.
  void drain_wb_inflight();
  /// Move every dirty run into the batch and clear the dirty list.
  void collect_dirty();

  sim::engine& eng_;
  rma::channel& ch_;
  rma::window& ctrl_win_;
  cache_stats& st_;
  const int rank_;
  const bool async_;
  const bool write_through_;
  const std::size_t wb_max_inflight_;

  std::vector<mem_block*> dirty_blocks_;
  xfer_batch batch_;  ///< write-back runs (separate from the fetch batch)
  int wb_cls_ = 0;    ///< max distance class of the last collected round

  // The epoch ring maps epoch -> cumulative-max completion time of the round
  // that advanced to it; overwritten (too-old) entries are superseded by
  // later — larger — values, so stale reads only ever wait longer, never too
  // little.
  static constexpr std::size_t kEpochRing = 64;
  double epoch_ready_[kEpochRing] = {};
  double epoch_ready_last_ = 0;           ///< running max of recorded completions
  std::vector<inflight_entry> wb_inflight_;  ///< FIFO, drained by virtual time
  std::size_t wb_inflight_head_ = 0;
  std::size_t wb_inflight_bytes_ = 0;
  double vis_watermark_ = 0;
  std::function<double(int, std::uint64_t)> peer_ready_;

  common::tracer* trace_ = nullptr;
};

}  // namespace ityr::pgas
