#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "itoyori/common/options.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/global_heap.hpp"
#include "itoyori/pgas/home_loc.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"
#include "itoyori/vm/physical_pool.hpp"

namespace ityr::pgas {

class cache_system;

/// Cluster-global placement counters. The engine models a centralized
/// directory service (the DES is one process), so these are global like the
/// fiber-pool counters and exported at rank 0 in the metrics registry.
struct placement_stats {
  std::uint64_t passes = 0;                ///< placement passes executed
  std::uint64_t migrations = 0;            ///< home moves committed
  std::uint64_t migration_bytes = 0;       ///< block bytes copied by migration
  std::uint64_t replicas = 0;              ///< per-node replica copies created
  std::uint64_t replica_bytes = 0;         ///< block bytes copied into replicas
  std::uint64_t replica_invalidations = 0; ///< replica copies dropped by writes
  std::uint64_t migrations_skipped = 0;    ///< candidates pinned/dirty at pass time
  std::uint64_t pool_full_skips = 0;       ///< candidates dropped for pool space
  std::uint64_t purged_blocks = 0;         ///< directory records dropped by migration
};

/// One entry of the pgas.hot_blocks export (ITYR_HOT_BLOCKS_TOPN): the
/// cumulative traffic profile of a home block, the observability handle for
/// tuning migration/replication thresholds.
struct hot_block {
  std::uint64_t mb_id = 0;
  int owner = -1;                 ///< current owner rank (-1 = allocation freed)
  std::uint64_t reader_mask = 0;  ///< reader ranks (clamped to the first 64)
  std::uint64_t fetch_bytes = 0;
  std::uint64_t writeback_bytes = 0;
};

/// Online data-placement engine (ITYR_MIGRATION / ITYR_REPLICATION): the
/// dynamic counterpart of the paper's fixed allocation-time homes
/// (Section 4.2), addressing the Section 8 locality discussion.
///
/// Per-home-block access counters (reader bitmask + fetch/write-back byte
/// counts) accumulate in a per-pass traffic window; a periodic placement
/// pass then
///  (a) migrates a block's home into a per-rank migration pool on the rank
///      producing most of its miss traffic (Misra-Gries k=1 dominance over
///      the window), and
///  (b) replicates read-mostly blocks into per-node read-only pools served
///      on the cache fetch path; any write intent or write-back invalidates
///      the copies.
///
/// Ownership changes are a `home_loc` override applied inside
/// global_heap::locate_block plus a forwarding generation: a cached location
/// whose gen is stale is a forwarding hint, retried through the heap
/// (pgas.forward_retries) while prefetch streams drop segments tied to the
/// old home. Fetch/write-back engines route by the resolved home, so
/// coalescing and the epoch-pipelined release protocol are untouched.
///
/// The engine is centralized (one instance for the simulated cluster),
/// mirroring a directory service; pass work and block copies are charged to
/// the virtual clock of whichever rank's poll crossed the deadline.
class placement_engine final : public home_override_source {
public:
  struct config {
    bool migration = false;
    bool replication = false;
    double interval = 1.0e-3;            ///< virtual seconds between passes
    std::uint64_t migration_min_bytes = 0;
    double migration_share = 0.5;        ///< dominance threshold in (0, 1]
    std::size_t migration_pool_blocks = 0;   ///< per rank
    std::uint64_t replication_min_bytes = 0;
    int replication_min_readers = 2;     ///< distinct reader nodes
    std::size_t replication_pool_blocks = 0;  ///< per node
    std::size_t hot_blocks_topn = 0;
  };

  placement_engine(sim::engine& eng, rma::context& rma, global_heap& heap, const config& cfg);

  /// Wire the per-rank cache systems (pgas_space calls this once the caches
  /// exist; the engine needs them for busy checks and directory purges).
  void set_caches(std::vector<cache_system*> caches) { caches_ = std::move(caches); }

  bool migration_enabled() const { return mig_; }
  bool replication_enabled() const { return repl_; }
  std::size_t hot_blocks_topn() const { return topn_; }

  // ---- home_override_source (rides every global_heap::locate_block) ----
  void apply_override(std::uint64_t mb_id, home_loc& h) const override;

  /// Current owner of `mb_id` (override applied); false iff the block no
  /// longer belongs to a live allocation. The write-back path re-resolves
  /// through this so dirty data issued after a migration lands on the new
  /// home.
  bool current_owner(std::uint64_t mb_id, home_loc& out) const {
    return heap_.try_locate_block(mb_id, out);
  }

  // ---- hot-path notes (called by the cache layers; all O(1)) ----
  /// A demand fetch of `bytes` by `reader` was served from `src` (the owner,
  /// or a node replica). Feeds the traffic window, the cumulative hot-block
  /// profile, and per-class bytes-saved accounting against the
  /// allocation-time base home.
  void note_fetch(std::uint64_t mb_id, int reader, std::uint64_t bytes, const home_loc& src,
                  const home_loc& owner);
  /// `writer` issued a write-back of `bytes` to the block: traffic-window
  /// accounting plus replica invalidation (stale copies must die no later
  /// than the bytes become fetchable).
  void note_writeback(std::uint64_t mb_id, int writer, std::uint64_t bytes);
  /// A write intent (write/read_write checkout, PUT) targets the block:
  /// invalidate its replicas before any fetch-exclusive proceeds.
  void note_write_intent(std::uint64_t mb_id) { invalidate_replicas(mb_id); }
  /// `reader` served `bytes` straight from a migrated-in home block on its
  /// own node (the home path): count them as saved off the base home's
  /// distance class.
  void note_local_home_visit(std::uint64_t mb_id, int reader, std::uint64_t bytes,
                             const home_loc& home);

  /// Where a read-mode miss of `reader` should fetch from: the reader-node
  /// replica if one exists (class-0 traffic), else `owner`. Sets
  /// `from_replica` accordingly.
  home_loc read_source(std::uint64_t mb_id, const home_loc& owner, int reader,
                       bool& from_replica) const;
  /// Fast gate for the per-miss read_source lookup.
  bool has_replicas() const { return !replicas_.empty(); }

  // ---- the periodic placement pass ----
  /// Cheap deadline check; runs a pass when the interval elapsed. Called
  /// from pgas_space::poll() (every scheduler poll) and from the worker
  /// loop's idle branch.
  void poll() {
    if (due()) run_pass();
  }
  /// Whether poll() would run a pass now (a pass may advance the clock).
  bool due() const { return (mig_ || repl_) && !in_pass_ && eng_.now() >= next_pass_; }
  void run_pass();

  /// Directly migrate one block to `target_rank` (test/tooling surface,
  /// same safety rules as the pass: refuses blocks that are pinned or dirty
  /// anywhere, and pool-full targets). True iff the home moved.
  bool request_migration(std::uint64_t mb_id, int target_rank);

  // ---- introspection / export ----
  const placement_stats& stats() const { return st_; }
  /// Bytes placement served closer than the allocation-time home would
  /// have, per reader rank and per distance class the base home sat at.
  std::uint64_t bytes_saved_of(int rank, int cls) const {
    return saved_[static_cast<std::size_t>(rank)][static_cast<std::size_t>(cls)];
  }
  /// The `n` hottest blocks by cumulative fetch bytes (requires
  /// ITYR_HOT_BLOCKS_TOPN > 0; empty otherwise). Deterministic order:
  /// fetch bytes desc, block id asc.
  std::vector<hot_block> hottest(std::size_t n) const;
  /// Current migrated-home overrides (tests).
  std::size_t n_overrides() const { return overrides_.size(); }
  /// Live replica copies across all nodes (tests).
  std::size_t n_replica_copies() const;

private:
  /// Per-pass traffic window of one block. The dominant-consumer candidate
  /// is Misra-Gries with k=1: one counter per block, provably >= the true
  /// majority weight margin.
  struct block_traffic {
    std::uint64_t fetch_bytes = 0;
    std::uint64_t wb_bytes = 0;
    std::uint64_t node_mask = 0;   ///< reader nodes (clamped to the first 64)
    int cand_rank = -1;            ///< heavy-hitter candidate reader
    std::int64_t cand_margin = 0;  ///< its surplus byte weight over all others
  };

  /// Cumulative per-block profile for the hot-block export (topn > 0 only).
  struct cum_traffic {
    std::uint64_t fetch_bytes = 0;
    std::uint64_t wb_bytes = 0;
    std::uint64_t reader_mask = 0;  ///< reader ranks (clamped to the first 64)
  };

  /// One committed home override: the block's bytes live in `rank`'s
  /// migration pool at slot `slot`.
  struct override_rec {
    int rank = -1;
    std::uint32_t slot = 0;
  };

  /// Per-node replica slots of one block (-1 = no copy on that node).
  struct replica_rec {
    std::vector<std::int32_t> node_slot;
  };

  static void bump_candidate(block_traffic& t, int rank, std::uint64_t bytes);
  bool block_busy_anywhere(std::uint64_t mb_id) const;
  /// Drop every rank's directory record of the block (counts purged_blocks).
  void purge_everywhere(std::uint64_t mb_id);
  void invalidate_replicas(std::uint64_t mb_id);
  /// Commit a home move to `target` (caller already checked busy/pool).
  /// `cur` is the block's current resolved location.
  void migrate_block(std::uint64_t mb_id, int target, const home_loc& cur);
  void replicate_block(std::uint64_t mb_id, const home_loc& cur, std::uint64_t node_mask);
  /// Drop overrides/replicas of blocks whose allocation died (a freed-then-
  /// reused gaddr range must not inherit stale placement).
  void gc_dead_blocks();
  void bump_gen(std::uint64_t mb_id);
  int clamp_class(int reader, int target) const;

  sim::engine& eng_;
  rma::context& rma_;
  global_heap& heap_;
  std::vector<cache_system*> caches_;

  const bool mig_;
  const bool repl_;
  const double interval_;
  const std::uint64_t mig_min_bytes_;
  const double mig_share_;
  const std::uint64_t repl_min_bytes_;
  const int repl_min_readers_;
  const std::size_t topn_;
  const std::size_t block_size_;
  const int n_nodes_;
  const int ranks_per_node_;

  // Migrated-home pools: one per rank, registered as one window whose
  // region r is rank r's pool (so fetch/write-back address migrated blocks
  // exactly like allocation-time homes).
  std::vector<std::unique_ptr<vm::physical_pool>> mig_pools_;
  rma::window* mig_win_ = nullptr;
  std::vector<std::vector<std::uint32_t>> mig_free_;  ///< per-rank free slots

  // Replica pools: one per *node*; the window's region for rank r aliases
  // r's node pool, so a reader fetching from its node replica targets
  // itself — intra-node (class 0) traffic by construction.
  std::vector<std::unique_ptr<vm::physical_pool>> repl_pools_;
  rma::window* repl_win_ = nullptr;
  std::vector<std::vector<std::uint32_t>> repl_free_;  ///< per-node free slots

  std::unordered_map<std::uint64_t, override_rec> overrides_;
  std::unordered_map<std::uint64_t, std::uint32_t> gen_;  ///< forwarding generations
  std::unordered_map<std::uint64_t, replica_rec> replicas_;
  std::unordered_map<std::uint64_t, block_traffic> window_;
  std::unordered_map<std::uint64_t, cum_traffic> cum_;

  /// Per-rank, per-class bytes served closer than the base home.
  std::vector<std::array<std::uint64_t, cache_stats::max_stall_classes>> saved_;

  double next_pass_ = 0;
  bool in_pass_ = false;   ///< reentrancy guard: the end-of-pass wait yields
  double pass_done_ = 0;   ///< latest modelled completion of the pass's copies
  placement_stats st_;

  std::vector<std::byte> scratch_;          ///< one block, reused per copy
  std::vector<std::uint64_t> pass_ids_;     ///< reused per pass (sorted keys)
};

}  // namespace ityr::pgas
