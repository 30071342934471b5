#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "itoyori/common/lru_list.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/job_cache_accounting.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/sim/engine.hpp"
#include "itoyori/vm/physical_pool.hpp"
#include "itoyori/vm/view_region.hpp"

namespace ityr::pgas {

/// Ownership layer of the coherence stack: the home/cache mem_block maps,
/// their LRU lists, the cache-slot free list, the per-rank view (its ledger
/// and its host region) and cache pool, and the mapping-entry budget (paper
/// Section 4.3.2). All block lifetime decisions — allocation, LRU
/// accounting, eviction, view (un)mapping — happen here. Eviction is strict
/// LRU (Section 4.3.1): an access moves the block to the MRU end, and the
/// victim is the first block from the LRU end that may be evicted
/// (unpinned; clean, for a cache block).
///
/// Every map and unmap of the paper's runtime is booked and charged in the
/// view ledger at the paper's points. The host keeps each block's bytes at
/// one address, `mem_block::data`, and maps a block into the view only
/// while a checkout that spans blocks holds it: map_in_view at the first
/// such checkout, the PROT_NONE overlay at the checkin of the last
/// (unmap_from_view). The model's own map and unmap make no syscall, and
/// the host's run inside engine::host_only, so measured mode does not
/// charge them on top of the model's cost.
///
/// The cache pool keeps every byte a rank fetched resident until a later
/// fetch overwrites it, although an acquire invalidates them all. So after
/// an acquire the cache_system may call drop_cache_pages(), which gives the
/// pool's pages back to the kernel while a slot is free. A full cache
/// recycles its LRU slot at the next miss, so its pages would be rewritten
/// at once; it keeps them. Entries, slots, `mapped`, the ledger, LRU order
/// and every charge stay as they are: the drop is host memory only.
///
/// Blocks are destroyed only by the directory. Before a block dies, the
/// client callback fires so layers holding raw pointers into it (front-table
/// memos, prefetch segments) can let go; flush_dirty_for_eviction() is the
/// escalation hook when every cache block is pinned or dirty.
class block_directory {
public:
  struct client {
    virtual ~client() = default;
    /// The directory is about to destroy `mb`: purge any raw pointers and
    /// retire its speculative state. Called for home and cache blocks.
    virtual void on_block_evicted(mem_block& mb) = 0;
    /// Every cache block is pinned or dirty: write all dirty data back so
    /// the eviction retry below finds clean victims (paper Section 4.4).
    virtual void flush_dirty_for_eviction() = 0;
  };

  block_directory(sim::engine& eng, client& cl, cache_stats& st, std::size_t block_size,
                  std::size_t view_size, std::size_t cache_size, int rank);

  /// Emit eviction instants into `t` (nullptr detaches).
  void set_tracer(common::tracer* t) { trace_ = t; }

  /// Attach the per-job accounting shared with the cache_system facade
  /// (serving mode): new cache blocks are tagged with the current job and
  /// their capacity is charged to it until eviction.
  void set_job_accounting(job_cache_accounting* a) { jobs_ = a; }

  /// The model's view mappings (map calls, runs, entry estimate).
  const vm::view_ledger& ledger() const { return ledger_; }
  /// The host's reservation of the view.
  const vm::view_region& view() const { return view_; }
  /// The host address of view offset `view_off`, which lies in `mb`: its
  /// pool address, where every copy and single-block checkout lands.
  std::byte* data_at(const mem_block& mb, std::uint64_t view_off) const {
    return mb.data + (view_off - mb.mb_id * block_size_);
  }

  std::size_t n_cache_blocks() const { return n_cache_blocks_; }
  std::size_t home_mapped_limit() const { return home_mapped_limit_; }

  /// Lookup-or-allocate with an access touch (the demand path). Allocation
  /// may evict (throwing too_much_checkout_error if everything is pinned);
  /// get_cache_block escalates through the client's dirty flush first.
  mem_block& get_home_block(std::uint64_t mb_id, const home_loc& home);
  mem_block& get_cache_block(std::uint64_t mb_id, const home_loc& home);

  /// Plain lookups: no allocation, no access touch (checkin, speculation).
  mem_block* find_home_block(std::uint64_t mb_id);
  mem_block* find_cache_block(std::uint64_t mb_id);

  /// Gentle allocation for the speculative (prefetch) path: a free slot or a
  /// clean unpinned victim, else nullptr. Never a write-back round and never
  /// too-much-checkout from speculation. The new block enters the LRU list
  /// at its mid-point, not at MRU: a useless prefetch is evicted before any
  /// demand-fetched block, a useful one has half the list to live in.
  mem_block* alloc_cache_block_speculative(std::uint64_t mb_id, const home_loc& home);

  /// Access touch for fast paths that bypass get_*_block.
  void touch(mem_block& mb) {
    (mb.k == mem_block::kind::home ? home_lru_ : cache_lru_).touch(mb);
  }

  /// Evict one clean, unpinned cache block; false if none exists.
  bool try_evict_cache_block();

  /// Book the model's map of a block into the view and charge it. The
  /// checkout calls it after the round's communication has been issued
  /// (Fig. 4 lines 25-29). It makes no syscall: see map_in_view().
  void map_block(mem_block& mb);

  /// Count one more checkout that spans blocks and holds the pinned,
  /// model-mapped `mb`, and map the block at its view address on the host
  /// if it is the first, so that the checkout gets one contiguous pointer.
  /// Nothing is booked or charged: map_block() did.
  void map_in_view(mem_block& mb);

  /// The checkin of one spanning checkout that held `mb`: drop the count,
  /// and overlay the block's view address with PROT_NONE when no such
  /// checkout holds it any more. The model's mapping stays.
  void unmap_from_view(mem_block& mb);

  /// Right after an acquire: give the cache pool's pages back to the kernel
  /// (vm::physical_pool::drop_pages, host time only) if a slot is free, and
  /// say whether it did. Every cache block must be unpinned, clean and
  /// invalid, so no view mapping exists and no valid byte is lost.
  bool drop_cache_pages();
  /// The host's drop_pages() calls on this rank's cache pool.
  std::uint64_t host_page_drops() const { return cache_pool_.page_drops(); }

  /// Iterate every live cache block in map order (invalidate_all).
  template <typename F>
  void for_each_cache_block(F&& f) {
    for (auto& [id, mb] : cache_blocks_) f(*mb);
  }

private:
  void evict_home_block();
  void evict_cache_block(mem_block& mb);  ///< shared teardown of both evict paths
  void unmap_block(mem_block& mb);
  void tag_new_cache_block(mem_block& mb);

  sim::engine& eng_;
  client& client_;
  cache_stats& st_;
  const int rank_;
  const std::size_t block_size_;

  vm::view_ledger ledger_;
  vm::view_region view_;
  vm::physical_pool cache_pool_;
  std::size_t n_cache_blocks_;
  std::size_t home_mapped_limit_;

  std::unordered_map<std::uint64_t, std::unique_ptr<mem_block>> cache_blocks_;
  std::unordered_map<std::uint64_t, std::unique_ptr<mem_block>> home_blocks_;
  common::lru_list cache_lru_;
  common::lru_list home_lru_;
  std::vector<std::size_t> free_slots_;

  common::tracer* trace_ = nullptr;
  job_cache_accounting* jobs_ = nullptr;  ///< serving mode (null/disabled otherwise)
};

}  // namespace ityr::pgas
