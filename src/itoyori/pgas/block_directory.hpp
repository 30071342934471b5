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
/// their LRU lists, the cache-slot free list, the per-rank view region and
/// cache pool, and the mapping-entry budget (paper Section 4.3.2). All block
/// lifetime decisions — allocation, LRU accounting, eviction, view
/// (un)mapping — happen here. Eviction is strict LRU (Section 4.3.1): an
/// access moves the block to the MRU end, and the victim is the first block
/// from the LRU end that may be evicted (unpinned; clean, for a cache block).
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

  vm::view_region& view() { return view_; }
  const vm::view_region& view() const { return view_; }
  /// A cache block's slot in the pool's canonical mapping. Only speculative
  /// prefetch into an unmapped block moves data through it.
  std::byte* slot_ptr(const mem_block& mb) const { return cache_pool_.block_ptr(mb.slot); }
  /// A mapped block's bytes in the view. Fetches, write-backs and
  /// write-throughs move data through it, so the view is the one CPU mapping
  /// of every page they touch.
  std::byte* view_ptr(const mem_block& mb) const {
    ITYR_CHECK(mb.mapped);
    return view_.at(mb.mb_id * block_size_);
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

  /// Map a home block's view pages and book their cost (deferred until
  /// after a round's communication has been issued, Fig. 4 lines 25-29).
  /// It is not prefaulted: that would map pages of the owner's pool that
  /// the program may never touch.
  void map_block(mem_block& mb);

  /// Map a cache block's view pages without booking their cost, and read
  /// the byte at block-relative `first`: the kernel's fault-around then maps
  /// the slot's resident pages in one fault instead of one write fault per
  /// page. A checkout maps each unmapped cache block this way as soon as it
  /// holds it, so the gets it queues land through the view. charge_map()
  /// books the cost where map_block() books a home block's, after the round
  /// is issued; unmap_uncharged() takes the mapping back, charging nothing,
  /// when the checkout fails.
  void map_uncharged(mem_block& mb, std::uint64_t first);
  void charge_map();
  void unmap_uncharged(mem_block& mb);

  /// Iterate every live cache block in map order (invalidate_all).
  template <typename F>
  void for_each_cache_block(F&& f) {
    for (auto& [id, mb] : cache_blocks_) f(*mb);
  }

private:
  void evict_home_block();
  void evict_cache_block(mem_block& mb);  ///< shared teardown of both evict paths
  void unmap_block(mem_block& mb);
  void charge_mmap();
  void tag_new_cache_block(mem_block& mb);

  sim::engine& eng_;
  client& client_;
  cache_stats& st_;
  const int rank_;
  const std::size_t block_size_;

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
