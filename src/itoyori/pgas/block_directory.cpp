#include "itoyori/pgas/block_directory.hpp"

#include <algorithm>

namespace ityr::pgas {

namespace {
// Fixed virtual cost of one mmap/munmap when running in deterministic mode
// (in measured mode the real syscall cost is captured by the engine).
constexpr double kDeterministicMmapCost = 2.0e-6;

bool home_evictable(const mem_block& mb) { return mb.ref_count == 0; }

bool cache_evictable(const mem_block& mb) { return mb.ref_count == 0 && mb.dirty.empty(); }
}  // namespace

block_directory::block_directory(sim::engine& eng, eviction_policy& evict, client& cl,
                                 cache_stats& st, std::size_t block_size, std::size_t view_size,
                                 std::size_t cache_size, int rank)
    : eng_(eng),
      evict_(evict),
      client_(cl),
      st_(st),
      rank_(rank),
      block_size_(block_size),
      view_(view_size),
      cache_pool_(block_size, std::max<std::size_t>(1, cache_size / block_size), "ityr-cache"),
      n_cache_blocks_(cache_pool_.n_blocks()) {
  // Mapping-entry budget (paper Section 4.3.2): the OS limit is shared by
  // the whole simulated cluster (one real process), and each mapped block
  // can cost up to two entries. Split the budget evenly across ranks,
  // reserve the cache blocks' share, and let home blocks use the rest.
  const std::size_t per_rank_budget =
      eng.opts().max_map_entries / (2 * static_cast<std::size_t>(eng.n_ranks()) + 2);
  home_mapped_limit_ = per_rank_budget > n_cache_blocks_ + 64
                           ? per_rank_budget - n_cache_blocks_
                           : 64;

  free_slots_.reserve(n_cache_blocks_);
  for (std::size_t s = n_cache_blocks_; s-- > 0;) free_slots_.push_back(s);
}

void block_directory::charge_mmap() {
  if (eng_.opts().deterministic) eng_.charge(kDeterministicMmapCost);
}

void block_directory::map_block(mem_block& mb) {
  ITYR_CHECK(mb.k == mem_block::kind::home && !mb.mapped);
  view_.map(mb.mb_id * block_size_, *mb.home.pool, mb.home.pool_off, block_size_);
  mb.mapped = true;
  charge_mmap();
}

void block_directory::map_uncharged(mem_block& mb, std::uint64_t first) {
  ITYR_CHECK(mb.k == mem_block::kind::cache && !mb.mapped);
  const std::uint64_t voff = mb.mb_id * block_size_;
  view_.map_uncounted(voff, cache_pool_, mb.slot * block_size_, block_size_);
  view_.prefault(voff + first);
  mb.mapped = true;
}

void block_directory::charge_map() {
  view_.count_map_call();
  charge_mmap();
}

void block_directory::unmap_uncharged(mem_block& mb) {
  ITYR_CHECK(mb.mapped);
  view_.unmap_uncounted(mb.mb_id * block_size_, block_size_);
  mb.mapped = false;
}

void block_directory::unmap_block(mem_block& mb) {
  ITYR_CHECK(mb.mapped);
  view_.unmap(mb.mb_id * block_size_, block_size_);
  mb.mapped = false;
  charge_mmap();
}

mem_block& block_directory::get_home_block(std::uint64_t mb_id, const home_loc& home) {
  auto it = home_blocks_.find(mb_id);
  if (it != home_blocks_.end()) {
    evict_.on_access(home_lru_, *it->second);
    return *it->second;
  }
  if (home_blocks_.size() >= home_mapped_limit_) evict_home_block();

  auto mb = std::make_unique<mem_block>();
  mb->k = mem_block::kind::home;
  mb->mb_id = mb_id;
  mb->home = home;
  mem_block& ref = *mb;
  home_blocks_.emplace(mb_id, std::move(mb));
  evict_.on_insert(home_lru_, ref);
  return ref;
}

void block_directory::evict_home_block() {
  mem_block* victim = evict_.select_victim(home_lru_, home_evictable);
  if (victim == nullptr) {
    throw common::too_much_checkout_error(
        "all home-block mapping entries are pinned by outstanding checkouts");
  }
  mem_block& mb = *victim;
  client_.on_block_evicted(mb);  // raw pointers must never outlive a block
  if (mb.mapped) unmap_block(mb);
  home_lru_.erase(mb);
  st_.home_evictions++;
  if (trace_ != nullptr) trace_->instant(rank_, eng_.now_precise(), "home evict");
  home_blocks_.erase(mb.mb_id);
}

mem_block& block_directory::get_cache_block(std::uint64_t mb_id, const home_loc& home) {
  auto it = cache_blocks_.find(mb_id);
  if (it != cache_blocks_.end()) {
    evict_.on_access(cache_lru_, *it->second);
    return *it->second;
  }
  if (free_slots_.empty()) {
    if (!try_evict_cache_block()) {
      // Everything is pinned or dirty: write back all dirty data and retry
      // (paper Section 4.4). After the write-back every block is clean, so
      // a block that still cannot be evicted is pinned by an outstanding
      // checkout — the checkout request exceeds the cache capacity.
      client_.flush_dirty_for_eviction();
      if (!try_evict_cache_block()) {
        throw common::too_much_checkout_error(
            "cache capacity exhausted by pinned blocks (too-much-checkout)");
      }
    }
  }
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();

  auto mb = std::make_unique<mem_block>();
  mb->k = mem_block::kind::cache;
  mb->mb_id = mb_id;
  mb->home = home;
  mb->slot = slot;
  mem_block& ref = *mb;
  cache_blocks_.emplace(mb_id, std::move(mb));
  evict_.on_insert(cache_lru_, ref);
  tag_new_cache_block(ref);
  return ref;
}

void block_directory::tag_new_cache_block(mem_block& mb) {
  if (jobs_ == nullptr || !jobs_->enabled) return;
  mb.job = jobs_->cur;
  job_cache_stats& row = jobs_->of(mb.job);
  row.cached_bytes += block_size_;
  row.cached_bytes_peak = std::max(row.cached_bytes_peak, row.cached_bytes);
}

void block_directory::evict_cache_block(mem_block& mb) {
  client_.on_block_evicted(mb);  // unread prefetches and memos die with the block
  if (mb.mapped) unmap_block(mb);
  cache_lru_.erase(mb);
  free_slots_.push_back(mb.slot);
  st_.cache_evictions++;
  if (jobs_ != nullptr && jobs_->enabled) {
    job_cache_stats& row = jobs_->of(mb.job);
    ITYR_CHECK(row.cached_bytes >= block_size_);
    row.cached_bytes -= block_size_;
  }
  if (trace_ != nullptr) trace_->instant(rank_, eng_.now_precise(), "cache evict");
  cache_blocks_.erase(mb.mb_id);
}

bool block_directory::try_evict_cache_block() {
  mem_block* victim = evict_.select_victim(cache_lru_, cache_evictable);
  if (victim == nullptr) return false;
  evict_cache_block(*victim);
  return true;
}

bool block_directory::block_busy(std::uint64_t mb_id) const {
  if (const auto it = home_blocks_.find(mb_id); it != home_blocks_.end()) {
    if (it->second->ref_count > 0) return true;
  }
  if (const auto it = cache_blocks_.find(mb_id); it != cache_blocks_.end()) {
    if (it->second->ref_count > 0 || !it->second->dirty.empty()) return true;
  }
  return false;
}

bool block_directory::purge_block(std::uint64_t mb_id) {
  bool purged = false;
  if (const auto it = home_blocks_.find(mb_id); it != home_blocks_.end()) {
    mem_block& mb = *it->second;
    ITYR_CHECK(mb.ref_count == 0);
    client_.on_block_evicted(mb);
    if (mb.mapped) unmap_block(mb);
    home_lru_.erase(mb);
    home_blocks_.erase(it);
    purged = true;
  }
  if (const auto it = cache_blocks_.find(mb_id); it != cache_blocks_.end()) {
    mem_block& mb = *it->second;
    ITYR_CHECK(mb.ref_count == 0);
    ITYR_CHECK(mb.dirty.empty());
    client_.on_block_evicted(mb);
    if (mb.mapped) unmap_block(mb);
    cache_lru_.erase(mb);
    free_slots_.push_back(mb.slot);
    if (jobs_ != nullptr && jobs_->enabled) {
      job_cache_stats& row = jobs_->of(mb.job);
      ITYR_CHECK(row.cached_bytes >= block_size_);
      row.cached_bytes -= block_size_;
    }
    cache_blocks_.erase(it);
    purged = true;
  }
  return purged;
}

mem_block* block_directory::find_home_block(std::uint64_t mb_id) {
  auto it = home_blocks_.find(mb_id);
  return it != home_blocks_.end() ? it->second.get() : nullptr;
}

mem_block* block_directory::find_cache_block(std::uint64_t mb_id) {
  auto it = cache_blocks_.find(mb_id);
  return it != cache_blocks_.end() ? it->second.get() : nullptr;
}

mem_block* block_directory::alloc_cache_block_speculative(std::uint64_t mb_id,
                                                          const home_loc& home) {
  if (free_slots_.empty() && !try_evict_cache_block()) return nullptr;
  const std::size_t slot = free_slots_.back();
  free_slots_.pop_back();
  auto owned = std::make_unique<mem_block>();
  owned->k = mem_block::kind::cache;
  owned->mb_id = mb_id;
  owned->home = home;
  owned->slot = slot;
  mem_block* mb = owned.get();
  cache_blocks_.emplace(mb_id, std::move(owned));
  evict_.on_insert_speculative(cache_lru_, *mb);
  tag_new_cache_block(*mb);
  return mb;
}

}  // namespace ityr::pgas
