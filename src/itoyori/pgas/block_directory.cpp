#include "itoyori/pgas/block_directory.hpp"

#include <algorithm>

namespace ityr::pgas {

namespace {
// Virtual cost of one map or unmap of the model, charged in both modes: the
// host issues the syscall only for a checkout that spans blocks, so measured
// mode cannot rely on timing it.
constexpr double kMmapCost = 2.0e-6;

bool home_evictable(const mem_block& mb) { return mb.ref_count == 0; }

bool cache_evictable(const mem_block& mb) { return mb.ref_count == 0 && mb.dirty.empty(); }

/// The least recently used block of `l` that `evictable` admits, or nullptr.
mem_block* lru_victim(const common::lru_list& l, bool (*evictable)(const mem_block&)) {
  return static_cast<mem_block*>(l.find_from_lru(
      [&](common::lru_hook& h) { return evictable(static_cast<mem_block&>(h)); }));
}
}  // namespace

block_directory::block_directory(sim::engine& eng, client& cl, cache_stats& st,
                                 std::size_t block_size, std::size_t view_size,
                                 std::size_t cache_size, int rank)
    : eng_(eng),
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

void block_directory::map_block(mem_block& mb) {
  ITYR_CHECK(!mb.mapped);
  ledger_.map(mb.mb_id * block_size_, block_size_);
  mb.mapped = true;
  eng_.charge(kMmapCost);
}

void block_directory::map_in_view(mem_block& mb) {
  ITYR_CHECK(mb.mapped && mb.view_refs < mb.ref_count);
  if (mb.view_refs++ > 0) return;
  const std::uint64_t voff = mb.mb_id * block_size_;
  // map_block() charged the model's map: the syscall is host time only.
  eng_.host_only([&] {
    if (mb.k == mem_block::kind::home) {
      view_.map(voff, *mb.home.pool, mb.home.pool_off, block_size_);
    } else {
      view_.map(voff, cache_pool_, mb.slot * block_size_, block_size_);
    }
  });
}

void block_directory::unmap_from_view(mem_block& mb) {
  ITYR_CHECK(mb.view_refs > 0);
  if (--mb.view_refs > 0) return;
  eng_.host_only([&] { view_.unmap(mb.mb_id * block_size_, block_size_); });
}

void block_directory::unmap_block(mem_block& mb) {
  // Only an unpinned block is evicted, and every spanning checkout that
  // holds a block pins it: the host has no view mapping left to overlay.
  ITYR_CHECK(mb.mapped && mb.view_refs == 0);
  ledger_.unmap(mb.mb_id * block_size_, block_size_);
  mb.mapped = false;
  eng_.charge(kMmapCost);
}

mem_block& block_directory::get_home_block(std::uint64_t mb_id, const home_loc& home) {
  auto it = home_blocks_.find(mb_id);
  if (it != home_blocks_.end()) {
    home_lru_.touch(*it->second);
    return *it->second;
  }
  if (home_blocks_.size() >= home_mapped_limit_) evict_home_block();

  auto mb = std::make_unique<mem_block>();
  mb->k = mem_block::kind::home;
  mb->mb_id = mb_id;
  mb->home = home;
  mb->data = home.pool->at(home.pool_off);
  mem_block& ref = *mb;
  home_blocks_.emplace(mb_id, std::move(mb));
  home_lru_.push_back(ref);
  return ref;
}

void block_directory::evict_home_block() {
  mem_block* victim = lru_victim(home_lru_, home_evictable);
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
    cache_lru_.touch(*it->second);
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
  mb->data = cache_pool_.block_ptr(slot);
  mem_block& ref = *mb;
  cache_blocks_.emplace(mb_id, std::move(mb));
  cache_lru_.push_back(ref);
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
  mem_block* victim = lru_victim(cache_lru_, cache_evictable);
  if (victim == nullptr) return false;
  evict_cache_block(*victim);
  return true;
}

bool block_directory::drop_cache_pages() {
  if (free_slots_.empty()) return false;
  for (const auto& [id, mb] : cache_blocks_) {
    ITYR_CHECK(cache_evictable(*mb) && mb->valid.empty());
  }
  eng_.host_only([&] { cache_pool_.drop_pages(); });
  return true;
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
  owned->data = cache_pool_.block_ptr(slot);
  mem_block* mb = owned.get();
  cache_blocks_.emplace(mb_id, std::move(owned));
  cache_lru_.insert_middle(*mb);
  tag_new_cache_block(*mb);
  return mb;
}

}  // namespace ityr::pgas
