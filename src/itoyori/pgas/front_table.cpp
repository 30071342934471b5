#include "itoyori/pgas/front_table.hpp"

#include <algorithm>
#include <cstring>

#include "itoyori/pgas/placement.hpp"

namespace ityr::pgas {

namespace {
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

front_table::front_table(sim::engine& eng, global_heap& heap, block_directory& dir,
                         write_policy& wp, rma::channel& ch, cache_stats& st,
                         std::size_t& checked_out_bytes, std::size_t n_entries,
                         std::size_t block_size, int rank, bool partial_hits,
                         placement_engine* pl)
    : eng_(eng),
      heap_(heap),
      dir_(dir),
      wp_(wp),
      ch_(ch),
      st_(st),
      checked_out_bytes_(checked_out_bytes),
      block_size_(block_size),
      rank_(rank),
      partial_hits_(partial_hits),
      pl_(pl) {
  if (n_entries > 0) {
    // Clamped: a garbage size (e.g. -5 read as 2^64-5) must not wedge
    // startup in round_up_pow2 or exhaust memory.
    const std::size_t entries = std::min<std::size_t>(n_entries, std::size_t(1) << 20);
    table_.resize(round_up_pow2(entries));
    mask_ = table_.size() - 1;
  }
}

mem_block* front_table::probe(gaddr_t g, std::size_t size, std::uint64_t& off0) {
  if (table_.empty() || size == 0) return nullptr;
  ITYR_CHECK(eng_.my_rank() == rank_);
  if (!heap_.in_heap(g, size)) return nullptr;
  off0 = heap_.view_off(g);
  const std::uint64_t mb_id = off0 / block_size_;
  if ((off0 + size - 1) / block_size_ != mb_id) return nullptr;  // spans blocks
  const entry& fe = table_[mb_id & mask_];
  if (fe.mb_id != mb_id) {
    // Occupied by a different block: a direct-mapped conflict miss (as
    // opposed to a cold/purged slot). This counter is what sizes the table
    // and decides whether 2-way associativity would pay (BENCH_checkout.json
    // reports it at 16/64/256 entries).
    if (fe.mb_id != kNoBlock) st_.front_table_conflicts++;
    return nullptr;
  }
  ITYR_CHECK(fe.mb != nullptr);
  ITYR_CHECK(fe.mb->mapped);
  return fe.mb;
}

void* front_table::checkout_fast(gaddr_t g, std::size_t size, access_mode mode) {
  std::uint64_t off0 = 0;
  mem_block* mb = probe(g, size, off0);
  if (mb == nullptr) return nullptr;
  // Read-mode data must be present. Write-mode never fetches, so any
  // memoized cache block qualifies.
  if (mode != access_mode::write && !readable(*mb, off0, size)) return nullptr;
  // A block with unretired prefetch segments takes the slow path: reads may
  // have to wait out in-flight data, writes would race the incoming RDMA,
  // and the slow path keeps feeding the stream detector.
  if (mb->k == mem_block::kind::cache && !mb->pf_segs.empty()) return nullptr;

  // Write intent must invalidate replicas even on the fast path: a home
  // block's writes land in the authoritative bytes with no checkin hook to
  // catch them (cache blocks are caught again, harmlessly, at checkin).
  if (pl_ != nullptr && mode != access_mode::read) pl_->note_write_intent(mb->mb_id);
  st_.checkouts++;
  st_.fast_path_hits++;
  st_.block_visits++;
  if (mb->k == mem_block::kind::home) {
    dir_.touch(*mb);
    st_.block_hits++;
  } else {
    dir_.touch(*mb);
    if (mode == access_mode::write) {
      if (!mb->fully_valid) {
        const std::uint64_t block_base = mb->mb_id * block_size_;
        mb->valid.add({off0 - block_base, off0 - block_base + size});
        mb->update_fully_valid(block_size_);
      }
      st_.write_skips++;
    } else {
      st_.block_hits++;
    }
  }
  mb->ref_count++;
  checked_out_bytes_ += size;
  return dir_.view().at(off0);
}

bool front_table::checkin_fast(gaddr_t g, std::size_t size, access_mode mode) {
  std::uint64_t off0 = 0;
  mem_block* mb = probe(g, size, off0);
  if (mb == nullptr) return false;
  if (mb->ref_count == 0) return false;  // mismatched: let checkin() report it

  if (mb->k == mem_block::kind::cache && mode != access_mode::read) {
    const std::uint64_t block_base = mb->mb_id * block_size_;
    const common::interval req{off0 - block_base, off0 - block_base + size};
    if (wp_.on_dirty(*mb, req)) ch_.flush();
  }
  st_.checkins++;
  mb->ref_count--;
  ITYR_CHECK(checked_out_bytes_ >= size);
  checked_out_bytes_ -= size;
  return true;
}

bool front_table::get_fast(gaddr_t g, std::size_t size, void* out) {
  std::uint64_t off0 = 0;
  mem_block* mb = probe(g, size, off0);
  if (mb == nullptr) return false;
  if (!readable(*mb, off0, size)) return false;
  if (mb->k == mem_block::kind::cache && !mb->pf_segs.empty()) return false;

  std::memcpy(out, dir_.view().at(off0), size);
  dir_.touch(*mb);
  // Counted as a fused checkout+checkin pair so aggregate stats stay
  // comparable with the generic path.
  st_.checkouts++;
  st_.checkins++;
  st_.fast_path_hits++;
  st_.block_visits++;
  st_.block_hits++;
  return true;
}

bool front_table::put_fast(gaddr_t g, std::size_t size, const void* in) {
  std::uint64_t off0 = 0;
  mem_block* mb = probe(g, size, off0);
  if (mb == nullptr) return false;
  if (mb->k == mem_block::kind::cache && !mb->pf_segs.empty()) return false;

  if (pl_ != nullptr) pl_->note_write_intent(mb->mb_id);
  std::memcpy(dir_.view().at(off0), in, size);
  st_.checkouts++;
  st_.checkins++;
  st_.fast_path_hits++;
  st_.block_visits++;
  if (mb->k == mem_block::kind::home) {
    dir_.touch(*mb);
    st_.block_hits++;
    return true;
  }
  dir_.touch(*mb);
  st_.write_skips++;
  const std::uint64_t block_base = mb->mb_id * block_size_;
  const common::interval req{off0 - block_base, off0 - block_base + size};
  if (!mb->fully_valid) {
    mb->valid.add(req);
    mb->update_fully_valid(block_size_);
  }
  if (wp_.on_dirty(*mb, req)) ch_.flush();
  return true;
}

}  // namespace ityr::pgas
