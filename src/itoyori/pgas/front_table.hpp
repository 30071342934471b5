#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/cache_stats.hpp"
#include "itoyori/pgas/global_heap.hpp"
#include "itoyori/pgas/mem_block.hpp"
#include "itoyori/pgas/types.hpp"
#include "itoyori/pgas/write_policy.hpp"
#include "itoyori/rma/channel.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::pgas {

class placement_engine;

/// Fast-path layer of the coherence stack: a small direct-mapped memo of
/// recently touched blocks, and the four entry points served from it. A
/// single-block checkout whose block is memoized and mapped bypasses the
/// hash map, the heap's home lookup and the fetch round; the get/put
/// variants additionally skip the pin/unpin pair. Writes qualify on any
/// memoized block. Reads qualify on a home block, on a fully valid cache
/// block, and on a partly valid one whose valid bytes cover the request
/// (the paper fetches at sub-block granularity, Section 4.3, so a remote
/// block is rarely fully valid). The flag is tested first, so the interval
/// query runs only on partial blocks.
///
/// Partial hits stay on the generic path while the prefetcher is on
/// (`partial_hits` false): its stream detector must see those visits, so
/// serving them here would change the virtual schedule of that mode. Under
/// async release they hit here: the generic path's round for valid bytes
/// is empty and waits for nothing, so either path leaves the clock alone.
///
/// Memos hold raw mem_block pointers, so the directory's eviction callback
/// must purge() a block before destroying it, and invalidate_all must
/// purge_all() — a front-table hit can then never reference a dead or stale
/// block.
class front_table {
public:
  front_table(sim::engine& eng, global_heap& heap, block_directory& dir, write_policy& wp,
              rma::channel& ch, cache_stats& st, std::size_t& checked_out_bytes,
              std::size_t n_entries, std::size_t block_size, int rank, bool partial_hits,
              placement_engine* pl = nullptr);

  std::size_t entries() const { return table_.size(); }

  void memoize(mem_block& mb) {
    if (!table_.empty() && mb.mapped) {
      table_[mb.mb_id & mask_] = {mb.mb_id, &mb};
    }
  }
  void purge(std::uint64_t mb_id) {
    if (table_.empty()) return;
    entry& fe = table_[mb_id & mask_];
    if (fe.mb_id == mb_id) fe = {};
  }
  void purge_all() {
    for (entry& fe : table_) fe = {};
  }

  /// Single-block fast checkout: non-null iff served from the memo.
  void* checkout_fast(gaddr_t g, std::size_t size, access_mode mode);
  /// Matching fast checkin; false means the caller must use the slow path.
  bool checkin_fast(gaddr_t g, std::size_t size, access_mode mode);
  /// One-shot single-element load/store: checkout+copy+checkin fused, no
  /// pin/unpin (nothing can intervene — the copy cannot yield).
  bool get_fast(gaddr_t g, std::size_t size, void* out);
  bool put_fast(gaddr_t g, std::size_t size, const void* in);

private:
  /// Direct-mapped memo of recently touched blocks (mapped ones only).
  struct entry {
    std::uint64_t mb_id = kNoBlock;
    mem_block* mb = nullptr;
  };
  static constexpr std::uint64_t kNoBlock = ~std::uint64_t{0};

  /// Probe shared by the fast paths: the memoized block iff the request is
  /// in-heap, within one block, and memoized; `off0` is the request's view
  /// offset.
  mem_block* probe(gaddr_t g, std::size_t size, std::uint64_t& off0);
  /// The block holds valid data for the request at view offset `off0`.
  bool readable(const mem_block& mb, std::uint64_t off0, std::size_t size) const {
    if (mb.k == mem_block::kind::home || mb.fully_valid) return true;
    if (!partial_hits_) return false;
    const std::uint64_t begin = off0 - mb.mb_id * block_size_;
    return mb.valid.contains({begin, begin + size});
  }

  sim::engine& eng_;
  global_heap& heap_;
  block_directory& dir_;
  write_policy& wp_;
  rma::channel& ch_;
  cache_stats& st_;
  std::size_t& checked_out_bytes_;
  const std::size_t block_size_;
  const int rank_;
  const bool partial_hits_;  ///< partly valid blocks serve reads (see above)

  placement_engine* pl_;  ///< dynamic placement (null when off)

  std::vector<entry> table_;  ///< size is a power of two (or empty)
  std::uint64_t mask_ = 0;
};

}  // namespace ityr::pgas
