#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "itoyori/common/options.hpp"
#include "itoyori/pgas/alloc_marks.hpp"
#include "itoyori/pgas/free_list.hpp"
#include "itoyori/pgas/home_loc.hpp"
#include "itoyori/pgas/types.hpp"
#include "itoyori/rma/window.hpp"
#include "itoyori/sim/engine.hpp"
#include "itoyori/vm/physical_pool.hpp"

namespace ityr::pgas {

/// Layout and allocation of the global address space (paper Section 4.2).
///
/// The heap is a single gaddr range shared by all ranks:
///
///   [ collective region | noncollective seg rank0 | seg rank1 | ... ]
///
/// * Collective allocations (block or block-cyclic distribution) are made
///   symmetrically by all ranks; each rank contributes an equal, identically
///   placed slice of its collective home pool, so the gaddr->home mapping is
///   pure arithmetic per allocation record.
/// * Noncollective allocations are rank-local first-fit allocations inside
///   the caller's segment — fine-grained and asynchronous, usable from any
///   thread in the fork-join region. Like malloc, they take whole 16-byte
///   quanta (alignof(std::max_align_t)), so neighbouring small objects pack
///   densely into the blocks and sub-blocks the cache fetches. A free must
///   name exactly one live allocation, which is checked at the call; remote
///   frees are then forwarded to the owner and drained at its next poll.
///
/// Every home block's physical bytes live in the owner's memfd pool; pools
/// are registered as RMA windows at construction (MPI_Win_create), so cache
/// fetches/flushes address them as (rank, pool offset).
class global_heap : public block_locator {
public:
  /// Home location of one heap block (shared with the cache layers).
  using home_loc = pgas::home_loc;

  global_heap(sim::engine& eng, rma::context& rma);

  // ---- layout ----
  gaddr_t heap_base() const { return base_; }
  std::size_t total_size() const override { return total_; }
  std::size_t block_size() const { return block_size_; }

  bool in_heap(gaddr_t g, std::size_t size) const {
    return g >= base_ && g - base_ + size <= total_;
  }
  std::uint64_t view_off(gaddr_t g) const {
    ITYR_CHECK(g >= base_ && g - base_ < total_);
    return g - base_;
  }
  gaddr_t gaddr_of_view(std::uint64_t off) const { return base_ + off; }

  std::uint64_t block_id_of(gaddr_t g) const { return view_off(g) / block_size_; }

  /// Home of heap block `mb_id` (mb_id = view offset / block size): the
  /// block / block-cyclic arithmetic of Section 4.2 over the allocation's
  /// record, fixed for the allocation's lifetime. Collective-region blocks
  /// must belong to a live allocation.
  home_loc locate_block(std::uint64_t mb_id) const;

  /// Non-throwing locate_block for speculative lookups (prefetch): false iff
  /// the block is out of range or a collective block outside any live
  /// allocation. Never a substitute for locate_block on the demand path,
  /// where such an access is an API error worth reporting.
  bool try_locate_block(std::uint64_t mb_id, home_loc& out) const override;

  /// True iff block `b` directly follows block `a` in the same rank's home
  /// pool, i.e. their physical bytes form one contiguous window range (so
  /// RMA transfers touching both can ride a single message). Holds for
  /// consecutive blocks of a block-distributed allocation within one rank's
  /// span, and for a rank's successive blocks of a block-cyclic allocation.
  bool homes_contiguous(const home_loc& a, const home_loc& b) const {
    return a.rank == b.rank && a.win == b.win && b.pool_off == a.pool_off + block_size_;
  }

  // ---- collective allocation (call from every rank, in order) ----
  gaddr_t coll_alloc(std::size_t size, common::dist_policy policy);
  void coll_free(gaddr_t g);

  // ---- noncollective allocation ----
  /// Takes `size` rounded up to 16 bytes, starting at a multiple of
  /// max(16, align); `align` must be a power of two.
  gaddr_t alloc(std::size_t size, std::size_t align = 1);
  /// Free the allocation at `g` of `size` bytes, from any rank. Throws
  /// api_error unless [g, g + size rounded up to 16) is exactly one live
  /// allocation.
  void free(gaddr_t g, std::size_t size);
  /// Drain remote-free requests addressed to the calling rank.
  void poll();

  // ---- physical pools (for the cache system / view mapping) ----
  const vm::physical_pool& coll_pool(int rank) const { return *coll_pools_[static_cast<std::size_t>(rank)]; }
  const vm::physical_pool& nc_pool(int rank) const { return *nc_pools_[static_cast<std::size_t>(rank)]; }
  rma::window& coll_win() { return *coll_win_; }
  rma::window& nc_win() { return *nc_win_; }

  // ---- statistics / introspection ----
  std::uint64_t coll_bytes_in_use() const { return coll_gspace_.bytes_in_use(); }
  std::uint64_t nc_bytes_in_use(int rank) const {
    return nc_space_[static_cast<std::size_t>(rank)].bytes_in_use();
  }
  /// Free-list fragment count of a rank's noncollective segment (allocation
  /// health: bump-like workloads must keep this O(live holes), not O(allocs)).
  std::size_t nc_fragments(int rank) const {
    return nc_space_[static_cast<std::size_t>(rank)].fragments();
  }
  std::size_t live_coll_allocs() const { return coll_allocs_.size(); }

private:
  struct coll_record {
    std::uint64_t vbase = 0;          ///< view offset of the allocation
    std::size_t user_size = 0;        ///< bytes requested
    std::size_t gspan = 0;            ///< gaddr bytes reserved (block multiple)
    common::dist_policy policy{};
    std::uint64_t pool_base = 0;      ///< identical offset in every rank's pool
    std::size_t per_rank_span = 0;    ///< bytes contributed per rank
  };

  struct coll_op {
    enum class kind { alloc, dealloc };
    kind k{};
    gaddr_t g = 0;
  };

  struct pending_free {
    std::uint64_t off = 0;
    std::size_t size = 0;
  };

  void charge_collective();

  sim::engine& eng_;
  rma::context& rma_;

  std::size_t block_size_;
  gaddr_t base_;
  std::size_t coll_total_;
  std::size_t nc_per_rank_;
  std::size_t total_;

  std::vector<std::unique_ptr<vm::physical_pool>> coll_pools_;
  std::vector<std::unique_ptr<vm::physical_pool>> nc_pools_;
  rma::window* coll_win_ = nullptr;
  rma::window* nc_win_ = nullptr;

  // Collective state is symmetric across ranks; ops are performed once by
  // the first caller and replayed (as results) to the others.
  free_list coll_gspace_;                      ///< gaddr space of coll region
  free_list coll_pool_space_;                  ///< per-rank pool offsets (symmetric)
  std::map<std::uint64_t, coll_record> coll_allocs_;  ///< keyed by vbase
  std::vector<coll_op> coll_log_;
  std::vector<std::size_t> coll_seq_;          ///< per-rank replay cursor

  std::vector<free_list> nc_space_;            ///< per-rank noncollective space
  alloc_marks nc_marks_;                       ///< live allocations of every segment
  std::vector<std::vector<pending_free>> pending_frees_;  ///< per owner rank
};

}  // namespace ityr::pgas
