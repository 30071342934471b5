#include "itoyori/pgas/global_heap.hpp"

#include <algorithm>
#include <cmath>

namespace ityr::pgas {

namespace {

std::size_t round_up(std::size_t v, std::size_t to) { return (v + to - 1) / to * to; }

/// Noncollective size quantum and minimum alignment: malloc's granularity.
/// Sizes and start offsets are both multiples of it, so every free fragment
/// is too and no allocation strands a sub-quantum remnant.
constexpr std::size_t kNcQuantum = alignof(std::max_align_t);

}  // namespace

global_heap::global_heap(sim::engine& eng, rma::context& rma) : eng_(eng), rma_(rma) {
  const auto& o = eng_.opts();
  // Fail fast with a diagnosable error before any pool is carved up: the
  // pools hard-assert on page granularity, and the cache layers assume
  // power-of-two sub-block arithmetic.
  common::validate_cache_geometry(o.block_size, o.sub_block_size);
  block_size_ = o.block_size;
  base_ = static_cast<gaddr_t>(block_size_);  // gaddr 0 stays invalid

  const auto n = static_cast<std::size_t>(eng_.n_ranks());
  const std::size_t coll_per_rank = round_up(o.coll_heap_per_rank, block_size_);
  nc_per_rank_ = round_up(o.noncoll_heap_per_rank, block_size_);
  coll_total_ = coll_per_rank * n;
  total_ = coll_total_ + nc_per_rank_ * n;

  std::vector<rma::window::region> coll_regions, nc_regions;
  for (std::size_t r = 0; r < n; r++) {
    coll_pools_.push_back(std::make_unique<vm::physical_pool>(
        block_size_, coll_per_rank / block_size_, "ityr-coll-home"));
    nc_pools_.push_back(std::make_unique<vm::physical_pool>(
        block_size_, nc_per_rank_ / block_size_, "ityr-nc-home"));
    coll_regions.push_back({coll_pools_.back()->base(), coll_per_rank});
    nc_regions.push_back({nc_pools_.back()->base(), nc_per_rank_});
  }
  coll_win_ = rma_.create_window(std::move(coll_regions));
  nc_win_ = rma_.create_window(std::move(nc_regions));

  coll_gspace_ = free_list(coll_total_);
  coll_pool_space_ = free_list(coll_per_rank);
  coll_seq_.assign(n, 0);
  nc_space_.reserve(n);
  for (std::size_t r = 0; r < n; r++) nc_space_.emplace_back(nc_per_rank_);
  nc_marks_ = alloc_marks(nc_per_rank_ * n / kNcQuantum);
  pending_frees_.resize(n);
}

global_heap::home_loc global_heap::locate_block(std::uint64_t mb_id) const {
  const std::uint64_t off = mb_id * block_size_;
  ITYR_CHECK(off < total_);
  const auto n = static_cast<std::uint64_t>(eng_.n_ranks());

  if (off < coll_total_) {
    // Find the collective allocation containing this block.
    auto it = coll_allocs_.upper_bound(off);
    if (it == coll_allocs_.begin())
      throw common::api_error("global memory access outside any live collective allocation");
    --it;
    const coll_record& rec = it->second;
    if (off >= rec.vbase + rec.gspan)
      throw common::api_error("global memory access outside any live collective allocation");

    const std::uint64_t j = (off - rec.vbase) / block_size_;
    std::uint64_t rank, pool_off;
    if (rec.policy == common::dist_policy::block_cyclic) {
      rank = j % n;
      pool_off = rec.pool_base + (j / n) * block_size_;
    } else {
      const std::uint64_t per_rank_blocks = rec.per_rank_span / block_size_;
      rank = j / per_rank_blocks;
      pool_off = rec.pool_base + (j % per_rank_blocks) * block_size_;
    }
    return {static_cast<int>(rank), coll_pools_[rank].get(), pool_off, coll_win_};
  }

  const std::uint64_t nc_off = off - coll_total_;
  const std::uint64_t rank = nc_off / nc_per_rank_;
  const std::uint64_t pool_off = nc_off % nc_per_rank_;
  return {static_cast<int>(rank), nc_pools_[rank].get(), pool_off, nc_win_};
}

bool global_heap::try_locate_block(std::uint64_t mb_id, home_loc& out) const {
  const std::uint64_t off = mb_id * block_size_;
  if (off >= total_) return false;
  if (off < coll_total_) {
    auto it = coll_allocs_.upper_bound(off);
    if (it == coll_allocs_.begin()) return false;
    --it;
    if (off >= it->second.vbase + it->second.gspan) return false;
  }
  out = locate_block(mb_id);
  return true;
}

void global_heap::charge_collective() {
  // Collective allocation implies window creation / synchronization across
  // all ranks; charge a latency tree.
  const auto& net = eng_.opts().net;
  const int n = eng_.n_ranks();
  double depth = 1.0;
  for (int p = 1; p < n; p *= 2) depth += 1.0;
  eng_.advance(depth * net.inter_latency);
}

gaddr_t global_heap::coll_alloc(std::size_t size, common::dist_policy policy) {
  ITYR_CHECK(size > 0);
  const int me = eng_.my_rank();
  charge_collective();

  auto& seq = coll_seq_[static_cast<std::size_t>(me)];
  if (seq < coll_log_.size()) {
    // Another rank already performed this collective call; replay its result.
    const coll_op& op = coll_log_[seq++];
    ITYR_CHECK(op.k == coll_op::kind::alloc);
    return op.g;
  }

  // A size beyond the region is refused before rounding, which could wrap.
  if (size > coll_total_) throw common::resource_error("collective heap exhausted");
  const auto n = static_cast<std::size_t>(eng_.n_ranks());
  const std::size_t blocks_total = round_up(size, block_size_) / block_size_;
  const std::size_t per_rank_blocks = (blocks_total + n - 1) / n;
  const std::size_t per_rank_span = per_rank_blocks * block_size_;
  const std::size_t gspan = per_rank_span * n;

  auto g_off = coll_gspace_.alloc(gspan, block_size_);
  if (!g_off) throw common::resource_error("collective heap exhausted");
  auto p_off = coll_pool_space_.alloc(per_rank_span, block_size_);
  if (!p_off) {
    coll_gspace_.dealloc(*g_off, gspan);
    throw common::resource_error("collective home pools exhausted");
  }

  coll_allocs_.emplace(*g_off, coll_record{*g_off, size, gspan, policy, *p_off, per_rank_span});

  const gaddr_t g = base_ + *g_off;
  coll_log_.push_back({coll_op::kind::alloc, g});
  seq++;
  return g;
}

void global_heap::coll_free(gaddr_t g) {
  const int me = eng_.my_rank();
  charge_collective();

  auto& seq = coll_seq_[static_cast<std::size_t>(me)];
  if (seq < coll_log_.size()) {
    const coll_op& op = coll_log_[seq++];
    ITYR_CHECK(op.k == coll_op::kind::dealloc && op.g == g);
    return;
  }

  const std::uint64_t off = view_off(g);
  auto it = coll_allocs_.find(off);
  if (it == coll_allocs_.end()) throw common::api_error("coll_free of unknown allocation");
  const coll_record rec = it->second;
  coll_allocs_.erase(it);
  coll_gspace_.dealloc(rec.vbase, rec.gspan);
  coll_pool_space_.dealloc(rec.pool_base, rec.per_rank_span);

  coll_log_.push_back({coll_op::kind::dealloc, g});
  seq++;
}

gaddr_t global_heap::alloc(std::size_t size, std::size_t align) {
  ITYR_CHECK(size > 0);
  const auto me = static_cast<std::size_t>(eng_.my_rank());
  poll();  // reclaim remotely freed memory first
  // A size beyond the segment is refused before rounding, which could wrap.
  if (size > nc_per_rank_) throw common::resource_error("noncollective heap segment exhausted");
  // Allocate in whole quanta: carving exact sizes at aligned starts would
  // strand a dead sub-quantum fragment per allocation, and first-fit would
  // then rescan millions of them (quadratic blowup). An alignment above the
  // quantum leaves a gap of whole quanta, which later allocations can fill.
  const std::size_t len = round_up(size, kNcQuantum);
  auto off = nc_space_[me].alloc(len, std::max(kNcQuantum, align));
  if (!off) throw common::resource_error("noncollective heap segment exhausted");
  const std::uint64_t nc_off = me * nc_per_rank_ + *off;
  nc_marks_.add(nc_off / kNcQuantum, len / kNcQuantum);
  return base_ + coll_total_ + nc_off;
}

void global_heap::free(gaddr_t g, std::size_t size) {
  ITYR_CHECK(size > 0);
  // The heap trusts neither pointer nor size: a size that is not its
  // allocation's would hand a live neighbour's bytes out again. A remote
  // free is checked here, at the call, and its marks go at once, so a
  // second free of it throws too.
  const auto no_allocation = [] {
    return common::api_error("noncoll_delete: the pointer and size name no live allocation");
  };
  if (!in_heap(g, 1) || view_off(g) < coll_total_) throw no_allocation();
  const std::uint64_t nc_off = view_off(g) - coll_total_;
  const auto owner = static_cast<std::size_t>(nc_off / nc_per_rank_);
  const std::uint64_t seg_off = nc_off % nc_per_rank_;
  if (nc_off % kNcQuantum != 0 || size > nc_per_rank_ - seg_off) throw no_allocation();
  const std::size_t len = round_up(size, kNcQuantum);
  if (!nc_marks_.is_one(nc_off / kNcQuantum, len / kNcQuantum)) throw no_allocation();
  nc_marks_.remove(nc_off / kNcQuantum, len / kNcQuantum);

  if (owner == static_cast<std::size_t>(eng_.my_rank())) {
    nc_space_[owner].dealloc(seg_off, len);
  } else {
    // Remote free: forward to the owner (one small message) and let it
    // reclaim at its next poll, as the paper allows any process to free
    // noncollectively allocated memory.
    eng_.charge(eng_.opts().net.injection_overhead);
    pending_frees_[owner].push_back({seg_off, size});
  }
}

void global_heap::poll() {
  const auto me = static_cast<std::size_t>(eng_.my_rank());
  auto& pend = pending_frees_[me];
  if (pend.empty()) return;
  for (const auto& pf : pend) nc_space_[me].dealloc(pf.off, round_up(pf.size, kNcQuantum));
  pend.clear();
}

}  // namespace ityr::pgas
