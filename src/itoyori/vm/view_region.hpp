#pragma once

#include <cstddef>
#include <cstdint>

#include "itoyori/common/error.hpp"
#include "itoyori/common/interval_set.hpp"
#include "itoyori/vm/physical_pool.hpp"

namespace ityr::vm {

/// A rank's private window onto the global address space (paper Fig. 3).
///
/// The whole global heap's address range is reserved up front with
/// PROT_NONE; physical blocks (home or cache) are mapped into it with
/// mmap(MAP_FIXED) on checkout and replaced by a PROT_NONE overlay on
/// eviction — exactly the mechanism of Section 4.3, including the paper's
/// footnote that munmap() is *not* used so the virtual addresses stay
/// reserved.
///
/// The region also keeps a mapping-entry ledger: Linux caps the number of
/// VMA entries per process (vm.max_map_count, Section 4.3.2), and for N
/// mapped blocks the worst case is 2N+1 entries. map_entry_estimate()
/// reports that bound from the set of currently-mapped runs so the block
/// managers can budget how many blocks may be mapped simultaneously.
class view_region {
public:
  explicit view_region(std::size_t size);
  ~view_region();

  view_region(const view_region&) = delete;
  view_region& operator=(const view_region&) = delete;

  std::size_t size() const { return size_; }
  std::byte* base() const { return base_; }
  std::byte* at(std::uint64_t off) const {
    ITYR_CHECK(off < size_);
    return base_ + off;
  }

  /// Map `len` bytes of `pool` at pool offset `pool_off` to view offset
  /// `view_off`. Any previous mapping of that range is replaced. Counted in
  /// map_calls().
  void map(std::uint64_t view_off, const physical_pool& pool, std::uint64_t pool_off,
           std::size_t len) {
    map_uncounted(view_off, pool, pool_off, len);
    map_calls_++;
  }

  /// Replace [view_off, view_off+len) with an inaccessible PROT_NONE
  /// overlay, preserving the reservation. Counted in map_calls().
  void unmap(std::uint64_t view_off, std::size_t len) {
    unmap_uncounted(view_off, len);
    map_calls_++;
  }

  /// map() and unmap() without the count, for a mapping made ahead of the
  /// point where its cost is booked: count_map_call() books it there, and a
  /// mapping taken back before that leaves map_calls() as if it had never
  /// been made.
  void map_uncounted(std::uint64_t view_off, const physical_pool& pool, std::uint64_t pool_off,
                     std::size_t len);
  void unmap_uncounted(std::uint64_t view_off, std::size_t len);
  void count_map_call() { map_calls_++; }

  /// Enter a fresh mapping with one fault instead of one per page: a single
  /// read at `view_off` lets the kernel's fault-around map, writable, the
  /// pages the pool already holds around it, so copies into them do not
  /// fault page by page.
  void prefault(std::uint64_t view_off) const {
    (void)*static_cast<volatile const std::byte*>(at(view_off));
  }

  bool is_mapped(std::uint64_t view_off, std::size_t len) const {
    return mapped_.contains({view_off, view_off + len});
  }

  /// Number of currently mapped runs (after coalescing of adjacent maps).
  std::size_t mapped_runs() const { return mapped_.count(); }
  std::uint64_t mapped_bytes() const { return mapped_.size(); }

  /// Worst-case VMA entries consumed by this view: one per mapped run plus
  /// the PROT_NONE gaps between/around them.
  std::size_t map_entry_estimate() const { return 2 * mapped_.count() + 1; }

  /// Cumulative mmap syscalls issued (mapping-churn statistic), less the
  /// uncounted ones that were taken back before being booked.
  std::uint64_t map_calls() const { return map_calls_; }

private:
  std::size_t size_;
  std::byte* base_ = nullptr;
  common::interval_set mapped_;
  std::uint64_t map_calls_ = 0;
};

}  // namespace ityr::vm
