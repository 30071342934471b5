#pragma once

#include <cstddef>
#include <cstdint>

#include "itoyori/common/error.hpp"
#include "itoyori/common/interval_set.hpp"
#include "itoyori/vm/physical_pool.hpp"

namespace ityr::vm {

/// The model's record of a rank's view mappings (paper Section 4.3): every
/// mmap(MAP_FIXED) and PROT_NONE overlay the paper's runtime issues is
/// booked here, at the point where that runtime would issue it, whether or
/// not the host makes the syscall. It issues none itself, so no counter
/// here reads one: view_region::map_calls() counts the host's.
///
/// It is also the mapping-entry ledger: Linux caps the number of VMA entries
/// per process (vm.max_map_count, Section 4.3.2), and for N mapped blocks
/// the worst case is 2N+1 entries. map_entry_estimate() reports that bound
/// from the set of booked runs so the block managers can budget how many
/// blocks may be mapped simultaneously.
class view_ledger {
public:
  /// Book a map of [view_off, view_off+len).
  void map(std::uint64_t view_off, std::size_t len) {
    mapped_.add({view_off, view_off + len});
    map_calls_++;
  }
  /// Book the PROT_NONE overlay that replaces [view_off, view_off+len).
  void unmap(std::uint64_t view_off, std::size_t len) {
    mapped_.subtract({view_off, view_off + len});
    map_calls_++;
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

  /// Cumulative map and unmap calls booked (mapping-churn statistic).
  std::uint64_t map_calls() const { return map_calls_; }

private:
  common::interval_set mapped_;
  std::uint64_t map_calls_ = 0;
};

/// A rank's private window onto the global address space (paper Fig. 3), as
/// the host holds it.
///
/// The whole global heap's address range is reserved up front with
/// PROT_NONE. map() maps a pool block into it with mmap(MAP_FIXED); unmap()
/// replaces a range with a PROT_NONE overlay, not munmap(), so the virtual
/// addresses stay reserved (Section 4.3.2, footnote 5). The runtime moves
/// data through each block's pool address, so it calls map() only to give a
/// checkout that spans blocks one contiguous pointer, and unmap() at the
/// checkin of the last such checkout that holds a block; the view_ledger
/// books the model's maps. map_calls() counts the calls this region issues,
/// the host's syscalls, where view_ledger::map_calls() counts the model's.
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
  /// `view_off`. Any previous mapping of that range is replaced.
  void map(std::uint64_t view_off, const physical_pool& pool, std::uint64_t pool_off,
           std::size_t len);

  /// Replace [view_off, view_off+len) with an inaccessible PROT_NONE
  /// overlay, preserving the reservation.
  void unmap(std::uint64_t view_off, std::size_t len);

  /// Cumulative map() and unmap() calls, one mmap syscall each.
  std::uint64_t map_calls() const { return map_calls_; }

private:
  std::size_t size_;
  std::byte* base_ = nullptr;
  std::uint64_t map_calls_ = 0;
};

}  // namespace ityr::vm
