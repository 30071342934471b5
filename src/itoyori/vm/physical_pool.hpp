#pragma once

#include <cstddef>
#include <cstdint>

#include "itoyori/common/error.hpp"

namespace ityr::vm {

/// A pool of physical memory blocks backed by one memfd.
///
/// This models the paper's POSIX shared memory segments (Section 4.1):
/// home blocks and cache blocks are carved out of memfd-backed pools so the
/// same physical pages can be mapped (a) once at a canonical address — the
/// RMA window memory that remote reads and writes of home data target — and
/// (b) into a rank's global view via view_region. The canonical address is
/// each block's one host address: every fetch, write-back and write-through
/// copies through it, and a checkout that lies in one block returns it.
/// Only a checkout that spans blocks maps them into the view, and only until
/// its checkin.
///
/// drop_pages() gives the whole pool's pages back to the kernel while every
/// mapping of it stays: a rank's cache pool does so after an acquire, when
/// none of its bytes is valid any more (block_directory::drop_cache_pages).
class physical_pool {
public:
  physical_pool(std::size_t block_size, std::size_t n_blocks, const char* name);
  ~physical_pool();

  physical_pool(const physical_pool&) = delete;
  physical_pool& operator=(const physical_pool&) = delete;

  int fd() const { return fd_; }
  std::size_t block_size() const { return block_size_; }
  std::size_t n_blocks() const { return n_blocks_; }
  std::size_t bytes() const { return block_size_ * n_blocks_; }

  /// Canonical mapping of the whole pool (always valid).
  std::byte* base() const { return base_; }
  std::byte* block_ptr(std::size_t idx) const {
    ITYR_CHECK(idx < n_blocks_);
    return base_ + idx * block_size_;
  }
  std::byte* at(std::uint64_t offset) const {
    ITYR_CHECK(offset < bytes());
    return base_ + offset;
  }

  /// Free every page of the memfd with one fallocate(PUNCH_HOLE |
  /// KEEP_SIZE). The file keeps its size and every mapping of it stays; the
  /// next touch of a dropped page faults in a fresh zeroed one.
  /// madvise(MADV_DONTNEED) would not do: on a MAP_SHARED memfd it only
  /// clears page-table entries, and the shmem pages stay allocated.
  void drop_pages();

  /// Cumulative drop_pages() calls, one fallocate each.
  std::uint64_t page_drops() const { return page_drops_; }

private:
  int fd_ = -1;
  std::size_t block_size_;
  std::size_t n_blocks_;
  std::byte* base_ = nullptr;
  std::uint64_t page_drops_ = 0;
};

}  // namespace ityr::vm
