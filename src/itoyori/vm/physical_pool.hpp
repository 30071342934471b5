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
/// address remote reads and writes of home data target, standing in for the
/// NIC's registered memory — and (b) on demand into any rank's global view
/// via view_region. A cache pool's data moves through the view instead, so
/// each cached page has one CPU mapping; only speculative prefetch into an
/// unmapped block writes through the canonical address.
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

private:
  int fd_ = -1;
  std::size_t block_size_;
  std::size_t n_blocks_;
  std::byte* base_ = nullptr;
};

}  // namespace ityr::vm
