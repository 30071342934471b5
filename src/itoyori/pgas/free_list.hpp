#pragma once

#include <cstdint>
#include <map>
#include <optional>

#include "itoyori/common/error.hpp"

namespace ityr::pgas {

/// First-fit free-list allocator over an abstract [0, capacity) offset
/// space. Used for both the symmetric collective heap (block-granular) and
/// the per-rank noncollective heaps (16-byte granular: sizes and starts are
/// multiples of 16, so every free fragment is too).
class free_list {
public:
  free_list() = default;
  explicit free_list(std::uint64_t capacity) { free_.emplace(0, capacity); }

  /// Allocate `size` bytes aligned to `align` (power of two). Returns the
  /// offset, or nullopt if no fit exists.
  std::optional<std::uint64_t> alloc(std::uint64_t size, std::uint64_t align = 1) {
    ITYR_CHECK(size > 0);
    ITYR_CHECK(align > 0 && (align & (align - 1)) == 0);
    for (auto it = free_.begin(); it != free_.end(); ++it) {
      const std::uint64_t lo = it->first;
      const std::uint64_t hi = it->second;
      const std::uint64_t start = (lo + align - 1) & ~(align - 1);
      if (start + size > hi || start + size < size /*overflow*/) continue;
      free_.erase(it);
      if (start > lo) free_.emplace(lo, start);
      if (start + size < hi) free_.emplace(start + size, hi);
      in_use_ += size;
      return start;
    }
    return std::nullopt;
  }

  /// Return [off, off+size) to the pool, coalescing with neighbours.
  void dealloc(std::uint64_t off, std::uint64_t size) {
    ITYR_CHECK(size > 0);
    std::uint64_t lo = off, hi = off + size;
    auto it = free_.upper_bound(lo);
    if (it != free_.begin()) {
      auto prev = std::prev(it);
      ITYR_CHECK(prev->second <= lo);  // double-free detection
      if (prev->second == lo) {
        lo = prev->first;
        free_.erase(prev);
      }
    }
    it = free_.lower_bound(hi);
    if (it != free_.end() && it->first == hi) {
      hi = it->second;
      free_.erase(it);
    } else if (it != free_.begin()) {
      ITYR_CHECK(std::prev(it)->second <= off);  // overlap = double free
    }
    free_.emplace(lo, hi);
    ITYR_CHECK(in_use_ >= size);
    in_use_ -= size;
  }

  std::uint64_t bytes_in_use() const { return in_use_; }
  std::size_t fragments() const { return free_.size(); }

private:
  std::map<std::uint64_t, std::uint64_t> free_;  // begin -> end
  std::uint64_t in_use_ = 0;
};

}  // namespace ityr::pgas
