#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

namespace ityr::pgas {

/// Which quanta of an offset space start and which end a live allocation:
/// two bits per quantum, so a free can check that it names exactly one live
/// allocation without keeping a record per allocation (global_heap::free).
/// The bits live in one anonymous mapping that the kernel zero-fills on
/// first touch, so only the pages over quanta ever allocated become
/// resident.
class alloc_marks {
public:
  alloc_marks() = default;
  explicit alloc_marks(std::uint64_t n_quanta);
  ~alloc_marks();

  alloc_marks(alloc_marks&& o) noexcept { *this = std::move(o); }
  alloc_marks& operator=(alloc_marks&& o) noexcept {
    std::swap(first_, o.first_);
    std::swap(n_words_, o.n_words_);
    return *this;
  }

  /// Record the live allocation of quanta [q, q + n).
  void add(std::uint64_t q, std::uint64_t n) {
    set(first_, q);
    set(last(), q + n - 1);
  }
  /// Forget the live allocation [q, q + n).
  void remove(std::uint64_t q, std::uint64_t n) {
    clear(first_, q);
    clear(last(), q + n - 1);
  }
  /// Whether [q, q + n) is exactly one live allocation: one starts at q, one
  /// ends at q + n - 1, and none starts in between (live allocations are
  /// disjoint, so those two are the same one).
  bool is_one(std::uint64_t q, std::uint64_t n) const;

private:
  static void set(std::uint64_t* bits, std::uint64_t i) { bits[i / 64] |= bit(i); }
  static void clear(std::uint64_t* bits, std::uint64_t i) { bits[i / 64] &= ~bit(i); }
  static bool test(const std::uint64_t* bits, std::uint64_t i) {
    return (bits[i / 64] & bit(i)) != 0;
  }
  static std::uint64_t bit(std::uint64_t i) { return std::uint64_t{1} << (i % 64); }
  std::uint64_t* last() const { return first_ + n_words_; }

  std::uint64_t* first_ = nullptr;  ///< n_words_ words of start bits, then as many end bits
  std::size_t n_words_ = 0;
};

}  // namespace ityr::pgas
