#include "itoyori/pgas/alloc_marks.hpp"

#include <sys/mman.h>

#include "itoyori/common/error.hpp"

namespace ityr::pgas {

alloc_marks::alloc_marks(std::uint64_t n_quanta) : n_words_((n_quanta + 63) / 64) {
  void* p = ::mmap(nullptr, 2 * n_words_ * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw common::resource_error("allocation marks mmap failed");
  first_ = static_cast<std::uint64_t*>(p);
}

alloc_marks::~alloc_marks() {
  if (first_ != nullptr) ::munmap(first_, 2 * n_words_ * sizeof(std::uint64_t));
}

bool alloc_marks::is_one(std::uint64_t q, std::uint64_t n) const {
  ITYR_CHECK(n > 0 && q + n <= n_words_ * 64);
  if (!test(first_, q) || !test(last(), q + n - 1)) return false;
  // Start bits of [q + 1, q + n), a word at a time.
  for (std::uint64_t i = q + 1; i < q + n; i = (i / 64 + 1) * 64) {
    std::uint64_t mask = ~std::uint64_t{0} << (i % 64);
    const std::uint64_t end = q + n - i / 64 * 64;  // exclusive, relative to the word
    if (end < 64) mask &= bit(end) - 1;
    if ((first_[i / 64] & mask) != 0) return false;
  }
  return true;
}

}  // namespace ityr::pgas
