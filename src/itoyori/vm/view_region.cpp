#include "itoyori/vm/view_region.hpp"

#include <sys/mman.h>

namespace ityr::vm {

view_region::view_region(std::size_t size) : size_(size) {
  void* p = ::mmap(nullptr, size_, PROT_NONE, MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) throw common::resource_error("view reservation mmap failed");
  base_ = static_cast<std::byte*>(p);
}

view_region::~view_region() {
  if (base_ != nullptr) ::munmap(base_, size_);
}

void view_region::map_uncounted(std::uint64_t view_off, const physical_pool& pool,
                                std::uint64_t pool_off, std::size_t len) {
  ITYR_CHECK(view_off + len <= size_);
  ITYR_CHECK(pool_off + len <= pool.bytes());
  void* p = ::mmap(base_ + view_off, len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_FIXED,
                   pool.fd(), static_cast<off_t>(pool_off));
  if (p == MAP_FAILED) throw common::resource_error("view map (MAP_FIXED) failed");
  mapped_.add({view_off, view_off + len});
}

void view_region::unmap_uncounted(std::uint64_t view_off, std::size_t len) {
  ITYR_CHECK(view_off + len <= size_);
  // PROT_NONE anonymous overlay instead of munmap: keeps the address range
  // reserved (paper Section 4.3.2, footnote 5).
  void* p = ::mmap(base_ + view_off, len, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED, -1, 0);
  if (p == MAP_FAILED) throw common::resource_error("view unmap overlay failed");
  mapped_.subtract({view_off, view_off + len});
}

}  // namespace ityr::vm
