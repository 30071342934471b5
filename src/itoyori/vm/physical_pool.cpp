#include "itoyori/vm/physical_pool.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <string>

namespace ityr::vm {

physical_pool::physical_pool(std::size_t block_size, std::size_t n_blocks, const char* name)
    : block_size_(block_size), n_blocks_(n_blocks) {
  ITYR_CHECK(block_size_ > 0 && block_size_ % static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)) == 0);
  fd_ = static_cast<int>(::memfd_create(name, 0));
  if (fd_ < 0) throw common::resource_error("memfd_create failed");
  if (::ftruncate(fd_, static_cast<off_t>(bytes())) != 0) {
    ::close(fd_);
    throw common::resource_error(std::string("ftruncate failed for pool ") + name);
  }
  void* p = ::mmap(nullptr, bytes(), PROT_READ | PROT_WRITE, MAP_SHARED, fd_, 0);
  if (p == MAP_FAILED) {
    ::close(fd_);
    throw common::resource_error(std::string("canonical mmap failed for pool ") + name);
  }
  base_ = static_cast<std::byte*>(p);
}

physical_pool::~physical_pool() {
  if (base_ != nullptr) ::munmap(base_, bytes());
  if (fd_ >= 0) ::close(fd_);
}

void physical_pool::drop_pages() {
  if (::fallocate(fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE, 0,
                  static_cast<off_t>(bytes())) != 0) {
    throw common::resource_error("fallocate(PUNCH_HOLE) failed for a pool");
  }
  page_drops_++;
}

}  // namespace ityr::vm
