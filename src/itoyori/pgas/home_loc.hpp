#pragma once

#include <cstddef>
#include <cstdint>

namespace ityr::vm {
class physical_pool;
}
namespace ityr::rma {
struct window;
}

namespace ityr::pgas {

/// Home location of one heap block: which rank owns its physical bytes,
/// where in that rank's pool they live, and the RMA window they are
/// reachable by. Pure value; produced by global_heap, stored per mem_block.
/// A block's home is fixed when it is allocated (paper Section 4.2), so a
/// stored home_loc never goes stale while its allocation lives.
struct home_loc {
  int rank = -1;
  const vm::physical_pool* pool = nullptr;
  std::uint64_t pool_off = 0;   ///< offset within the pool == window offset
  rma::window* win = nullptr;
};

/// Minimal heap-lookup surface the fetch engine's speculative (prefetch)
/// path needs: a non-throwing block locate plus the heap extent. global_heap
/// implements it; unit tests substitute a synthetic locator over hand-built
/// windows.
class block_locator {
public:
  virtual ~block_locator() = default;

  /// False iff the block is out of range or outside any live allocation —
  /// how most prefetch streams die. Never a substitute for the demand path's
  /// throwing locate.
  virtual bool try_locate_block(std::uint64_t mb_id, home_loc& out) const = 0;

  /// Total heap span in bytes (view offsets are in [0, total_size())).
  virtual std::size_t total_size() const = 0;
};

}  // namespace ityr::pgas
