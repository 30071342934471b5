#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/common/interval_set.hpp"
#include "itoyori/common/job.hpp"
#include "itoyori/common/lru_list.hpp"
#include "itoyori/pgas/home_loc.hpp"

namespace ityr::pgas {

/// One in-flight prefetch segment: a block-relative byte range whose
/// nonblocking get was issued at some past virtual time and whose data is
/// usable from `ready_at` on. The segment is retired (erased) when a
/// consumer first touches it, when a write fully overwrites it, or when
/// the block is evicted/invalidated — each retirement emits exactly one
/// "prefetch consume" or "prefetch evict" trace terminator for the flow
/// arrow recorded at issue time (tools/trace_lint checks the pairing).
struct pf_seg {
  common::interval iv;     ///< block-relative range
  double ready_at = 0;     ///< modelled completion time of the get
};

/// One tracked memory block of a rank's coherence stack: either a *home*
/// block (an intra-node owner's pool block, shared zero-copy and dynamically
/// managed because of the mapping-entry budget) or a *cache* block (a slot
/// of the rank's cache pool with byte-granularity valid/dirty intervals).
///
/// `mapped` is the model's state: the block is mapped into the view as the
/// paper's runtime maps it, booked in the view_ledger. `data` is where the
/// host keeps the bytes: the block in its pool's canonical mapping. All data
/// movement and every single-block checkout use `data`. `view_refs` counts
/// the outstanding checkouts that span blocks and include this one; the host
/// maps the block at its view address while it is nonzero, and only then.
/// Each such checkout also holds one of `ref_count`, so a block in the view
/// is always pinned.
///
/// Owned by the block_directory, whose LRU list of its kind (home or cache)
/// it is linked into through the base hook. Raw pointers held elsewhere
/// (front-table memos, the write-back engine's dirty list, prefetch
/// segments) must be purged before the directory destroys the block — the
/// directory's client callback (cache_system::on_block_evicted) enforces
/// this on eviction.
struct mem_block : common::lru_hook {
  enum class kind : std::uint8_t { home, cache };
  kind k{};
  std::uint64_t mb_id = 0;
  home_loc home{};
  std::byte* data = nullptr;   ///< the block's bytes in its pool's canonical mapping
  bool mapped = false;         ///< mapped in the model (see above)
  std::uint32_t ref_count = 0;
  std::uint32_t view_refs = 0;  ///< spanning checkouts holding it (<= ref_count)
  // cache blocks only:
  std::size_t slot = 0;                 ///< index into the cache pool
  /// Job that allocated this cache slot (serving mode; no_job otherwise).
  /// The tag sticks until eviction even if other jobs later hit the block —
  /// capacity accounting charges the allocator, not every reader.
  common::job_id_t job = common::no_job;
  common::interval_set valid;           ///< block-relative [0, block_size)
  common::interval_set dirty;
  bool fully_valid = false;             ///< valid == [0, block_size)
  bool in_dirty_list = false;
  // prefetcher state (cache blocks only; empty unless ITYR_PREFETCH):
  common::interval_set prefetched;      ///< prefetched, not yet consumed
  std::vector<pf_seg> pf_segs;          ///< unretired prefetch segments

  void update_fully_valid(std::size_t block_size) {
    fully_valid = valid.contains({0, block_size});
  }
};

}  // namespace ityr::pgas
