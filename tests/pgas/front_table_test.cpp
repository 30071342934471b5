/// Regression tests for the front-table fast path: memoized entries must be
/// purged on eviction and on invalidate_all (acquire fences), hits must be
/// observable through stats.fast_path_hits, reads inside the valid bytes of
/// a partly fetched block must hit unless the prefetcher is on, and
/// disabling the table (options::front_table_size = 0) must change performance
/// only, never results.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/pgas/cache_system.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

/// 2 nodes x 1 rank: every odd block (block_cyclic) is remote to rank 0.
ic::options front_opts(std::size_t front_table_size) {
  auto o = it::tiny_opts(2, 1);
  o.front_table_size = front_table_size;
  return o;
}

/// Rank 0 reads inside remote 64 KiB block 1, fetched 4 KiB sub-block at a
/// time (paper Section 4.3), and checks each step's counts. Reads inside the
/// fetched sub-block of the partly valid block are front-table hits iff
/// `partial_hits`; every other count is the same either way. Returns the
/// ranks' final clocks.
std::vector<double> run_partial_block_sequence(ic::options o, bool partial_hits) {
  o.block_size = 64 * ic::KiB;
  o.sub_block_size = 4 * ic::KiB;
  o.cache_size = 256 * ic::KiB;
  o.coll_heap_per_rank = 256 * ic::KiB;
  o.noncoll_heap_per_rank = 256 * ic::KiB;
  constexpr std::size_t kBlock = 64 * ic::KiB / sizeof(std::uint64_t);
  constexpr std::size_t kSub = 4 * ic::KiB / sizeof(std::uint64_t);
  const std::uint64_t hit = partial_hits ? 1 : 0;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint64_t>(2 * kBlock, ic::dist_policy::block_cyclic);
    const auto remote = a + static_cast<std::ptrdiff_t>(kBlock);
    if (ityr::my_rank() == 1) {
      ityr::with_checkout(remote, kBlock, access_mode::write, [&](std::uint64_t* p) {
        for (std::size_t i = 0; i < kBlock; i++) p[i] = i;
      });
    }
    ityr::barrier();
    const auto& st = rt.pgas().cache().get_stats();
    auto read_range = [&](std::size_t first, std::size_t n) {
      ityr::with_checkout(remote + static_cast<std::ptrdiff_t>(first), n, access_mode::read,
                          [&](const std::uint64_t* p) {
                            EXPECT_EQ(p[0], first);
                            EXPECT_EQ(p[n - 1], first + n - 1);
                          });
    };
    if (ityr::my_rank() == 0) {
      // 1. One sub-block of the cold block: generic path, one fetch.
      auto hits = st.fast_path_hits;
      auto fetched = st.fetched_bytes;
      read_range(0, kSub);
      EXPECT_EQ(st.fast_path_hits, hits);
      EXPECT_EQ(st.fetched_bytes, fetched + 4 * ic::KiB);

      // A release of another sub-block: under async release its write-back
      // round is still in flight during step 2.
      ityr::with_checkout(remote + static_cast<std::ptrdiff_t>(8 * kSub), kSub,
                          access_mode::write, [&](std::uint64_t* p) {
                            for (std::size_t i = 0; i < kSub; i++) p[i] = 8 * kSub + i;
                          });
      rt.pgas().release();

      // 2. A range, then a get, inside it: the block is not fully valid, but
      // the requested bytes are.
      hits = st.fast_path_hits;
      fetched = st.fetched_bytes;
      const auto block_hits = st.block_hits;
      read_range(8, 16);
      EXPECT_EQ(st.fast_path_hits, hits + hit);
      EXPECT_EQ(ityr::get(remote + 100), 100u);
      EXPECT_EQ(st.fast_path_hits, hits + 2 * hit);
      EXPECT_EQ(st.block_hits, block_hits + 2);
      EXPECT_EQ(st.fetched_bytes, fetched);

      // 3. A sub-block never fetched: generic path, one fetch.
      hits = st.fast_path_hits;
      const auto misses = st.block_misses;
      read_range(12 * kSub + 3, 4);
      EXPECT_EQ(st.fast_path_hits, hits);
      EXPECT_EQ(st.block_misses, misses + 1);
      EXPECT_EQ(st.fetched_bytes, fetched + 4 * ic::KiB);
    }
    // 4. The barrier's acquire invalidates the block and purges the table:
    // the first range misses again.
    ityr::barrier();
    if (ityr::my_rank() == 0) {
      const auto hits = st.fast_path_hits;
      const auto misses = st.block_misses;
      read_range(8, 16);
      EXPECT_EQ(st.fast_path_hits, hits);
      EXPECT_EQ(st.block_misses, misses + 1);
    }
    ityr::barrier();
    ityr::coll_delete(a, 2 * kBlock);
  });
  std::vector<double> clocks;
  for (int r = 0; r < rt.eng().n_ranks(); r++) clocks.push_back(rt.eng().clock_of(r));
  return clocks;
}

}  // namespace

TEST(FrontTable, PartialBlockReadsHitInsideValidBytes) {
  auto o = it::tiny_opts(2, 1);
  o.async_release = false;
  o.prefetch = false;  // partial hits are off with the prefetcher
  run_partial_block_sequence(o, /*partial_hits=*/true);
}

TEST(FrontTable, PartialBlockReadsTakeGenericPathWithPrefetch) {
  // The stream detector must see every read visit.
  auto o = it::tiny_opts(2, 1);
  o.async_release = false;
  o.prefetch = true;
  run_partial_block_sequence(o, /*partial_hits=*/false);
}

TEST(FrontTable, PartialBlockReadsHitWithAsyncRelease) {
  // On the generic path these reads run a fetch round that queues nothing
  // and so does not wait for the write-back round in flight: the table
  // serves them at the same clocks.
  auto o = it::tiny_opts(2, 1);
  o.async_release = true;
  o.prefetch = false;  // partial hits are off with the prefetcher
  const std::vector<double> table = run_partial_block_sequence(o, /*partial_hits=*/true);
  o.front_table_size = 0;
  EXPECT_EQ(run_partial_block_sequence(o, /*partial_hits=*/false), table);
}

TEST(FrontTable, FastPathHitsAreCounted) {
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = static_cast<std::uint32_t>(i);
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      EXPECT_GT(s.cache().front_table_entries(), 0u);
      // Cold full-block read: generic path, makes the block fully valid and
      // memoizes it.
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      const auto before = s.cache().get_stats().fast_path_hits;
      for (int i = 0; i < 10; i++) {
        auto* p = static_cast<const std::uint32_t*>(
            s.checkout(g + bs + 64 * i, 64, access_mode::read));
        EXPECT_EQ(*p, static_cast<std::uint32_t>(16 * i));
        s.checkin(g + bs + 64 * i, 64, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, before + 10);
    }
    s.barrier();
  });
}

TEST(FrontTable, DisabledTableNeverHits) {
  it::run_pgas(front_opts(0), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      EXPECT_EQ(s.cache().front_table_entries(), 0u);
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      for (int i = 0; i < 10; i++) {
        s.checkout(g + bs, 64, access_mode::read);
        s.checkin(g + bs, 64, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, 0u);
    }
    s.barrier();
  });
}

TEST(FrontTable, EvictionPurgesMemoizedBlock) {
  // The tiny cache holds 16 blocks. Memoize one remote block, sweep 31 other
  // remote blocks through the cache to force its eviction, then check the
  // block out again: the probe must NOT be served from the stale memo (the
  // mem_block was destroyed) — the re-checkout misses, refetches, and the
  // data is intact.
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    const std::size_t n_blocks = 64;  // 256 KiB, 32 of them remote to rank 0
    auto g = s.heap().coll_alloc(n_blocks * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      for (std::size_t b = 1; b < n_blocks; b += 2) {
        auto* p = static_cast<std::uint32_t*>(s.checkout(g + b * bs, bs, access_mode::write));
        for (std::size_t i = 0; i < bs / 4; i++)
          p[i] = static_cast<std::uint32_t>(b * 1000 + i);
        s.checkin(g + b * bs, bs, access_mode::write);
      }
    }
    s.barrier();
    if (r == 0) {
      // Memoize remote block 1 (fully valid after a full-block read).
      s.checkout(g + bs, bs, access_mode::read);
      s.checkin(g + bs, bs, access_mode::read);
      const auto fast0 = s.cache().get_stats().fast_path_hits;
      const auto evict0 = s.cache().get_stats().cache_evictions;

      // Sweep every other remote block through the 16-slot cache.
      for (std::size_t b = 3; b < n_blocks; b += 2) {
        s.checkout(g + b * bs, bs, access_mode::read);
        s.checkin(g + b * bs, bs, access_mode::read);
      }
      EXPECT_GT(s.cache().get_stats().cache_evictions, evict0);

      // Re-checkout the memoized-then-evicted block: correct data, and the
      // visit was a genuine miss, not a (dangling) fast-path hit.
      const auto miss0 = s.cache().get_stats().block_misses;
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[0], 1000u);
      EXPECT_EQ(p[123], 1123u);
      s.checkin(g + bs, bs, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fast_path_hits, fast0);
      EXPECT_EQ(s.cache().get_stats().block_misses, miss0 + 1);
    }
    s.barrier();
  });
}

TEST(FrontTable, InvalidateAllPurgesWholeTable) {
  // An acquire fence (barrier) wipes cache validity; a memoized fully-valid
  // block must not keep serving stale bytes through the fast path.
  it::run_pgas(front_opts(64), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = 1;
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      // Memoize the remote block with the old contents.
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[10], 1u);
      s.checkin(g + bs, bs, access_mode::read);
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / 4; i++) p[i] = 2;
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();  // rank 0's acquire must invalidate the memoized block
    if (r == 0) {
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[10], 2u);
      EXPECT_EQ(p[1000], 2u);
      s.checkin(g + bs, bs, access_mode::read);
    }
    s.barrier();
  });
}

TEST(FrontTable, ResultsIdenticalWithAndWithoutTable) {
  // Differential run: the same access pattern with the front table on and
  // off must produce byte-identical results (the table is a pure memo).
  std::vector<std::uint32_t> results[2];
  const std::size_t table_sizes[2] = {64, 0};
  for (int cfg = 0; cfg < 2; cfg++) {
    it::run_pgas(front_opts(table_sizes[cfg]), [&](int r, ip::pgas_space& s) {
      const std::size_t bs = 4 * ic::KiB;
      const std::size_t n = 8 * bs / 4;
      auto g = s.heap().coll_alloc(8 * bs, ic::dist_policy::block_cyclic);
      if (r == 0) {
        auto* p = static_cast<std::uint32_t*>(s.checkout(g, 8 * bs, access_mode::write));
        for (std::size_t i = 0; i < n; i++) p[i] = static_cast<std::uint32_t>(7 * i + 1);
        s.checkin(g, 8 * bs, access_mode::write);
      }
      s.barrier();
      if (r == 1) {
        // Read-modify-write through mixed single-block checkouts.
        for (std::size_t b = 0; b < 8; b++) {
          auto* p = static_cast<std::uint32_t*>(
              s.checkout(g + b * bs, bs, access_mode::read_write));
          for (std::size_t i = 0; i < bs / 4; i++) p[i] += static_cast<std::uint32_t>(b);
          s.checkin(g + b * bs, bs, access_mode::read_write);
        }
      }
      s.barrier();
      if (r == 0) {
        auto* p = static_cast<const std::uint32_t*>(s.checkout(g, 8 * bs, access_mode::read));
        results[cfg].assign(p, p + n);
        s.checkin(g, 8 * bs, access_mode::read);
      }
      s.barrier();
    });
  }
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[0][0], 1u);
}
