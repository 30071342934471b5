#include "itoyori/pgas/cache_system.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "../support/fixture.hpp"
#include "../support/smaps.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;
using it::mapping_at;
using it::read_smaps;
using it::smaps_mapping;

namespace {

/// 1 node x 2 ranks: rank 1's collective blocks are remote to rank 0 only if
/// they are on another node, so for cache-path tests use 2 nodes x 1 rank.
ityr::common::options remote_opts() { return it::tiny_opts(2, 1); }

/// The mappings inside any of `views` that have resident pages.
std::vector<smaps_mapping> resident_view_mappings(
    const std::vector<const ityr::vm::view_region*>& views) {
  std::vector<smaps_mapping> res;
  for (const auto& m : read_smaps()) {
    for (const auto* v : views) {
      const auto base = reinterpret_cast<std::uintptr_t>(v->base());
      if (base <= m.lo && m.hi <= base + v->size() && m.rss > 0) res.push_back(m);
    }
  }
  return res;
}

/// Whether the page at `a` is mapped from a memfd pool (not the PROT_NONE
/// reservation or its overlay).
bool maps_a_pool(std::uintptr_t a) { return mapping_at(a).name.rfind("/memfd:", 0) == 0; }

}  // namespace

TEST(Cache, LocalHomeCheckoutIsDirect) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(8192, ic::dist_policy::block);
    auto* p = static_cast<int*>(s.checkout(g, 8192, access_mode::write));
    for (int i = 0; i < 2048; i++) p[i] = i;
    s.checkin(g, 8192, access_mode::write);
    // Data is directly in the home pool (no cache involved).
    auto home = s.heap().locate_block(s.heap().block_id_of(g));
    EXPECT_EQ(*reinterpret_cast<const int*>(home.pool->at(home.pool_off)), 0);
    EXPECT_EQ(*reinterpret_cast<const int*>(home.pool->at(home.pool_off + 4 * 100)), 100);
    EXPECT_EQ(s.cache().get_stats().fetched_bytes, 0u);
  });
}

TEST(Cache, RemoteReadFetchesFromHome) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    // Block 0 homes on rank 0, block 1 on rank 1.
    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g, 4096, access_mode::write));
      for (int i = 0; i < 1024; i++) p[i] = 7 * i;
      s.checkin(g, 4096, access_mode::write);
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<const int*>(s.checkout(g, 4096, access_mode::read));
      for (int i = 0; i < 1024; i++) ASSERT_EQ(p[i], 7 * i);
      s.checkin(g, 4096, access_mode::read);
      EXPECT_GT(s.cache().get_stats().fetched_bytes, 0u);
    }
  });
}

TEST(Cache, RepeatedReadHitsCache) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      // Block 1 homes on rank 1: remote for rank 0.
      auto g1 = g + 4096;
      s.checkout(g1, 4096, access_mode::read);
      s.checkin(g1, 4096, access_mode::read);
      const auto fetched_once = s.cache().get_stats().fetched_bytes;
      EXPECT_GT(fetched_once, 0u);
      for (int i = 0; i < 10; i++) {
        s.checkout(g1, 4096, access_mode::read);
        s.checkin(g1, 4096, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, fetched_once);
      EXPECT_GE(s.cache().get_stats().block_hits, 10u);
    }
    s.barrier();
  });
}

TEST(Cache, SubBlockFetchGranularity) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      auto g1 = g + 4096;  // remote block
      // Read 8 bytes: fetch must be exactly one 1 KiB sub-block.
      s.checkout(g1 + 100, 8, access_mode::read);
      s.checkin(g1 + 100, 8, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 1024u);
      // Reading elsewhere in the same sub-block: no new fetch.
      s.checkout(g1 + 200, 8, access_mode::read);
      s.checkin(g1 + 200, 8, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 1024u);
      // Straddling into the next sub-block fetches only the missing one.
      s.checkout(g1 + 1020, 8, access_mode::read);
      s.checkin(g1 + 1020, 8, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 2048u);
    }
    s.barrier();
  });
}

TEST(Cache, WriteBackFlushesOnRelease) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;  // homes on rank 1
    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g1, 256, access_mode::write));
      for (int i = 0; i < 64; i++) p[i] = i + 1;
      s.checkin(g1, 256, access_mode::write);
      EXPECT_TRUE(s.cache().has_dirty());
      auto home = s.heap().locate_block(s.heap().block_id_of(g1));
      // Not yet at home (write-back policy).
      EXPECT_EQ(*reinterpret_cast<const int*>(home.pool->at(home.pool_off)), 0);
      s.release();
      EXPECT_FALSE(s.cache().has_dirty());
      EXPECT_EQ(*reinterpret_cast<const int*>(home.pool->at(home.pool_off)), 1);
      EXPECT_EQ(s.cache().get_stats().written_back_bytes, 256u);
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<const int*>(s.checkout(g1, 256, access_mode::read));
      for (int i = 0; i < 64; i++) ASSERT_EQ(p[i], i + 1);
      s.checkin(g1, 256, access_mode::read);
    }
  });
}

TEST(Cache, WriteThroughFlushesOnCheckin) {
  // Write-through puts the written bytes to the home at once at each of its
  // three call sites: the fast checkin of a memoized block, the generic
  // checkin of a span over two blocks, and the fused put of one element.
  auto o = remote_opts();
  o.policy = ic::cache_policy::write_through;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4 * 4096, ic::dist_policy::block);
    // The int at `a` in its home pool, which must be rank 1's.
    auto at_home = [&](ip::gaddr_t a) {
      const auto home = s.heap().locate_block(s.heap().block_id_of(a));
      EXPECT_EQ(home.rank, 1);
      return *reinterpret_cast<const int*>(
          home.pool->at(home.pool_off + s.heap().view_off(a) % 4096));
    };
    if (r == 0) {
      const auto& st = s.cache().get_stats();
      auto g1 = g + 2 * 4096;
      auto* p = static_cast<int*>(s.checkout(g1, 128, access_mode::write));
      p[0] = 42;
      s.checkin(g1, 128, access_mode::write);
      EXPECT_FALSE(s.cache().has_dirty());
      EXPECT_EQ(at_home(g1), 42);
      EXPECT_EQ(st.write_through_bytes, 128u);
      EXPECT_EQ(st.written_back_bytes, 0u);

      // Blocks 2 and 3: a span is never served by the front table.
      auto g2 = g + 3 * 4096 - 64;
      p = static_cast<int*>(s.checkout(g2, 128, access_mode::write));
      p[0] = 7;
      p[31] = 8;
      s.checkin(g2, 128, access_mode::write);
      EXPECT_FALSE(s.cache().has_dirty());
      EXPECT_EQ(at_home(g2), 7);
      EXPECT_EQ(at_home(g2 + 124), 8);
      EXPECT_EQ(st.write_through_bytes, 256u);

      // The span's checkout memoized block 3.
      const int v = 9;
      EXPECT_TRUE(s.put_fast(&v, g2 + 128, sizeof v));
      EXPECT_EQ(at_home(g2 + 128), 9);
      EXPECT_EQ(st.write_through_bytes, 256u + sizeof v);
      EXPECT_FALSE(s.cache().has_dirty());
      const auto noop = st.releases_noop;
      s.release();
      EXPECT_EQ(st.releases_noop, noop + 1);
      EXPECT_EQ(st.written_back_bytes, 0u);
    }
    s.barrier();
  });
}

TEST(Cache, AcquireInvalidatesStaleData) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;  // homes on rank 1
    if (r == 0) {
      // Populate cache with the initial (zero) contents.
      auto* p = static_cast<const int*>(s.checkout(g1, 64, access_mode::read));
      EXPECT_EQ(p[0], 0);
      s.checkin(g1, 64, access_mode::read);
    }
    s.barrier();  // rank 1 writes after this
    if (r == 1) {
      auto* p = static_cast<int*>(s.checkout(g1, 64, access_mode::read_write));
      p[0] = 99;
      s.checkin(g1, 64, access_mode::read_write);
      // Home write is direct (rank 1 owns it): no release needed here.
    }
    s.barrier();  // includes release+acquire
    if (r == 0) {
      auto* p = static_cast<const int*>(s.checkout(g1, 64, access_mode::read));
      EXPECT_EQ(p[0], 99);  // stale cache was invalidated and refetched
      s.checkin(g1, 64, access_mode::read);
    }
  });
}

TEST(Cache, DirtyDataSurvivesRefetchOfSameBlock) {
  // A dirty byte range must not be overwritten when the surrounding block
  // is fetched later (Fig. 4 line 19: already-valid regions are excluded
  // from the fetch).
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;
    if (r == 0) {
      // Dirty a small piece in write mode (no fetch).
      auto* p = static_cast<int*>(s.checkout(g1, 8, access_mode::write));
      p[0] = 123;
      p[1] = 456;
      s.checkin(g1, 8, access_mode::write);
      // Now read a larger range covering the dirty piece.
      auto* q = static_cast<const int*>(s.checkout(g1, 4096, access_mode::read));
      EXPECT_EQ(q[0], 123);
      EXPECT_EQ(q[1], 456);
      EXPECT_EQ(q[2], 0);  // rest fetched from home
      s.checkin(g1, 4096, access_mode::read);
    }
    s.barrier();
  });
}

TEST(Cache, LruEvictionOnSweep) {
  auto o = remote_opts();
  o.prefetch = false;  // the demand fetches' evictions
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    // Cache is 16 blocks of 4 KiB; sweep a 48-block remote region.
    const std::size_t n_blocks = 48;
    auto g = s.heap().coll_alloc(2 * n_blocks * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      for (std::size_t j = 0; j < n_blocks; j++) {
        auto gj = g + (2 * j + 1) * 4096;  // odd blocks home on rank 1
        s.checkout(gj, 4096, access_mode::read);
        s.checkin(gj, 4096, access_mode::read);
      }
      EXPECT_GT(s.cache().get_stats().cache_evictions, 0u);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, n_blocks * 4096u);
    }
    s.barrier();
  });
}

TEST(Cache, TooMuchCheckoutThrows) {
  auto o = remote_opts();
  o.prefetch = false;  // the demand fetches' slot counts
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    // Request more than the 64 KiB cache in one checkout of remote memory.
    auto g = s.heap().coll_alloc(2 * 40 * 4096, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      // Second half homes on rank 1 (block policy): 40 remote blocks > 16.
      auto g_remote = g + 40 * 4096;
      EXPECT_THROW(s.checkout(g_remote, 40 * 4096, access_mode::read),
                   ic::too_much_checkout_error);
      // The failed checkout leaves no trace: it throws before its round's
      // maps are booked, so nothing is mapped, counted or charged.
      EXPECT_EQ(s.cache().ledger().mapped_runs(), 0u);
      EXPECT_EQ(s.cache().ledger().map_calls(), 0u);
      EXPECT_EQ(ityr::sim::current_engine().now(), 0x1.3514c036f2bbdp-16);
    }
    s.barrier();
  });
}

TEST(Cache, SingleBlockCheckoutsUseThePoolAddress) {
  // A checkout that lies in one block returns the block's bytes in its
  // pool's canonical mapping, whatever its mode: the rank's cache slot for a
  // remote block, the owner's home pool for an intra-node peer's block. The
  // host maps nothing into any view for them, so no view page is resident.
  for (const auto policy : {ic::cache_policy::write_back, ic::cache_policy::write_through}) {
    SCOPED_TRACE(ic::to_string(policy));
    auto o = it::tiny_opts(2, 2);  // ranks 0 and 1 share node 0, ranks 2 and 3 node 1
    o.policy = policy;
    std::vector<const ityr::vm::view_region*> views(4);
    it::run_pgas(o, [&](int r, ip::pgas_space& s) {
      auto g = s.heap().coll_alloc(4 * 4096, ic::dist_policy::block_cyclic);
      const auto peer = g + 4096 + 1024;        // block 1, homed on rank 1
      const auto remote = g + 2 * 4096 + 1024;  // block 2, homed on rank 2
      views[static_cast<std::size_t>(r)] = &s.cache().view();
      s.barrier();
      if (r == 0) {
        const auto home = s.heap().locate_block(s.heap().block_id_of(peer));
        const void* const peer_at = home.pool->at(home.pool_off + 1024);
        const void* remote_at = nullptr;
        int written = 0;  // the last stamp written to both blocks
        for (const auto mode : {access_mode::write, access_mode::read_write, access_mode::read}) {
          // Each mode first takes the generic path (an acquire drops every
          // front-table memo), then the front table's fast path.
          s.release();
          s.acquire();
          for (int pass = 0; pass < 2; pass++) {
            auto* p = static_cast<int*>(s.checkout(peer, 1024, mode));
            auto* q = static_cast<int*>(s.checkout(remote, 1024, mode));
            EXPECT_EQ(p, peer_at);
            if (remote_at == nullptr) remote_at = q;
            EXPECT_EQ(q, remote_at);
            if (mode == access_mode::read) {
              int wrong = 0;
              for (int i = 0; i < 256; i++) {
                wrong += p[i] != written * 1000 + i;
                wrong += q[i] != written * 1000 + i;
              }
              EXPECT_EQ(wrong, 0);
            } else {
              written++;
              for (int i = 0; i < 256; i++) p[i] = q[i] = written * 1000 + i;
            }
            s.checkin(remote, 1024, mode);
            s.checkin(peer, 1024, mode);
          }
        }
        // The remote block's address is in rank 0's cache pool, outside
        // every view, and no page of any view is resident.
        const auto remote_map = mapping_at(reinterpret_cast<std::uintptr_t>(remote_at));
        EXPECT_EQ(remote_map.name.rfind("/memfd:ityr-cache", 0), 0u) << remote_map.name;
        EXPECT_TRUE(resident_view_mappings(views).empty());
        EXPECT_EQ(s.cache().get_stats().fetched_bytes, 2 * 1024u);  // two acquires refetch
      }
      s.barrier();
      if (r == 1 || r == 2) {
        const auto mine = r == 1 ? peer : remote;
        auto* p = static_cast<const int*>(s.checkout(mine, 1024, access_mode::read));
        int wrong = 0;
        for (int i = 0; i < 256; i++) wrong += p[i] != 4000 + i;
        EXPECT_EQ(wrong, 0);
        s.checkin(mine, 1024, access_mode::read);
      }
      s.barrier();
    });
  }
}

TEST(Cache, SpanningCheckoutMapsItsBlocksIntoTheView) {
  // A checkout that spans blocks returns its view address: the host maps
  // exactly its blocks there, a home block and a cache block here, and its
  // checkin replaces both mappings with the PROT_NONE overlay. The model
  // keeps both blocks mapped until it evicts them: the cache block at the
  // sweep below, the home block not at all. Single-block checkouts in
  // between add no view mapping.
  for (const auto policy : {ic::cache_policy::write_back, ic::cache_policy::write_through}) {
    SCOPED_TRACE(ic::to_string(policy));
    auto o = remote_opts();
    o.policy = policy;
    std::vector<const ityr::vm::view_region*> views(2);
    it::run_pgas(o, [&](int r, ip::pgas_space& s) {
      const std::size_t n_blocks = 40;  // odd blocks home on rank 1
      auto g = s.heap().coll_alloc(n_blocks * 4096, ic::dist_policy::block_cyclic);
      views[static_cast<std::size_t>(r)] = &s.cache().view();
      s.barrier();
      if (r == 0) {
        const auto off = s.heap().view_off(g);
        const auto v0 = reinterpret_cast<std::uintptr_t>(s.cache().view().at(off));
        auto* p = static_cast<std::uint8_t*>(s.checkout(g, 2 * 4096, access_mode::write));
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p), v0);
        for (std::size_t i = 0; i < 2 * 4096; i++) p[i] = static_cast<std::uint8_t>(i % 251);
        // No ASSERT before the barrier on this rank: an early return would
        // leave rank 1 waiting there.
        const auto res = resident_view_mappings(views);
        EXPECT_EQ(res.size(), 2u);
        if (res.size() == 2) {
          EXPECT_EQ(res[0].lo, v0);
          EXPECT_EQ(res[0].hi, v0 + 4096);
          EXPECT_EQ(res[0].name.rfind("/memfd:ityr-coll-home", 0), 0u) << res[0].name;
          EXPECT_EQ(res[1].lo, v0 + 4096);
          EXPECT_EQ(res[1].hi, v0 + 2 * 4096);
          EXPECT_EQ(res[1].name.rfind("/memfd:ityr-cache", 0), 0u) << res[1].name;
        }
        s.checkin(g, 2 * 4096, access_mode::write);
        // The host's mappings are gone with the checkout; the model's stay.
        EXPECT_TRUE(resident_view_mappings(views).empty());
        EXPECT_FALSE(maps_a_pool(v0));
        EXPECT_FALSE(maps_a_pool(v0 + 4096));
        EXPECT_TRUE(s.cache().ledger().is_mapped(off, 2 * 4096));
        s.release();

        // Sweep the 16-block cache with other remote blocks: block 1 is the
        // least recently used and goes first.
        for (std::size_t j = 1; j < n_blocks / 2; j++) {
          const auto gj = g + (2 * j + 1) * 4096;
          s.checkout(gj, 4096, access_mode::read);
          s.checkin(gj, 4096, access_mode::read);
        }
        EXPECT_GT(s.cache().get_stats().cache_evictions, 0u);
        EXPECT_FALSE(s.cache().ledger().is_mapped(off + 4096, 4096));
        EXPECT_TRUE(s.cache().ledger().is_mapped(off, 4096));
        // The swept blocks were never mapped into the view.
        EXPECT_TRUE(resident_view_mappings(views).empty());
      }
      s.barrier();
      if (r == 1) {
        auto* p = static_cast<const std::uint8_t*>(s.checkout(g, 2 * 4096, access_mode::read));
        std::size_t wrong = 0;
        for (std::size_t i = 0; i < 2 * 4096; i++) wrong += p[i] != i % 251;
        EXPECT_EQ(wrong, 0u);
        s.checkin(g, 2 * 4096, access_mode::read);
      }
      s.barrier();
    });
  }
}

TEST(Cache, OverlappingSpanningCheckoutsShareTheViewMapping) {
  // Two spanning checkouts on one rank share two blocks, a cache block and a
  // home block. A shared block keeps its view mapping until the second
  // checkin; a block only the first checkout held loses it at the first.
  for (const auto policy : {ic::cache_policy::write_back, ic::cache_policy::write_through}) {
    SCOPED_TRACE(ic::to_string(policy));
    auto o = remote_opts();
    o.policy = policy;
    std::vector<const ityr::vm::view_region*> views(2);
    it::run_pgas(o, [&](int r, ip::pgas_space& s) {
      // Block-cyclic: even blocks home on rank 0, odd blocks on rank 1.
      auto g = s.heap().coll_alloc(8 * 4096, ic::dist_policy::block_cyclic);
      views[static_cast<std::size_t>(r)] = &s.cache().view();
      s.barrier();
      if (r == 0) {
        const auto v0 =
            reinterpret_cast<std::uintptr_t>(s.cache().view().at(s.heap().view_off(g)));
        const auto page = [&](std::size_t b) { return v0 + b * 4096; };
        // a holds blocks 0-2, b holds blocks 1-3.
        auto* a = static_cast<std::uint32_t*>(s.checkout(g, 3 * 4096, access_mode::read_write));
        auto* b = static_cast<std::uint32_t*>(
            s.checkout(g + 4096, 3 * 4096, access_mode::read_write));
        for (std::size_t k = 0; k < 2048; k++) a[1024 + k] = static_cast<std::uint32_t>(7 * k);
        std::size_t wrong = 0;
        for (std::size_t k = 0; k < 2048; k++) wrong += b[k] != 7 * k;
        EXPECT_EQ(wrong, 0u);
        for (std::size_t bl = 0; bl < 4; bl++) EXPECT_TRUE(maps_a_pool(page(bl))) << bl;

        s.checkin(g, 3 * 4096, access_mode::read_write);
        EXPECT_FALSE(maps_a_pool(page(0)));
        for (std::size_t bl = 1; bl < 4; bl++) EXPECT_TRUE(maps_a_pool(page(bl))) << bl;
        for (std::size_t k = 0; k < 2048; k++) b[k] += 1;
        wrong = 0;
        for (std::size_t k = 0; k < 2048; k++) wrong += b[k] != 7 * k + 1;
        EXPECT_EQ(wrong, 0u);

        s.checkin(g + 4096, 3 * 4096, access_mode::read_write);
        for (std::size_t bl = 0; bl < 4; bl++) EXPECT_FALSE(maps_a_pool(page(bl))) << bl;
        EXPECT_TRUE(resident_view_mappings(views).empty());
        EXPECT_TRUE(s.cache().ledger().is_mapped(s.heap().view_off(g), 4 * 4096));
        s.release();
      }
      s.barrier();
      if (r == 1) {
        // Rank 1 reads both shared blocks back: its own home block 1 and
        // block 2, which rank 0 holds.
        auto* p =
            static_cast<const std::uint32_t*>(s.checkout(g + 4096, 2 * 4096, access_mode::read));
        std::size_t wrong = 0;
        for (std::size_t k = 0; k < 2048; k++) wrong += p[k] != 7 * k + 1;
        EXPECT_EQ(wrong, 0u);
        s.checkin(g + 4096, 2 * 4096, access_mode::read);
      }
      s.barrier();
    });
  }
}

TEST(Cache, SpanningCheckinOfBlocksOutsideTheViewThrows) {
  // Two single-block checkouts do not make a spanning one: a checkin that
  // spans their blocks names no checkout's range (Section 3.3). It throws
  // before it releases anything, so the right checkins still succeed.
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      s.checkout(g, 4096, access_mode::read);
      s.checkout(g + 4096, 4096, access_mode::read);
      // Block 0 is a home block, block 1 a cache block.
      EXPECT_THROW(s.checkin(g, 2 * 4096, access_mode::read), ic::api_error);
      EXPECT_THROW(s.checkin(g + 4096, 2 * 4096, access_mode::read), ic::api_error);
      s.checkin(g + 4096, 4096, access_mode::read);
      s.checkin(g, 4096, access_mode::read);
      EXPECT_EQ(s.cache().checked_out_bytes(), 0u);
    }
    s.barrier();
  });
}

TEST(Cache, SingleBlockCheckinOfASpanningPinThrows) {
  // A block that only a spanning checkout holds is in the view; a checkin
  // of that block alone would unpin it under the mapping. Both the front
  // table's checkin and the generic one refuse it, for a home block and a
  // cache block alike, and the spanning checkin still succeeds afterwards.
  for (const std::size_t front : {std::size_t{0}, std::size_t{64}}) {
    SCOPED_TRACE(front == 0 ? "generic" : "front table");
    auto o = remote_opts();
    o.front_table_size = front;
    it::run_pgas(o, [&](int r, ip::pgas_space& s) {
      auto g = s.heap().coll_alloc(4 * 4096, ic::dist_policy::block_cyclic);
      s.barrier();
      if (r == 0) {
        const auto v1 = reinterpret_cast<std::uintptr_t>(
            s.cache().view().at(s.heap().view_off(g + 4096)));
        s.checkout(g, 2 * 4096, access_mode::read);
        EXPECT_THROW(s.checkin(g, 4096, access_mode::read), ic::api_error);
        EXPECT_THROW(s.checkin(g + 4096, 64, access_mode::read), ic::api_error);
        // A single-block checkout on top may be checked in, once.
        s.checkout(g + 4096, 64, access_mode::read);
        s.checkin(g + 4096, 64, access_mode::read);
        EXPECT_THROW(s.checkin(g + 4096, 64, access_mode::read), ic::api_error);
        EXPECT_TRUE(maps_a_pool(v1));
        s.checkin(g, 2 * 4096, access_mode::read);
        EXPECT_FALSE(maps_a_pool(v1));
        EXPECT_EQ(s.cache().checked_out_bytes(), 0u);
      }
      s.barrier();
    });
  }
}

TEST(Cache, PoolAndViewAddressesOfOneBlockStayCoherent) {
  // A block held through two checkouts at once has two host addresses: its
  // pool address (a checkout inside it) and its view address (a checkout
  // spanning it and the next block). Both map the same pages, so a write
  // through either reads back through the other, and the release publishes
  // both. With prefetch on, a stream first fills the block speculatively, at
  // its pool address, before the spanning checkout maps it.
  for (const auto policy : {ic::cache_policy::write_back, ic::cache_policy::write_back_lazy,
                            ic::cache_policy::write_through}) {
    for (const bool prefetch : {false, true}) {
      SCOPED_TRACE(std::string(ic::to_string(policy)) + (prefetch ? " prefetch" : ""));
      auto o = remote_opts();
      o.policy = policy;
      o.prefetch = prefetch;
      const bool lazy = policy == ic::cache_policy::write_back_lazy;
      ip::release_handler handler{};
      double watermark = 0;
      bool released = false;
      it::run_pgas(o, [&](int r, ip::pgas_space& s) {
        // Block distribution: blocks 0-7 home on rank 0, blocks 8-15 on rank 1.
        auto g = s.heap().coll_alloc(16 * 4096, ic::dist_policy::block);
        const auto blk = [&](std::size_t i) { return g + i * 4096; };
        const auto word = [](std::size_t b, std::size_t k) {
          return static_cast<std::uint32_t>(b * 10000 + k);
        };
        if (r == 1) {
          for (std::size_t b = 8; b < 16; b++) {
            auto* p = static_cast<std::uint32_t*>(s.checkout(blk(b), 4096, access_mode::write));
            for (std::size_t k = 0; k < 1024; k++) p[k] = word(b, k);
            s.checkin(blk(b), 4096, access_mode::write);
          }
        }
        s.barrier();
        if (r == 0) {
          const auto& st = s.cache().get_stats();
          if (prefetch) {
            // Two sequential sub-block misses confirm a forward stream, which
            // prefetches the rest of block 8 and all of block 9.
            for (std::size_t sub = 0; sub < 2; sub++) {
              s.checkout(blk(8) + sub * 1024, 1024, access_mode::read);
              s.checkin(blk(8) + sub * 1024, 1024, access_mode::read);
            }
          }
          const std::uint64_t useful0 = st.prefetch_useful_bytes;
          auto* view =
              static_cast<std::uint32_t*>(s.checkout(blk(9), 2 * 4096, access_mode::read_write));
          if (prefetch) {
            EXPECT_GE(st.prefetch_useful_bytes - useful0, 4096u);
          }
          auto* pool =
              static_cast<std::uint32_t*>(s.checkout(blk(9), 4096, access_mode::read_write));
          // No ASSERT on this rank: an early return would leave rank 1
          // waiting for the release.
          EXPECT_NE(pool, view);
          std::size_t wrong = 0;
          for (std::size_t k = 0; k < 1024; k++) {
            wrong += view[k] != word(9, k);
            wrong += pool[k] != word(9, k);
            wrong += view[1024 + k] != word(10, k);
          }
          EXPECT_EQ(wrong, 0u);
          pool[1] = 0xa1;
          EXPECT_EQ(view[1], 0xa1u);
          view[2] = 0xb2;
          EXPECT_EQ(pool[2], 0xb2u);
          view[1024 + 3] = 0xc3;
          s.checkin(blk(9), 4096, access_mode::read_write);
          s.checkin(blk(9), 2 * 4096, access_mode::read_write);
          if (lazy) {
            handler = s.release_lazy();
            released = true;
            // Serve the acquirer's write-back request (DoReleaseIfRequested).
            while (s.cache().has_dirty()) {
              ityr::sim::current_engine().advance(1e-6);
              s.poll();
            }
          } else {
            s.release();
            watermark = s.cache().visibility_watermark();
            released = true;
          }
        } else {
          while (!released) ityr::sim::current_engine().advance(1e-6);
          if (lazy) {
            s.acquire(handler);
          } else {
            s.acquire_watermark(watermark);
          }
          auto* p =
              static_cast<const std::uint32_t*>(s.checkout(blk(9), 2 * 4096, access_mode::read));
          EXPECT_EQ(p[0], word(9, 0));
          EXPECT_EQ(p[1], 0xa1u);
          EXPECT_EQ(p[2], 0xb2u);
          EXPECT_EQ(p[3], word(9, 3));
          EXPECT_EQ(p[1024 + 3], 0xc3u);
          EXPECT_EQ(p[1024 + 4], word(10, 4));
          s.checkin(blk(9), 2 * 4096, access_mode::read);
        }
        s.barrier();
      });
    }
  }
}

TEST(Cache, BarrierReturnsStaleCachePages) {
  // A barrier's acquire leaves no valid byte in a rank's cache, so a cache
  // with free slots gives its pool's pages back to the kernel there. The
  // pool stays mapped: the next checkout faults in a fresh page at the same
  // address and fetches the home's bytes into it. An acquire outside a
  // barrier keeps the pages after a sub-block's fetch and the barrier after
  // it still drops them; after a block's worth, the acquire drops them.
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    const auto g1 = g + 4096;  // homes on rank 1
    if (r == 1) {
      auto* p = static_cast<int*>(s.checkout(g1, 4096, access_mode::write));
      for (int i = 0; i < 1024; i++) p[i] = 3 * i + 1;
      s.checkin(g1, 4096, access_mode::write);
    }
    s.barrier();
    std::uintptr_t slot = 0;
    if (r == 0) {
      const auto* p = static_cast<const int*>(s.checkout(g1, 1024, access_mode::read));
      EXPECT_EQ(p[255], 3 * 255 + 1);
      s.checkin(g1, 1024, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 1024u);
      slot = reinterpret_cast<std::uintptr_t>(p);
      const auto pool = mapping_at(slot);
      EXPECT_EQ(pool.name.rfind("/memfd:ityr-cache", 0), 0u) << pool.name;
      EXPECT_EQ(pool.rss, 4096u);
      s.acquire();  // as a steal or a join would, after less than a block
      EXPECT_EQ(mapping_at(slot).rss, 4096u);
      EXPECT_EQ(s.cache().host_page_drops(), 0u);
    }
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), r == 0 ? 1u : 0u);
    if (r == 0) {
      EXPECT_EQ(mapping_at(slot).rss, 0u);
      const auto* p = static_cast<const int*>(s.checkout(g1, 4096, access_mode::read));
      EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p), slot);
      int wrong = 0;
      for (int i = 0; i < 1024; i++) wrong += p[i] != 3 * i + 1;
      EXPECT_EQ(wrong, 0);
      s.checkin(g1, 4096, access_mode::read);
      EXPECT_EQ(mapping_at(slot).rss, 4096u);
      s.acquire();  // a block's worth since the drop: the acquire drops
      EXPECT_EQ(s.cache().host_page_drops(), 2u);
      EXPECT_EQ(mapping_at(slot).rss, 0u);
    }
    s.barrier();  // nothing held since the acquire's drop
    EXPECT_EQ(s.cache().host_page_drops(), r == 0 ? 2u : 0u);
  });
}

TEST(Cache, FullCacheKeepsItsPagesAtBarrier) {
  // A full cache recycles its least recently used slot at the next miss,
  // which would rewrite the slot's pages at once: it keeps them at a barrier.
  auto o = remote_opts();
  o.cache_size = 2 * 4096;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(6 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    std::uintptr_t slot = 0;
    if (r == 0) {
      for (std::size_t j = 0; j < 3; j++) {
        const auto gj = g + (2 * j + 1) * 4096;  // odd blocks home on rank 1
        slot = reinterpret_cast<std::uintptr_t>(s.checkout(gj, 4096, access_mode::read));
        s.checkin(gj, 4096, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().cache_evictions, 1u);
      EXPECT_EQ(mapping_at(slot).rss, 2 * 4096u);
    }
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), 0u);
    if (r == 0) {
      EXPECT_EQ(mapping_at(slot).rss, 2 * 4096u);
    }
  });
}

TEST(Cache, BarrierWithoutCachedBytesDropsNothing) {
  // A rank drops its cache pages at a barrier only if some cache block held
  // bytes since its last drop: a rank that touched only home blocks drops
  // nothing, and neither does a barrier with nothing fetched since a drop.
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    const auto mine = g + static_cast<std::size_t>(r) * 4096;  // block r homes on rank r
    auto* p = static_cast<int*>(s.checkout(mine, 4096, access_mode::read_write));
    p[0] = r + 1;
    s.checkin(mine, 4096, access_mode::read_write);
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), 0u);
    if (r == 0) {
      const auto* q = static_cast<const int*>(s.checkout(g + 4096, 4096, access_mode::read));
      EXPECT_EQ(q[0], 2);
      s.checkin(g + 4096, 4096, access_mode::read);
    }
    s.barrier();
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), r == 0 ? 1u : 0u);
  });
}

TEST(Cache, AcquireDropsOnlyAfterABlockOfFetches) {
  // An acquire drops the cache pages once a block's worth of bytes was
  // fetched since the last drop, counted across acquires: three sub-blocks
  // keep them at the first acquire, a fourth makes the next one drop.
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      const auto g1 = g + 4096;  // odd blocks home on rank 1
      const auto g3 = g + 3 * 4096;
      const auto slot =
          reinterpret_cast<std::uintptr_t>(s.checkout(g1, 3 * 1024, access_mode::read));
      s.checkin(g1, 3 * 1024, access_mode::read);
      s.acquire_watermark(0.0);  // as a join would
      EXPECT_EQ(s.cache().host_page_drops(), 0u);
      EXPECT_EQ(mapping_at(slot).rss, 4096u);
      s.checkout(g3, 1024, access_mode::read);
      s.checkin(g3, 1024, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 4096u);
      s.acquire_watermark(0.0);
      EXPECT_EQ(s.cache().host_page_drops(), 1u);
      EXPECT_EQ(mapping_at(slot).rss, 0u);
    }
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), r == 0 ? 1u : 0u);
  });
}

TEST(Cache, AcquireCountsPrefetchedBytesTowardABlock) {
  // Prefetched bytes land in the pool too: two sub-blocks read in a row
  // start a stream, and its prefetches make up the block's worth.
  auto o = remote_opts();
  o.prefetch = true;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(16 * 4096, ic::dist_policy::block);  // 2nd half on rank 1
    s.barrier();
    if (r == 0) {
      for (std::size_t j = 0; j < 2; j++) {
        const auto gj = g + 8 * 4096 + j * 1024;
        s.checkout(gj, 1024, access_mode::read);
        s.checkin(gj, 1024, access_mode::read);
      }
      const auto& st = s.cache().get_stats();
      EXPECT_LT(st.fetched_bytes, 4096u);
      EXPECT_GE(st.fetched_bytes + st.prefetch_issued_bytes, 4096u);
      s.acquire();
      EXPECT_EQ(s.cache().host_page_drops(), 1u);
    }
  });
}

TEST(Cache, FullCacheKeepsItsPagesAtAcquire) {
  // A full cache would rewrite its pages at the next miss: an acquire keeps
  // them however much was fetched.
  auto o = remote_opts();
  o.cache_size = 2 * 4096;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(6 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      std::uintptr_t slot = 0;
      for (std::size_t j = 0; j < 3; j++) {
        const auto gj = g + (2 * j + 1) * 4096;  // odd blocks home on rank 1
        slot = reinterpret_cast<std::uintptr_t>(s.checkout(gj, 4096, access_mode::read));
        s.checkin(gj, 4096, access_mode::read);
      }
      EXPECT_EQ(s.cache().get_stats().cache_evictions, 1u);
      s.acquire();
      EXPECT_EQ(s.cache().host_page_drops(), 0u);
      EXPECT_EQ(mapping_at(slot).rss, 2 * 4096u);
    }
  });
}

TEST(Cache, HandlerAcquireDropsUnderAsyncRelease) {
  // A steal's acquire waits out the victim's lazy release handler, then
  // drops the thief's pages; under the asynchronous protocol too.
  auto o = remote_opts();
  o.async_release = true;
  ip::release_handler handler{};
  bool released = false;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<int*>(s.checkout(g, sizeof(int), access_mode::write));
      *p = 42;  // block 0 homes on rank 0: a dirty cache block
      s.checkin(g, sizeof(int), access_mode::write);
      handler = s.release_lazy();
      released = true;
      while (s.cache().has_dirty()) {
        ityr::sim::current_engine().advance(1e-6);
        s.poll();
      }
    } else {
      const auto slot =
          reinterpret_cast<std::uintptr_t>(s.checkout(g + 4096, 4096, access_mode::read));
      s.checkin(g + 4096, 4096, access_mode::read);
      EXPECT_EQ(mapping_at(slot).rss, 4096u);
      while (!released) ityr::sim::current_engine().advance(1e-6);
      s.acquire(handler);
      EXPECT_EQ(s.cache().host_page_drops(), 1u);
      EXPECT_EQ(mapping_at(slot).rss, 0u);
      const auto* q = static_cast<const int*>(s.checkout(g, sizeof(int), access_mode::read));
      EXPECT_EQ(*q, 42);
      s.checkin(g, sizeof(int), access_mode::read);
    }
    // Rank 0 held nothing since its drop; rank 1's written bytes were held,
    // though it fetched none, so its barrier drops.
    s.barrier();
    EXPECT_EQ(s.cache().host_page_drops(), 1u);
  });
}

TEST(Cache, RefCountPinsNestedCheckouts) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      auto g1 = g + 4096;
      // Two overlapping checkouts of the same region (allowed within one
      // process, Section 3.3).
      auto* p1 = static_cast<const int*>(s.checkout(g1, 512, access_mode::read));
      auto* p2 = static_cast<const int*>(s.checkout(g1 + 128, 128, access_mode::read));
      EXPECT_EQ(static_cast<const void*>(p1 + 32), static_cast<const void*>(p2));
      s.checkin(g1 + 128, 128, access_mode::read);
      EXPECT_EQ(p1[0], 0);  // still accessible: refcount held
      s.checkin(g1, 512, access_mode::read);
    }
    s.barrier();
  });
}

TEST(Cache, CheckinWithoutCheckoutThrows) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4096, ic::dist_policy::block);
    EXPECT_THROW(s.checkin(g, 64, access_mode::read), ic::api_error);
  });
}

TEST(Cache, CheckoutOutsideHeapThrows) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    EXPECT_THROW(s.checkout(1, 8, access_mode::read), ic::api_error);
  });
}

TEST(Cache, WriteBackThenEvictionPreservesData) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    const std::size_t n_blocks = 48;
    auto g = s.heap().coll_alloc(2 * n_blocks * 4096, ic::dist_policy::block_cyclic);
    if (r == 0) {
      // Dirty many remote blocks, forcing eviction-time write-backs.
      for (std::size_t j = 0; j < n_blocks; j++) {
        auto gj = g + (2 * j + 1) * 4096;
        auto* p = static_cast<std::uint32_t*>(s.checkout(gj, 4096, access_mode::write));
        for (int i = 0; i < 1024; i++) p[i] = static_cast<std::uint32_t>(j * 10000 + i);
        s.checkin(gj, 4096, access_mode::write);
      }
      s.release();
    }
    s.barrier();
    if (r == 1) {
      // All data must be at home now; verify via direct home access.
      for (std::size_t j = 0; j < n_blocks; j++) {
        auto gj = g + (2 * j + 1) * 4096;
        auto* p = static_cast<const std::uint32_t*>(s.checkout(gj, 4096, access_mode::read));
        for (int i = 0; i < 1024; i += 97) {
          ASSERT_EQ(p[i], static_cast<std::uint32_t>(j * 10000 + i));
        }
        s.checkin(gj, 4096, access_mode::read);
      }
    }
  });
}

TEST(Cache, IntraNodeHomeSharedWithoutFetch) {
  // 1 node x 2 ranks: rank 1's home blocks are mapped directly by rank 0.
  it::run_pgas(it::tiny_opts(1, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<int*>(s.checkout(g + 4096, 64, access_mode::write));
      p[0] = 31337;
      s.checkin(g + 4096, 64, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      auto* p = static_cast<const int*>(s.checkout(g + 4096, 64, access_mode::read));
      EXPECT_EQ(p[0], 31337);
      s.checkin(g + 4096, 64, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetched_bytes, 0u);  // zero-copy shm
    }
    s.barrier();
  });
}

TEST(Cache, HomeBlockMappingEvictionAndRemap) {
  auto o = it::tiny_opts(1, 1);
  o.max_map_entries = 40;  // tiny budget: home_mapped_limit floors at 64
  o.coll_heap_per_rank = 512 * ic::KiB;
  it::run_pgas(o, [&](int, ip::pgas_space& s) {
    EXPECT_GE(s.cache().home_mapped_limit(), 64u);
    const std::size_t sweep = s.cache().home_mapped_limit() + 16;
    auto g = s.heap().coll_alloc(sweep * 4096, ic::dist_policy::block);
    for (std::size_t j = 0; j < sweep; j++) {
      auto* p = static_cast<std::uint64_t*>(s.checkout(g + j * 4096, 8, access_mode::write));
      *p = j;
      s.checkin(g + j * 4096, 8, access_mode::write);
    }
    EXPECT_GT(s.cache().get_stats().home_evictions, 0u);
    // Re-read everything: evicted home blocks remap with data intact.
    for (std::size_t j = 0; j < sweep; j++) {
      auto* p = static_cast<const std::uint64_t*>(s.checkout(g + j * 4096, 8, access_mode::read));
      ASSERT_EQ(*p, j);
      s.checkin(g + j * 4096, 8, access_mode::read);
    }
  });
}

TEST(Cache, CheckoutSpansHomeAndRemoteBlocks) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    if (r == 0) {
      // One checkout spanning a local home block and a remote cached block:
      // the returned pointer must be contiguous across the boundary.
      auto* p = static_cast<std::uint8_t*>(s.checkout(g, 2 * 4096, access_mode::write));
      for (std::size_t i = 0; i < 2 * 4096; i++) p[i] = static_cast<std::uint8_t>(i % 251);
      s.checkin(g, 2 * 4096, access_mode::write);
      s.release();
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<const std::uint8_t*>(s.checkout(g, 2 * 4096, access_mode::read));
      for (std::size_t i = 0; i < 2 * 4096; i += 119) {
        ASSERT_EQ(p[i], static_cast<std::uint8_t>(i % 251));
      }
      s.checkin(g, 2 * 4096, access_mode::read);
    }
  });
}

TEST(Cache, GetPutBaselineRoundTrip) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4096 * sizeof(int) + 4096, ic::dist_policy::block_cyclic);
    if (r == 0) {
      std::vector<int> buf(4096);
      std::iota(buf.begin(), buf.end(), 1000);
      s.put(buf.data(), g + 100, buf.size() * sizeof(int));
    }
    s.barrier();
    if (r == 1) {
      std::vector<int> buf(4096, 0);
      s.get(g + 100, buf.data(), buf.size() * sizeof(int));
      for (int i = 0; i < 4096; i++) ASSERT_EQ(buf[i], 1000 + i);
    }
  });
}

TEST(Cache, NoncollectiveRemoteAccessWorks) {
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    static ip::gaddr_t shared = 0;
    if (r == 0) {
      shared = s.heap().alloc(64);
      auto* p = static_cast<std::uint64_t*>(s.checkout(shared, 8, access_mode::write));
      *p = 0xfeedface;
      s.checkin(shared, 8, access_mode::write);
      // Local home: already visible.
    }
    s.barrier();
    if (r == 1) {
      auto* p = static_cast<const std::uint64_t*>(s.checkout(shared, 8, access_mode::read));
      EXPECT_EQ(*p, 0xfeedfaceu);
      s.checkin(shared, 8, access_mode::read);
    }
    s.barrier();
  });
}
