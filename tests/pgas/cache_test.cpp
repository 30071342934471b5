#include "itoyori/pgas/cache_system.hpp"

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <string>
#include <vector>

#include "../support/fixture.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

/// 1 node x 2 ranks: rank 1's collective blocks are remote to rank 0 only if
/// they are on another node, so for cache-path tests use 2 nodes x 1 rank.
ityr::common::options remote_opts() { return it::tiny_opts(2, 1); }

/// One mapping of /proc/self/smaps: its address range, its name (a file,
/// "/memfd:<name> (deleted)", or empty) and its resident bytes.
struct smaps_mapping {
  std::uintptr_t lo;
  std::uintptr_t hi;
  std::string name;
  std::size_t rss;
};

std::vector<smaps_mapping> read_smaps() {
  std::ifstream smaps("/proc/self/smaps");
  std::vector<smaps_mapping> ms;
  std::string line;
  while (std::getline(smaps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    int name_at = 0;
    // A mapping's header line: "lo-hi perms offset dev inode [name]".
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %*s %*s %*s %*s %n", &lo, &hi,
                    &name_at) == 2) {
      ms.push_back({lo, hi, name_at > 0 ? line.substr(static_cast<std::size_t>(name_at)) : "", 0});
    } else if (!ms.empty() && line.rfind("Rss:", 0) == 0) {
      ms.back().rss = std::stoul(line.substr(4)) * 1024;  // "Rss:   4 kB"
    }
  }
  return ms;
}

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
  auto o = remote_opts();
  o.policy = ic::cache_policy::write_through;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;
    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g1, 128, access_mode::write));
      p[0] = 42;
      s.checkin(g1, 128, access_mode::write);
      EXPECT_FALSE(s.cache().has_dirty());
      auto home = s.heap().locate_block(s.heap().block_id_of(g1));
      EXPECT_EQ(*reinterpret_cast<const int*>(home.pool->at(home.pool_off)), 42);
      EXPECT_EQ(s.cache().get_stats().write_through_bytes, 128u);
      EXPECT_EQ(s.cache().get_stats().written_back_bytes, 0u);
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
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
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
  it::run_pgas(remote_opts(), [&](int r, ip::pgas_space& s) {
    // Request more than the 64 KiB cache in one checkout of remote memory.
    auto g = s.heap().coll_alloc(2 * 40 * 4096, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      // Second half homes on rank 1 (block policy): 40 remote blocks > 16.
      auto g_remote = g + 40 * 4096;
      EXPECT_THROW(s.checkout(g_remote, 40 * 4096, access_mode::read),
                   ic::too_much_checkout_error);
      // The failed checkout leaves no trace. The 16 blocks it mapped ahead
      // of their gets are unmapped again, and neither their maps nor their
      // unmaps are counted or charged: these are the values of the runtime
      // that mapped blocks only after a round's gets were issued.
      EXPECT_EQ(s.cache().view().mapped_runs(), 0u);
      EXPECT_EQ(s.cache().view().map_calls(), 0u);
      EXPECT_EQ(ityr::sim::current_engine().now(), 0x1.3514c036f2bbdp-16);
    }
    s.barrier();
  });
}

TEST(Cache, CachedPagesAreMappedOnlyInTheView) {
  // Fetches, write-backs and write-throughs move a cached page's bytes
  // through the rank's view, so the page has one CPU mapping: no page of the
  // cache pool's canonical mapping is resident.
  for (const auto policy : {ic::cache_policy::write_back, ic::cache_policy::write_through}) {
    SCOPED_TRACE(ic::to_string(policy));
    auto o = remote_opts();
    o.policy = policy;
    std::vector<const ityr::vm::view_region*> views(2);
    it::run_pgas(o, [&](int r, ip::pgas_space& s) {
      auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
      const auto sub = g + 4096 + 1024;  // the second sub-block of block 1, homed on rank 1
      views[static_cast<std::size_t>(r)] = &s.cache().view();
      s.barrier();
      if (r == 0) {
        auto* p = static_cast<int*>(s.checkout(sub, 1024, access_mode::read_write));
        for (int i = 0; i < 256; i++) p[i] = 3 * i;
        s.checkin(sub, 1024, access_mode::read_write);
        s.release();
        const auto& st = s.cache().get_stats();
        EXPECT_EQ(st.fetched_bytes, 1024u);
        EXPECT_EQ(st.written_back_bytes + st.write_through_bytes, 1024u);
        // A cache pool's mappings in a rank's view are the block mappings;
        // the one elsewhere is the pool's canonical mapping.
        const auto in_a_view = [&](const smaps_mapping& m) {
          for (const auto* v : views) {
            const auto base = reinterpret_cast<std::uintptr_t>(v->base());
            if (base <= m.lo && m.hi <= base + v->size()) return true;
          }
          return false;
        };
        const auto data = reinterpret_cast<std::uintptr_t>(s.cache().view_ptr(sub));
        std::size_t canonical = 0;
        std::size_t data_rss = 0;
        for (const auto& m : read_smaps()) {
          if (m.lo <= data && data < m.hi) data_rss = m.rss;
          if (m.name.rfind("/memfd:ityr-cache", 0) != 0 || in_a_view(m)) continue;
          canonical++;
          EXPECT_EQ(m.rss, 0u) << "canonical cache pool mapping at 0x" << std::hex << m.lo;
        }
        EXPECT_EQ(canonical, 2u);  // one cache pool per rank
        EXPECT_GT(data_rss, 0u);
      }
      s.barrier();
      if (r == 1) {
        s.acquire();
        auto* p = static_cast<const int*>(s.checkout(sub, 1024, access_mode::read));
        for (int i = 0; i < 256; i++) ASSERT_EQ(p[i], 3 * i);
        s.checkin(sub, 1024, access_mode::read);
      }
      s.barrier();
    });
  }
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
