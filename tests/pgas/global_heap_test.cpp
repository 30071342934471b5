#include "itoyori/pgas/global_heap.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/core/ityr.hpp"

namespace ip = ityr::pgas;
namespace it = ityr::test;

namespace {

struct alignas(64) cache_line {
  std::byte bytes[64];
};

}  // namespace

TEST(GlobalHeap, CollAllocReturnsSameAddressOnAllRanks) {
  std::vector<ip::gaddr_t> results(4, 0);
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    results[static_cast<std::size_t>(r)] =
        s.heap().coll_alloc(100 * 1024, ityr::common::dist_policy::block_cyclic);
  });
  EXPECT_NE(results[0], ip::null_gaddr);
  for (int r = 1; r < 4; r++) EXPECT_EQ(results[static_cast<std::size_t>(r)], results[0]);
}

TEST(GlobalHeap, BlockCyclicHomesRoundRobin) {
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = s.heap().block_size();
    auto g = s.heap().coll_alloc(bs * 8, ityr::common::dist_policy::block_cyclic);
    if (r == 0) {
      for (std::uint64_t j = 0; j < 8; j++) {
        auto home = s.heap().locate_block(s.heap().block_id_of(g + j * bs));
        EXPECT_EQ(home.rank, static_cast<int>(j % 4)) << "block " << j;
      }
      // Blocks of the same rank land at consecutive pool offsets.
      auto h0 = s.heap().locate_block(s.heap().block_id_of(g));
      auto h4 = s.heap().locate_block(s.heap().block_id_of(g + 4 * bs));
      EXPECT_EQ(h4.pool_off, h0.pool_off + bs);
    }
  });
}

TEST(GlobalHeap, BlockPolicyGivesContiguousHomes) {
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    const std::size_t bs = s.heap().block_size();
    auto g = s.heap().coll_alloc(bs * 8, ityr::common::dist_policy::block);
    if (r == 0) {
      // 8 blocks over 4 ranks -> 2 consecutive blocks per rank.
      for (std::uint64_t j = 0; j < 8; j++) {
        auto home = s.heap().locate_block(s.heap().block_id_of(g + j * bs));
        EXPECT_EQ(home.rank, static_cast<int>(j / 2)) << "block " << j;
      }
    }
  });
}

TEST(GlobalHeap, CollFreeAllowsReuse) {
  it::run_pgas(it::tiny_opts(), [&](int, ip::pgas_space& s) {
    auto g1 = s.heap().coll_alloc(64 * 1024, ityr::common::dist_policy::block_cyclic);
    s.heap().coll_free(g1);
    auto g2 = s.heap().coll_alloc(64 * 1024, ityr::common::dist_policy::block_cyclic);
    EXPECT_EQ(g1, g2);
    EXPECT_EQ(s.heap().live_coll_allocs(), 1u);
  });
}

TEST(GlobalHeap, LocateOutsideLiveAllocationThrows) {
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4096, ityr::common::dist_policy::block_cyclic);
    s.barrier();
    s.heap().coll_free(g);
    if (r == 0) {
      EXPECT_THROW(s.heap().locate_block(s.heap().block_id_of(g)), ityr::common::api_error);
    }
  });
}

TEST(GlobalHeap, NoncollectiveAllocIsHomeLocal) {
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().alloc(256);
    auto home = s.heap().locate_block(s.heap().block_id_of(g));
    EXPECT_EQ(home.rank, r);
  });
}

TEST(GlobalHeap, NoncollectiveDistinctAcrossRanks) {
  std::vector<ip::gaddr_t> gs(4, 0);
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    gs[static_cast<std::size_t>(r)] = s.heap().alloc(128);
  });
  std::set<ip::gaddr_t> uniq(gs.begin(), gs.end());
  EXPECT_EQ(uniq.size(), 4u);
}

TEST(GlobalHeap, RemoteFreeReclaimedAtOwnerPoll) {
  it::run_pgas(it::tiny_opts(1, 2), [&](int r, ip::pgas_space& s) {
    static ip::gaddr_t shared_g = 0;
    if (r == 0) {
      shared_g = s.heap().alloc(1024);
      s.barrier();
      s.barrier();  // wait for rank 1's free
      EXPECT_GT(s.heap().nc_bytes_in_use(0), 0u);
      s.heap().poll();
      EXPECT_EQ(s.heap().nc_bytes_in_use(0), 0u);
    } else {
      s.barrier();
      s.heap().free(shared_g, 1024);  // remote free
      s.barrier();
    }
  });
}

TEST(GlobalHeap, NoncollectiveExhaustionThrows) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    // Segment is 128 KiB; allocate beyond it.
    EXPECT_THROW(
        {
          for (int i = 0; i < 4096; i++) s.heap().alloc(1024);
        },
        ityr::common::resource_error);
    // A size whose rounding to whole quanta would wrap.
    EXPECT_THROW(s.heap().alloc(SIZE_MAX), ityr::common::resource_error);
  });
}

TEST(GlobalHeap, CollectiveExhaustionThrows) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    EXPECT_THROW(s.heap().coll_alloc(1 << 30, ityr::common::dist_policy::block_cyclic),
                 ityr::common::resource_error);
    // A size whose rounding to whole blocks would wrap.
    EXPECT_THROW(s.heap().coll_alloc(SIZE_MAX, ityr::common::dist_policy::block_cyclic),
                 ityr::common::resource_error);
  });
}

TEST(GlobalHeap, GaddrViewRoundTrip) {
  it::run_pgas(it::tiny_opts(), [&](int r, ip::pgas_space& s) {
    if (r != 0) return;
    auto g = s.heap().coll_alloc(4096, ityr::common::dist_policy::block);
    EXPECT_EQ(s.heap().gaddr_of_view(s.heap().view_off(g)), g);
    EXPECT_TRUE(s.heap().in_heap(g, 4096));
    EXPECT_FALSE(s.heap().in_heap(0, 1));
  });
}

TEST(GlobalHeap, NoncollectiveAllocationDoesNotFragment) {
  // Regression: odd-sized allocations must consume whole alignment quanta,
  // otherwise every allocation strands a dead sub-quantum fragment and
  // first-fit degrades to O(allocations^2).
  auto o = it::tiny_opts(1, 1);
  o.noncoll_heap_per_rank = 4 * ityr::common::MiB;
  it::run_pgas(o, [&](int, ip::pgas_space& s) {
    std::vector<ip::gaddr_t> live;
    for (int i = 0; i < 5000; i++) live.push_back(s.heap().alloc(40));  // not a multiple of 64
    EXPECT_LE(s.heap().nc_fragments(0), 4u);
    for (auto g : live) s.heap().free(g, 40);
    EXPECT_EQ(s.heap().nc_bytes_in_use(0), 0u);
    EXPECT_EQ(s.heap().nc_fragments(0), 1u);  // fully coalesced
  });
}

TEST(GlobalHeap, NoncollectiveAllocationsPackAtMallocGranularity) {
  // A 40-byte object takes three 16-byte quanta, so its successor starts
  // 48 bytes on, not a whole cache line on.
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    const ip::gaddr_t a = s.heap().alloc(40);
    const ip::gaddr_t b = s.heap().alloc(40);
    EXPECT_EQ(a % 16, 0u);
    EXPECT_EQ(b - a, 48u);
    EXPECT_EQ(s.heap().nc_bytes_in_use(0), 96u);
  });
}

TEST(GlobalHeap, NoncollectiveNewHonoursOveralignedTypes) {
  // noncoll_new passes alignof(T): after a 16-byte object, an alignas(64)
  // object skips to the next 64-byte boundary, and the skipped quanta stay
  // free for the next small object.
  ityr::runtime rt(it::tiny_opts(1, 1));
  rt.spmd([] {
    const auto small = ityr::noncoll_new<std::byte>(16);
    const auto line = ityr::noncoll_new<cache_line>();
    const auto filler = ityr::noncoll_new<std::byte>(16);
    EXPECT_EQ(line.raw() % 64, 0u);
    EXPECT_EQ(line.raw() - small.raw(), 64u);
    EXPECT_EQ(filler.raw() - small.raw(), 16u);
    ityr::noncoll_delete(filler, 16);
    ityr::noncoll_delete(line);
    ityr::noncoll_delete(small, 16);
    EXPECT_EQ(ityr::rt().pgas().heap().nc_bytes_in_use(0), 0u);
    EXPECT_EQ(ityr::rt().pgas().heap().nc_fragments(0), 1u);
  });
}

TEST(GlobalHeap, DeleteMustNameOneLiveAllocation) {
  // A delete whose size reaches into a live neighbour throws and frees
  // nothing: the next allocations do not hand the neighbour out again. So
  // do a size short of the allocation, an interior pointer, a null or
  // collective pointer and a double delete.
  ityr::runtime rt(it::tiny_opts(1, 1));
  rt.spmd([] {
    const auto a = ityr::noncoll_new<int>(4);
    const auto b = ityr::noncoll_new<int>(4);
    ASSERT_EQ(b.raw() - a.raw(), 16u);
    EXPECT_THROW(ityr::noncoll_delete(a, 8), ityr::common::api_error);
    const auto c = ityr::noncoll_new<int>(4);
    const auto d = ityr::noncoll_new<int>(4);
    for (const auto p : {c.raw(), d.raw()}) {
      EXPECT_NE(p, a.raw());
      EXPECT_NE(p, b.raw());
    }
    const auto wide = ityr::noncoll_new<std::byte>(48);
    EXPECT_THROW(ityr::noncoll_delete(wide, 16), ityr::common::api_error);
    EXPECT_THROW(ityr::noncoll_delete(wide + 16, 32), ityr::common::api_error);
    EXPECT_THROW(ityr::noncoll_delete(ityr::global_ptr<int>{}, 4), ityr::common::api_error);
    const auto coll = ityr::coll_new<int>(4);  // not a noncollective allocation
    EXPECT_THROW(ityr::noncoll_delete(coll, 4), ityr::common::api_error);
    ityr::coll_delete(coll, 4);
    ityr::noncoll_delete(wide, 48);
    ityr::noncoll_delete(a, 4);
    EXPECT_THROW(ityr::noncoll_delete(a, 4), ityr::common::api_error);
    ityr::noncoll_delete(b, 1);  // 4 bytes take the same 16-byte quantum
    ityr::noncoll_delete(c, 4);
    ityr::noncoll_delete(d, 4);
    EXPECT_EQ(ityr::rt().pgas().heap().nc_bytes_in_use(0), 0u);
  });
}

TEST(GlobalHeap, RemoteDeleteIsCheckedAtTheCall) {
  // Rank 1 deletes rank 0's allocation: a wrong size throws on rank 1, and
  // a second delete throws before rank 0 has drained the first.
  it::run_pgas(it::tiny_opts(1, 2), [&](int r, ip::pgas_space& s) {
    static ip::gaddr_t shared_g = 0;
    if (r == 0) shared_g = s.heap().alloc(64);
    s.barrier();
    if (r == 1) {
      EXPECT_THROW(s.heap().free(shared_g, 80), ityr::common::api_error);
      s.heap().free(shared_g, 64);
      EXPECT_THROW(s.heap().free(shared_g, 64), ityr::common::api_error);
    }
    s.barrier();
    if (r == 0) {
      EXPECT_EQ(s.heap().nc_bytes_in_use(0), 64u);
      s.heap().poll();
      EXPECT_EQ(s.heap().nc_bytes_in_use(0), 0u);
    }
  });
}
