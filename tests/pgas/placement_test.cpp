#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <random>

#include "../support/fixture.hpp"
#include "itoyori/pgas/placement.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

// Exercises of the dynamic data-placement engine (ITYR_MIGRATION /
// ITYR_REPLICATION): home migration with the forwarding generation,
// per-node read-only replication with invalidation-on-write, and the
// migration-on/off determinism contract.

namespace {

/// tiny_opts with placement features switched on and thresholds lowered so a
/// single block's traffic crosses them.
ityr::common::options placement_opts(int nodes = 2, int rpn = 2) {
  auto o = it::tiny_opts(nodes, rpn);
  o.migration = true;
  o.replication = true;
  o.placement_interval = 1.0e-4;
  o.migration_min_bytes = 1;
  o.migration_share = 0.5;
  o.migration_pool_blocks = 8;
  o.replication_min_bytes = 1;
  o.replication_min_readers = 2;
  o.replication_pool_blocks = 8;
  return o;
}

constexpr std::size_t kBlock = 4096;  // tiny_opts block size

void fill_block(ip::pgas_space& s, ip::gaddr_t g, std::uint32_t tag) {
  auto* p = static_cast<std::uint32_t*>(s.checkout(g, kBlock, access_mode::write));
  for (std::size_t i = 0; i < kBlock / 4; i++) p[i] = tag + static_cast<std::uint32_t>(i);
  s.checkin(g, kBlock, access_mode::write);
}

void expect_block(ip::pgas_space& s, ip::gaddr_t g, std::uint32_t tag) {
  auto* p = static_cast<const std::uint32_t*>(s.checkout(g, kBlock, access_mode::read));
  for (std::size_t i = 0; i < kBlock / 4; i++) {
    ASSERT_EQ(p[i], tag + static_cast<std::uint32_t>(i)) << "word " << i;
  }
  s.checkin(g, kBlock, access_mode::read);
}

}  // namespace

TEST(Placement, DisabledMeansNoEngine) {
  it::run_pgas(it::tiny_opts(2, 2), [&](int, ip::pgas_space& s) {
    EXPECT_EQ(s.placement(), nullptr);
    s.placement_poll();  // must be a no-op, not a crash
  });
}

TEST(Placement, RequestMigrationMovesHomeAndData) {
  it::run_pgas(placement_opts(2, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBlock, ic::dist_policy::block);  // homed rank 0
    const auto mb = s.heap().block_id_of(g);
    ASSERT_NE(s.placement(), nullptr);
    EXPECT_EQ(s.heap().locate_block(mb).rank, 0);

    if (r == 0) fill_block(s, g, 0xA000);
    s.barrier();

    if (r == 0) {
      EXPECT_TRUE(s.placement()->request_migration(mb, 2));
      EXPECT_EQ(s.placement()->stats().migrations, 1u);
      EXPECT_EQ(s.placement()->stats().migration_bytes, kBlock);
      EXPECT_EQ(s.placement()->n_overrides(), 1u);
    }
    s.barrier();

    // Every rank resolves the new home, with a bumped forwarding generation.
    const auto h = s.heap().locate_block(mb);
    EXPECT_EQ(h.rank, 2);
    EXPECT_GT(h.gen, 0u);
    // The data followed the home: a remote reader and the new owner (home
    // path) both observe the original values.
    if (r == 3 || r == 2) expect_block(s, g, 0xA000);
    s.barrier();
  });
}

TEST(Placement, UnmigrationRestoresBaseHomeAndFreesSlot) {
  it::run_pgas(placement_opts(2, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBlock, ic::dist_policy::block);
    const auto mb = s.heap().block_id_of(g);
    if (r == 0) fill_block(s, g, 0xB000);
    s.barrier();
    if (r == 0) {
      EXPECT_TRUE(s.placement()->request_migration(mb, 3));
      EXPECT_EQ(s.heap().locate_block(mb).rank, 3);
      const auto gen1 = s.heap().locate_block(mb).gen;
      // Migrating back to the allocation-time owner releases the pool slot
      // (no override record) but keeps the generation monotone.
      EXPECT_TRUE(s.placement()->request_migration(mb, 0));
      EXPECT_EQ(s.placement()->n_overrides(), 0u);
      const auto h = s.heap().locate_block(mb);
      EXPECT_EQ(h.rank, 0);
      EXPECT_GT(h.gen, gen1);
    }
    s.barrier();
    if (r == 1) expect_block(s, g, 0xB000);
    s.barrier();
  });
}

TEST(Placement, PinnedOrDirtyBlockRefusesMigration) {
  it::run_pgas(placement_opts(2, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * kBlock, ic::dist_policy::block_cyclic);
    const auto mb1 = s.heap().block_id_of(g + kBlock);  // homed rank 1 (node 0)
    s.barrier();
    if (r == 2) {
      // Writer on node 1: the cross-node home forces the cache path (a
      // same-node writer would write the home bytes directly — never dirty).
      // Pinned: checked out somewhere.
      auto* p = static_cast<std::uint32_t*>(s.checkout(g + kBlock, 64, access_mode::write));
      p[0] = 7;
      EXPECT_FALSE(s.placement()->request_migration(mb1, 3));
      EXPECT_EQ(s.placement()->stats().migrations_skipped, 1u);
      s.checkin(g + kBlock, 64, access_mode::write);
      // Dirty: checked in but not yet released (write-back policy).
      EXPECT_FALSE(s.placement()->request_migration(mb1, 3));
      EXPECT_EQ(s.placement()->stats().migrations_skipped, 2u);
      s.release();
      // Clean and unpinned: the home may move now.
      EXPECT_TRUE(s.placement()->request_migration(mb1, 3));
    }
    s.barrier();
  });
}

TEST(Placement, DirtyHomeMigratedBetweenReleaseAndAcquire) {
  // The acceptance scenario: a writer releases, the (previously dirtied)
  // block's home migrates, and a stealing rank's acquire still observes the
  // written values at the new home.
  it::run_pgas(placement_opts(2, 2), [&](int r, ip::pgas_space& s) {
    static bool migrated = false;
    auto g = s.heap().coll_alloc(2 * kBlock, ic::dist_policy::block_cyclic);
    const auto g1 = g + kBlock;  // homed rank 1 (node 0)
    const auto mb1 = s.heap().block_id_of(g1);

    if (r == 2) {
      // Writer on node 1: dirty the cross-node block, release (write-back to
      // rank 1), then migrate its home onto this node.
      fill_block(s, g1, 0xC000);
      EXPECT_TRUE(s.cache_of(2).has_dirty());
      s.release();
      EXPECT_TRUE(s.placement()->request_migration(mb1, 3));
      migrated = true;
    } else if (r == 0) {
      // Thief: acquire after the migration and read through the new home.
      while (!migrated) ityr::sim::current_engine().advance(1e-6);
      s.acquire();
      EXPECT_EQ(s.heap().locate_block(mb1).rank, 3);
      expect_block(s, g1, 0xC000);
    }
    s.barrier();
  });
}

TEST(Placement, PoolExhaustionRefusesMigration) {
  auto o = placement_opts(2, 2);
  o.migration_pool_blocks = 1;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4 * kBlock, ic::dist_policy::block);  // all homed rank 0
    s.barrier();
    if (r == 0) {
      EXPECT_TRUE(s.placement()->request_migration(s.heap().block_id_of(g), 2));
      // Rank 2's single pool slot is taken; the next candidate is refused.
      EXPECT_FALSE(s.placement()->request_migration(s.heap().block_id_of(g + kBlock), 2));
      EXPECT_GE(s.placement()->stats().pool_full_skips, 1u);
      // A different target still has space.
      EXPECT_TRUE(s.placement()->request_migration(s.heap().block_id_of(g + kBlock), 3));
    }
    s.barrier();
  });
}

TEST(Placement, PassMigratesToDominantConsumer) {
  it::run_pgas(placement_opts(2, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBlock, ic::dist_policy::block);  // homed rank 0
    const auto mb = s.heap().block_id_of(g);
    if (r == 0) fill_block(s, g, 0xD000);
    s.barrier();

    // Rank 2 dominates the block's miss traffic: write-heavy rounds whose
    // write-backs (plus refetches) feed the Misra-Gries candidate.
    for (int round = 0; round < 3; round++) {
      if (r == 2) {
        auto* p = static_cast<std::uint32_t*>(s.checkout(g, kBlock, access_mode::read_write));
        for (std::size_t i = 0; i < kBlock / 4; i++) p[i] ^= 0x5A5A5A5Au;
        s.checkin(g, kBlock, access_mode::read_write);
        s.release();
      }
      s.barrier();
    }

    if (r == 2) {
      ityr::sim::current_engine().advance(10 * 1.0e-4);
      s.poll();  // crosses the pass deadline
      EXPECT_GE(s.placement()->stats().passes, 1u);
      EXPECT_EQ(s.placement()->stats().migrations, 1u);
      EXPECT_EQ(s.heap().locate_block(mb).rank, 2);
    }
    s.barrier();
    // Data correct everywhere after the autonomous move (3 XOR rounds).
    if (r == 1) {
      s.acquire();
      auto* p = static_cast<const std::uint32_t*>(s.checkout(g, kBlock, access_mode::read));
      for (std::size_t i = 0; i < kBlock / 4; i++) {
        ASSERT_EQ(p[i], (0xD000 + static_cast<std::uint32_t>(i)) ^ 0x5A5A5A5Au);
      }
      s.checkin(g, kBlock, access_mode::read);
    }
    s.barrier();
  });
}

TEST(Placement, ReadMostlyBlockReplicatedAndInvalidatedOnWrite) {
  // 3 nodes x 2 ranks: owner on node 0, readers on nodes 1 and 2.
  it::run_pgas(placement_opts(3, 2), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBlock, ic::dist_policy::block);  // homed rank 0
    if (r == 0) fill_block(s, g, 0xE000);
    s.barrier();

    // Two reader nodes fetch the whole block (the barrier acquire already
    // invalidated their caches).
    if (r == 2 || r == 4) expect_block(s, g, 0xE000);
    s.barrier();

    if (r == 0) {
      ityr::sim::current_engine().advance(10 * 1.0e-4);
      s.poll();
      EXPECT_GE(s.placement()->stats().replicas, 2u);
      EXPECT_EQ(s.placement()->n_replica_copies(), 2u);
      EXPECT_EQ(s.placement()->stats().migrations, 0u);  // mutually exclusive
    }
    s.barrier();

    // Refetches are now served by the reader's node replica: intra-node
    // traffic, counted both as replica bytes and as bytes saved vs the base
    // home's distance class.
    if (r == 2 || r == 4) {
      expect_block(s, g, 0xE000);
      EXPECT_GE(s.cache_of(r).get_stats().replica_fetch_bytes, kBlock);
      std::uint64_t saved = 0;
      for (int c = 0; c < ip::cache_stats::max_stall_classes; c++) {
        saved += s.placement()->bytes_saved_of(r, c);
      }
      EXPECT_GE(saved, kBlock);
    }
    s.barrier();

    // A write intent kills every copy before its bytes can be fetched again.
    if (r == 0) {
      fill_block(s, g, 0xF000);
      EXPECT_EQ(s.placement()->n_replica_copies(), 0u);
      EXPECT_GE(s.placement()->stats().replica_invalidations, 2u);
      s.release();
    }
    s.barrier();
    if (r == 2 || r == 4) expect_block(s, g, 0xF000);  // fresh values, from the home
    s.barrier();
  });
}

TEST(Placement, MigrationUnderInflightPrefetchStreamIsSafe) {
  auto o = placement_opts(2, 1);
  o.prefetch = true;
  o.cache_size = 256 * ic::KiB;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    // 16 blocks on rank 0, 16 on rank 1; rank 0 streams through rank 1's
    // half so the prefetcher runs ahead with in-flight segments.
    auto g = s.heap().coll_alloc(32 * kBlock, ic::dist_policy::block);
    if (r == 1) {
      for (int b = 16; b < 32; b++) fill_block(s, g + b * kBlock, 0x1000 * b);
    }
    s.barrier();
    if (r == 0) {
      for (int b = 16; b < 32; b++) {
        if (b == 24) {
          // Mid-stream, migrate a block the prefetcher is likely ahead on:
          // its directory record (including any unretired prefetch segments)
          // must be dropped, never fetched from the old home.
          const auto mb = s.heap().block_id_of(g + 28 * kBlock);
          EXPECT_TRUE(s.placement()->request_migration(mb, 0));
        }
        expect_block(s, g + b * kBlock, 0x1000 * b);
      }
      EXPECT_GT(s.cache_of(0).get_stats().prefetch_issued, 0u);
      // The stale-home forwarding retry is defensive: migration purges every
      // record up front, so the stream must never have followed an old home.
      EXPECT_EQ(s.cache_of(0).get_stats().forward_retries, 0u);
    }
    s.barrier();
  });
}

TEST(Placement, HotBlockExportRanksByFetchBytes) {
  auto o = it::tiny_opts(2, 2);
  o.hot_blocks_topn = 4;  // export alone: no migration, no replication
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(4 * kBlock, ic::dist_policy::block_cyclic);
    ASSERT_NE(s.placement(), nullptr);
    EXPECT_FALSE(s.placement()->migration_enabled());
    EXPECT_FALSE(s.placement()->replication_enabled());
    s.barrier();
    if (r == 2) {
      // Block 1 (homed rank 1) fetched twice, block 0 once.
      auto touch = [&](ip::gaddr_t a, std::size_t n) {
        auto* p = static_cast<const std::uint8_t*>(s.checkout(a, n, access_mode::read));
        (void)p;
        s.checkin(a, n, access_mode::read);
      };
      touch(g + kBlock, kBlock);
      s.acquire();
      touch(g + kBlock, kBlock);
      touch(g, 64);
    }
    s.barrier();
    if (r == 0) {
      const auto hot = s.placement()->hottest(4);
      ASSERT_GE(hot.size(), 2u);
      EXPECT_EQ(hot[0].mb_id, s.heap().block_id_of(g + kBlock));
      EXPECT_EQ(hot[0].owner, 1);
      EXPECT_EQ(hot[0].reader_mask & (1u << 2), 1u << 2);
      EXPECT_GE(hot[0].fetch_bytes, 2 * kBlock);
      EXPECT_GE(hot[0].fetch_bytes, hot[1].fetch_bytes);  // sorted desc
    }
    s.barrier();
  });
}

namespace {

/// A small skewed-ownership workload: ranks 2/3 concentrate their writes on
/// the first two blocks (homed on node 0), everyone reads scattered words.
/// Returns an FNV-1a digest of the final array contents.
std::uint64_t run_differential_workload(bool placement_on, unsigned seed) {
  auto o = it::tiny_opts(2, 2);
  if (placement_on) {
    o.migration = true;
    o.replication = true;
    o.placement_interval = 5.0e-5;
    o.migration_min_bytes = 1;
    o.replication_min_bytes = 1;
    o.migration_pool_blocks = 16;
    o.replication_pool_blocks = 16;
  }
  constexpr int kBlocks = 16;
  constexpr std::size_t kWords = kBlocks * kBlock / 8;
  static std::uint64_t digest;
  digest = 0;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBlocks * kBlock, ic::dist_policy::block_cyclic);
    std::mt19937_64 rng(seed * 1315423911u + static_cast<unsigned>(r) * 2654435761u);
    for (int iter = 0; iter < 12; iter++) {
      s.barrier();
      // Write phase: word indices with residue r (disjoint across ranks).
      for (int k = 0; k < 6; k++) {
        const std::uint64_t idx =
            r >= 2 ? (rng() % (kBlock / 16)) * 4 + static_cast<std::uint64_t>(r)  // blocks 0/1
                   : (rng() % (kWords / 4)) * 4 + static_cast<std::uint64_t>(r);
        const std::uint64_t v = rng();
        auto* p = static_cast<std::uint64_t*>(s.checkout(g + idx * 8, 8, access_mode::write));
        p[0] = v;
        s.checkin(g + idx * 8, 8, access_mode::write);
      }
      s.barrier();
      // Read phase: anything goes (no writes are concurrent).
      for (int k = 0; k < 4; k++) {
        const std::uint64_t idx = rng() % kWords;
        auto* p =
            static_cast<const std::uint64_t*>(s.checkout(g + idx * 8, 8, access_mode::read));
        (void)p[0];
        s.checkin(g + idx * 8, 8, access_mode::read);
      }
      s.barrier();
      if (r == (iter & 3)) {
        ityr::sim::current_engine().advance(2.0e-4);
        s.poll();  // placement pass when on; harmless when off
      }
    }
    s.barrier();
    if (r == 0) {
      std::uint64_t h = 1469598103934665603ull;
      for (int b = 0; b < kBlocks; b++) {
        auto* p = static_cast<const std::uint8_t*>(
            s.checkout(g + b * kBlock, kBlock, access_mode::read));
        for (std::size_t i = 0; i < kBlock; i++) {
          h = (h ^ p[i]) * 1099511628211ull;
        }
        s.checkin(g + b * kBlock, kBlock, access_mode::read);
      }
      digest = h;
    }
    s.barrier();
  });
  return digest;
}

}  // namespace

TEST(Placement, MigrationOnOffChecksumDifferential) {
  // Placement moves bytes around but must never change program-visible
  // values: ten seeds, identical digests with the engine off and on.
  for (unsigned seed = 0; seed < 10; seed++) {
    const std::uint64_t off = run_differential_workload(false, seed);
    const std::uint64_t on = run_differential_workload(true, seed);
    EXPECT_EQ(off, on) << "seed " << seed;
  }
}
