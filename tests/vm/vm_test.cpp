#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "itoyori/vm/physical_pool.hpp"
#include "itoyori/vm/view_region.hpp"

namespace iv = ityr::vm;

namespace {
constexpr std::size_t kBlk = 64 * 1024;

/// The permissions ("rw-s", "---p", ...) of the mapping of /proc/self/maps
/// that holds `p`, or "" if none does.
std::string perms_at(const std::byte* p) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream maps("/proc/self/maps");
  std::string line;
  while (std::getline(maps, line)) {
    std::uintptr_t lo = 0;
    std::uintptr_t hi = 0;
    char perms[8] = {};
    if (std::sscanf(line.c_str(), "%" SCNxPTR "-%" SCNxPTR " %7s", &lo, &hi, perms) == 3 &&
        lo <= a && a < hi) {
      return perms;
    }
  }
  return "";
}
}  // namespace

TEST(PhysicalPool, AllocatesAndZeroes) {
  iv::physical_pool pool(kBlk, 4, "test-pool");
  EXPECT_EQ(pool.bytes(), 4 * kBlk);
  // memfd pages start zeroed.
  for (std::size_t i = 0; i < 4; i++) {
    EXPECT_EQ(*pool.block_ptr(i), std::byte{0});
  }
  std::memset(pool.block_ptr(2), 0xab, kBlk);
  EXPECT_EQ(*pool.at(2 * kBlk + 100), std::byte{0xab});
}

TEST(PhysicalPool, DropPagesKeepsTheFileAndEveryMapping) {
  // drop_pages() frees the memfd's pages, not its size or its mappings: the
  // canonical mapping and a view mapping both read a fresh zeroed page, and
  // a write through either faults in one page that both see.
  iv::physical_pool pool(kBlk, 2, "test-pool");
  iv::view_region view(4 * kBlk);
  view.map(kBlk, pool, kBlk, kBlk);
  std::memset(pool.base(), 0xab, pool.bytes());
  pool.drop_pages();
  EXPECT_EQ(pool.page_drops(), 1u);
  struct stat st {};
  ASSERT_EQ(::fstat(pool.fd(), &st), 0);
  EXPECT_EQ(static_cast<std::size_t>(st.st_size), pool.bytes());
  EXPECT_EQ(*pool.at(7), std::byte{0});
  EXPECT_EQ(*view.at(kBlk + 7), std::byte{0});
  *view.at(kBlk + 7) = std::byte{0x3c};
  EXPECT_EQ(*pool.at(kBlk + 7), std::byte{0x3c});
}

TEST(ViewRegion, MapExposesPoolPages) {
  iv::physical_pool pool(kBlk, 4, "test-pool");
  iv::view_region view(16 * kBlk);

  std::memset(pool.block_ptr(1), 0x5c, kBlk);
  EXPECT_EQ(perms_at(view.at(3 * kBlk)), "---p");  // reserved, inaccessible
  view.map(3 * kBlk, pool, 1 * kBlk, kBlk);
  EXPECT_EQ(perms_at(view.at(3 * kBlk)), "rw-s");
  EXPECT_EQ(*view.at(3 * kBlk), std::byte{0x5c});

  // Writes through the view hit the same physical pages.
  *view.at(3 * kBlk + 7) = std::byte{0x11};
  EXPECT_EQ(*pool.at(1 * kBlk + 7), std::byte{0x11});
}

TEST(ViewRegion, SameBlockMappableAtTwoViews) {
  // The same physical cache block can be remapped elsewhere later; also two
  // view offsets may alias one block transiently.
  iv::physical_pool pool(kBlk, 1, "test-pool");
  iv::view_region view(8 * kBlk);
  view.map(0, pool, 0, kBlk);
  view.map(5 * kBlk, pool, 0, kBlk);
  *view.at(10) = std::byte{0x77};
  EXPECT_EQ(*view.at(5 * kBlk + 10), std::byte{0x77});
}

TEST(ViewRegion, UnmapPreservesReservationAndPhysicalData) {
  iv::physical_pool pool(kBlk, 2, "test-pool");
  iv::view_region view(8 * kBlk);
  view.map(2 * kBlk, pool, 0, kBlk);
  *view.at(2 * kBlk) = std::byte{0x42};
  view.unmap(2 * kBlk, kBlk);
  EXPECT_EQ(perms_at(view.at(2 * kBlk)), "---p");  // still reserved, inaccessible
  // Physical data survives unmapping of the view.
  EXPECT_EQ(*pool.at(0), std::byte{0x42});
  // Remap somewhere else: data still there.
  view.map(4 * kBlk, pool, 0, kBlk);
  EXPECT_EQ(*view.at(4 * kBlk), std::byte{0x42});
}

TEST(ViewRegion, LedgerTracksRunsAndEntries) {
  // The ledger books the model's maps; it issues no syscall, so it needs no
  // pool and no reservation.
  iv::view_ledger ledger;
  EXPECT_EQ(ledger.mapped_runs(), 0u);
  EXPECT_EQ(ledger.map_entry_estimate(), 1u);

  ledger.map(0, kBlk);
  ledger.map(2 * kBlk, kBlk);  // gap at block 1 -> 2 runs
  EXPECT_EQ(ledger.mapped_runs(), 2u);
  EXPECT_EQ(ledger.map_entry_estimate(), 5u);  // 2N+1 worst case
  EXPECT_TRUE(ledger.is_mapped(2 * kBlk, kBlk));
  EXPECT_FALSE(ledger.is_mapped(kBlk, kBlk));

  ledger.map(1 * kBlk, kBlk);  // fills the gap -> coalesced
  EXPECT_EQ(ledger.mapped_runs(), 1u);
  EXPECT_EQ(ledger.map_entry_estimate(), 3u);
  EXPECT_EQ(ledger.mapped_bytes(), 3 * kBlk);

  ledger.map(1 * kBlk, kBlk);  // a remap replaces: still one run
  EXPECT_EQ(ledger.mapped_runs(), 1u);
  EXPECT_EQ(ledger.mapped_bytes(), 3 * kBlk);

  ledger.unmap(1 * kBlk, kBlk);
  EXPECT_EQ(ledger.mapped_runs(), 2u);
  EXPECT_FALSE(ledger.is_mapped(kBlk, kBlk));
  EXPECT_EQ(ledger.map_calls(), 5u);
}

TEST(ViewRegion, RemapReplacesPreviousMapping) {
  iv::physical_pool pool(kBlk, 2, "test-pool");
  iv::view_region view(4 * kBlk);
  std::memset(pool.block_ptr(0), 0x01, kBlk);
  std::memset(pool.block_ptr(1), 0x02, kBlk);
  view.map(0, pool, 0, kBlk);
  EXPECT_EQ(*view.at(0), std::byte{0x01});
  view.map(0, pool, kBlk, kBlk);
  EXPECT_EQ(*view.at(0), std::byte{0x02});
  EXPECT_EQ(perms_at(view.at(0)), "rw-s");
  EXPECT_EQ(perms_at(view.at(kBlk)), "---p");  // the neighbour stays reserved
}

TEST(ViewRegion, CountsOneCallPerMapAndUnmap) {
  // map_calls() counts the mmap syscalls the region issues: one per map()
  // and one per PROT_NONE overlay, whatever the length, including a remap.
  iv::physical_pool pool(kBlk, 2, "test-pool");
  iv::view_region view(4 * kBlk);
  EXPECT_EQ(view.map_calls(), 0u);
  view.map(0, pool, 0, 2 * kBlk);
  EXPECT_EQ(view.map_calls(), 1u);
  view.map(kBlk, pool, 0, kBlk);
  EXPECT_EQ(view.map_calls(), 2u);
  view.unmap(0, 2 * kBlk);
  EXPECT_EQ(view.map_calls(), 3u);
  view.unmap(3 * kBlk, kBlk);  // an overlay of a range never mapped is a call too
  EXPECT_EQ(view.map_calls(), 4u);
}
