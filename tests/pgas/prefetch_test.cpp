// Adaptive sub-block prefetching (ITYR_PREFETCH): stream detection, the
// nonblocking fetch pipeline, useful/wasted byte accounting, mid-point LRU
// insertion, and the pinned-cache capacity error.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/common/lru_list.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

// 2 nodes x 1 rank: every cross-rank access is remote (cached). tiny_opts:
// 4 KiB blocks, 1 KiB sub-blocks, 16-block cache.
ic::options prefetch_opts(bool prefetch) {
  auto o = it::tiny_opts(2, 1);
  o.prefetch = prefetch;
  return o;
}

constexpr std::size_t kSub = 1024;          // = tiny_opts sub_block_size
constexpr std::size_t kBytes = 96 * 1024;   // 24 blocks, block dist -> 12 remote
constexpr std::size_t kHalf = kBytes / 2;   // second half homed on rank 1
constexpr std::size_t kChunks = kHalf / kSub;

struct scan_result {
  ip::cache_system::stats st;
  bool data_ok = true;
};

/// Rank 1 stamps the first word of each of its home sub-blocks, then rank 0
/// reads them one sub-block per checkout in the given order.
scan_result run_scan(const ic::options& o, const std::vector<std::size_t>& order) {
  scan_result res;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBytes, ic::dist_policy::block);
    if (r == 1) {
      for (std::size_t j = 0; j < kChunks; j++) {
        auto gj = g + kHalf + j * kSub;
        auto* p = static_cast<std::uint64_t*>(s.checkout(gj, 8, access_mode::write));
        p[0] = j;
        s.checkin(gj, 8, access_mode::write);
      }
    }
    s.barrier();
    if (r == 0) {
      for (const std::size_t j : order) {
        auto gj = g + kHalf + j * kSub;
        auto* p = static_cast<const std::uint64_t*>(s.checkout(gj, kSub, access_mode::read));
        if (p[0] != j) res.data_ok = false;
        s.checkin(gj, kSub, access_mode::read);
      }
      res.st = s.cache().get_stats();
    }
    s.barrier();
  });
  return res;
}

std::vector<std::size_t> seq_order() {
  std::vector<std::size_t> v;
  for (std::size_t j = 0; j < kChunks; j++) v.push_back(j);
  return v;
}

std::vector<std::size_t> shuffled_order() {
  auto v = seq_order();
  std::uint64_t s = 0x9e3779b97f4a7c15ull;  // fixed-seed xorshift Fisher-Yates
  for (std::size_t i = v.size() - 1; i > 0; i--) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    std::swap(v[i], v[s % (i + 1)]);
  }
  return v;
}

}  // namespace

TEST(Prefetch, SequentialScanPrefetchesWithCorrectData) {
  const scan_result r = run_scan(prefetch_opts(true), seq_order());
  EXPECT_TRUE(r.data_ok) << "prefetched data must equal demand-fetched data";
  EXPECT_GT(r.st.prefetch_issued, 0u);
  EXPECT_GT(r.st.prefetch_issued_bytes, 0u);
  // A pure sequential scan consumes nearly everything it prefetches (the
  // stream dies cleanly at the end of the allocation).
  EXPECT_GE(static_cast<double>(r.st.prefetch_useful_bytes),
            0.8 * static_cast<double>(r.st.prefetch_issued_bytes));
  // Byte accounting never invents bytes.
  EXPECT_LE(r.st.prefetch_useful_bytes + r.st.prefetch_wasted_bytes,
            r.st.prefetch_issued_bytes);
}

TEST(Prefetch, SequentialScanReducesFetchStall) {
  const scan_result off = run_scan(prefetch_opts(false), seq_order());
  const scan_result on = run_scan(prefetch_opts(true), seq_order());
  EXPECT_TRUE(off.data_ok);
  EXPECT_TRUE(on.data_ok);
  EXPECT_EQ(off.st.prefetch_issued, 0u);
  EXPECT_GT(off.st.fetch_stall_s, 0.0);
  // The acceptance bar: >= 30% less virtual time stalled on fetches.
  EXPECT_LT(on.st.fetch_stall_s, 0.7 * off.st.fetch_stall_s)
      << "off=" << off.st.fetch_stall_s << "s on=" << on.st.fetch_stall_s << "s";
  // Same demand work either way.
  EXPECT_EQ(on.st.checkouts, off.st.checkouts);
}

TEST(Prefetch, RandomScanDoesNotRegressStall) {
  // Accidental stream confirmations on a shuffled scan must not make the
  // demand path wait longer than plain stop-and-wait fetching (the <=2%
  // regression budget from the ablation).
  const scan_result off = run_scan(prefetch_opts(false), shuffled_order());
  const scan_result on = run_scan(prefetch_opts(true), shuffled_order());
  EXPECT_TRUE(off.data_ok);
  EXPECT_TRUE(on.data_ok);
  EXPECT_LE(on.st.fetch_stall_s, 1.02 * off.st.fetch_stall_s)
      << "off=" << off.st.fetch_stall_s << "s on=" << on.st.fetch_stall_s << "s";
  EXPECT_LE(on.st.prefetch_useful_bytes + on.st.prefetch_wasted_bytes,
            on.st.prefetch_issued_bytes);
}

TEST(Prefetch, OffPathTouchesNoPrefetchCounters) {
  const scan_result r = run_scan(prefetch_opts(false), seq_order());
  EXPECT_TRUE(r.data_ok);
  EXPECT_EQ(r.st.prefetch_issued, 0u);
  EXPECT_EQ(r.st.prefetch_issued_bytes, 0u);
  EXPECT_EQ(r.st.prefetch_useful_bytes, 0u);
  EXPECT_EQ(r.st.prefetch_wasted_bytes, 0u);
  EXPECT_EQ(r.st.prefetch_late, 0u);
}

TEST(Prefetch, StridedScanAccountsWastedBytes) {
  // Stride-2 over sub-blocks: a confirmed stream prefetches the skipped
  // sub-blocks too; those unread bytes must surface as wasted, not vanish.
  std::vector<std::size_t> order;
  for (std::size_t j = 0; j < kChunks; j += 2) order.push_back(j);
  const scan_result r = run_scan(prefetch_opts(true), order);
  EXPECT_TRUE(r.data_ok);
  if (r.st.prefetch_issued_bytes > 0) {
    EXPECT_GT(r.st.prefetch_wasted_bytes + r.st.prefetch_useful_bytes, 0u);
    EXPECT_LE(r.st.prefetch_useful_bytes + r.st.prefetch_wasted_bytes,
              r.st.prefetch_issued_bytes);
  }
}

TEST(Prefetch, PinnedCacheExhaustionThrowsCommonError) {
  // All cache blocks pinned by outstanding checkouts: the next distinct
  // remote block must raise a clear ityr::common::error rather than loop or
  // corrupt the LRU list.
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    const std::size_t n_blocks = 40;
    auto g = s.heap().coll_alloc(2 * n_blocks * 4096, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      const std::size_t n_cache = s.cache().n_cache_blocks();
      for (std::size_t j = 0; j < n_cache; j++) {
        s.checkout(g + (2 * j + 1) * 4096, 4096, access_mode::read);
      }
      auto extra = g + (2 * n_cache + 1) * 4096;
      EXPECT_THROW(s.checkout(extra, 8, access_mode::read), ic::error);
      try {
        s.checkout(extra, 8, access_mode::read);
        FAIL() << "expected too-much-checkout";
      } catch (const ic::error& e) {
        EXPECT_NE(std::string(e.what()).find("pinned"), std::string::npos) << e.what();
      }
      // Unpinning makes the cache usable again.
      for (std::size_t j = 0; j < n_cache; j++) {
        s.checkin(g + (2 * j + 1) * 4096, 4096, access_mode::read);
      }
      s.checkout(extra, 8, access_mode::read);
      s.checkin(extra, 8, access_mode::read);
    }
    s.barrier();
  });
}

namespace {
struct lru_node : ic::lru_hook {
  int id = 0;
};
}  // namespace

TEST(Prefetch, LruInsertMiddle) {
  ic::lru_list l;
  lru_node n[6];
  for (int i = 0; i < 6; i++) n[i].id = i;

  // Empty list: mid-point insertion degenerates to push_back.
  l.insert_middle(n[0]);
  EXPECT_EQ(l.size(), 1u);
  EXPECT_EQ(static_cast<lru_node*>(l.lru())->id, 0);
  l.erase(n[0]);

  for (int i = 0; i < 4; i++) l.push_back(n[i]);  // LRU order: 0 1 2 3
  l.insert_middle(n[4]);                          // -> 0 1 4 2 3
  std::vector<int> order;
  l.find_from_lru([&](ic::lru_hook& h) {
    order.push_back(static_cast<lru_node&>(h).id);
    return false;
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 4, 2, 3}));
  // A mid-point resident is evicted before the demand-MRU tail.
  EXPECT_EQ(static_cast<lru_node*>(l.lru())->id, 0);
}
