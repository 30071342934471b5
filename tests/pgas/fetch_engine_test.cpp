/// Direct unit tests for the fetch_engine layer against a mock rma::channel:
/// demand rounds (gap collection, coalesced issue, stall accounting), and
/// the prefetcher's fault paths — a stalled in-flight byte budget that
/// recovers once transfers drain, and eviction of a block with in-flight
/// prefetch segments.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "../support/fixture.hpp"
#include "../support/mock_channel.hpp"
#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/fetch_engine.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

namespace {

constexpr std::size_t kBlock = 4 * ic::KiB;
constexpr std::size_t kSub = 1 * ic::KiB;

/// Every block lives on (remote) rank 1 at pool offset mb_id * kBlock, up to
/// `n_blocks`; beyond that is unallocated territory (streams must die there).
struct fake_locator final : ip::block_locator {
  ityr::rma::window* win = nullptr;
  std::size_t n_blocks = 0;
  bool try_locate_block(std::uint64_t mb_id, ip::home_loc& out) const override {
    if (mb_id >= n_blocks) return false;
    out.rank = 1;
    out.pool_off = mb_id * kBlock;
    out.win = win;
    return true;
  }
  std::size_t total_size() const override { return n_blocks * kBlock; }
};

struct null_client final : ip::block_directory::client {
  std::function<void(ip::mem_block&)> on_evict;
  void on_block_evicted(ip::mem_block& mb) override {
    if (on_evict) on_evict(mb);
  }
  void flush_dirty_for_eviction() override {}
};

/// Wires engine + mock channel + directory + fetch_engine on rank 0 of a
/// 2-node x 1-rank cluster, with an 8-block remote heap backed by `remote`.
struct fetch_fixture {
  static constexpr std::size_t kHeapBlocks = 8;

  ityr::sim::engine& eng;
  it::mock_channel ch;
  ityr::rma::window win;
  std::vector<std::byte> remote;
  fake_locator loc;
  null_client cl;
  ip::cache_stats st;
  ip::block_directory dir;
  ip::fetch_engine fetch;

  fetch_fixture(ityr::sim::engine& e, std::size_t cache_blocks, bool prefetch,
                std::size_t depth = 8, std::size_t max_inflight = 1 * ic::MiB)
      : eng(e),
        ch(e),
        remote(kHeapBlocks * kBlock),
        dir(e, cl, st, kBlock, kHeapBlocks * kBlock, cache_blocks * kBlock, 0),
        fetch(e, ch, dir, loc, st,
              {kBlock, kSub, /*coalesce=*/true, prefetch, depth, max_inflight, /*rank=*/0}) {
    win.regions.resize(2);
    win.regions[1] = {remote.data(), remote.size()};
    loc.win = &win;
    loc.n_blocks = kHeapBlocks;
    for (std::size_t i = 0; i < remote.size(); i++) {
      remote[i] = static_cast<std::byte>(i * 31 + 7);
    }
  }

  ip::home_loc home(std::uint64_t mb_id) {
    ip::home_loc h;
    EXPECT_TRUE(loc.try_locate_block(mb_id, h));
    return h;
  }

  /// Confirm a forward stream over sub-blocks starting at `sub0` (two
  /// sequential demand-miss touches); the confirmation issues prefetches.
  void confirm_stream(std::int64_t sub0) {
    fetch.feed_stream(sub0, sub0, /*was_miss=*/true);      // seeds a candidate
    fetch.feed_stream(sub0 + 1, sub0 + 1, /*was_miss=*/true);  // confirms fwd
  }
};

void on_rank0(const ic::options& o, const std::function<void(ityr::sim::engine&)>& body) {
  ityr::sim::engine eng(o);
  eng.run([&](int r) {
    if (r == 0) body(eng);
  });
}

}  // namespace

TEST(FetchEngine, DemandRoundFetchesGapsCoalesced) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    fetch_fixture f(eng, /*cache_blocks=*/4, /*prefetch=*/false);
    ip::mem_block& mb = f.dir.get_cache_block(0, f.home(0));

    f.fetch.begin_round();
    f.fetch.queue_demand(mb, f.fetch.pad_to_sub_blocks({100, 200}));
    // Padding widens [100,200) to one whole sub-block and the range is
    // claimed valid as soon as it is queued.
    EXPECT_EQ(f.st.fetched_bytes, kSub);
    EXPECT_TRUE(mb.valid.contains({0, kSub}));
    EXPECT_FALSE(mb.fully_valid);

    // A second gap in the same block rides the same round; both leave as one
    // coalesced message because they target the same (window, rank).
    f.fetch.queue_demand(mb, f.fetch.pad_to_sub_blocks({2 * kSub, 2 * kSub + 1}));
    const double done = f.fetch.issue_round();
    EXPECT_GT(done, eng.now());
    ASSERT_EQ(f.ch.ops().size(), 1u);
    EXPECT_FALSE(f.ch.ops()[0].is_put);
    EXPECT_EQ(f.ch.ops()[0].len, 2 * kSub);
    EXPECT_EQ(f.st.coalesced_messages, 1u);

    // The fetched bytes landed in the block's cache slot.
    EXPECT_EQ(std::memcmp(mb.data, f.remote.data(), kSub), 0);

    // Without prefetching the round wait is a full flush; the stall is
    // charged to fetch_stall_s.
    f.fetch.wait_round(done);
    EXPECT_EQ(f.ch.n_flushes(), 1u);
    EXPECT_DOUBLE_EQ(eng.now(), done);
    EXPECT_GT(f.st.fetch_stall_s, 0.0);
  });
}

TEST(FetchEngine, PrefetchStallsAtInflightBudgetAndRecovers) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    // Budget of exactly two sub-blocks: the confirmed stream wants to run
    // `depth` ahead but must stop after two segments.
    fetch_fixture f(eng, /*cache_blocks=*/8, /*prefetch=*/true, /*depth=*/8,
                    /*max_inflight=*/2 * kSub);
    f.confirm_stream(0);
    EXPECT_EQ(f.st.prefetch_issued, 2u);
    EXPECT_EQ(f.st.prefetch_issued_bytes, 2 * kSub);
    EXPECT_EQ(f.ch.ops().size(), 2u);

    // Nothing drains at a frozen clock: advancing the stream again issues
    // nothing new (still over budget).
    f.fetch.feed_stream(2, 2, /*was_miss=*/false);
    EXPECT_EQ(f.st.prefetch_issued, 2u);

    // Once virtual time passes the modelled completions, the budget frees
    // and the stream tops back up.
    eng.advance(f.ch.pending_until() - eng.now() + 1.0e-9);
    ASSERT_TRUE(f.ch.drained());
    f.fetch.feed_stream(3, 3, /*was_miss=*/false);
    EXPECT_GT(f.st.prefetch_issued, 2u);
  });
}

TEST(FetchEngine, EvictionDropsInflightPrefetchAsWasted) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    fetch_fixture f(eng, /*cache_blocks=*/4, /*prefetch=*/true);
    f.cl.on_evict = [&](ip::mem_block& mb) { f.fetch.drop_prefetched(mb); };

    f.confirm_stream(0);
    ASSERT_GT(f.st.prefetch_issued_bytes, 0u);
    const auto issued = f.st.prefetch_issued_bytes;

    // The prefetched blocks have unretired in-flight segments; evicting one
    // must retire them as wasted (nothing was ever read).
    bool any_inflight = false;
    f.dir.for_each_cache_block([&](ip::mem_block& b) { any_inflight |= !b.pf_segs.empty(); });
    ASSERT_TRUE(any_inflight);
    ASSERT_TRUE(f.dir.try_evict_cache_block());
    EXPECT_GT(f.st.prefetch_wasted_bytes, 0u);

    // Evict the rest: every issued byte must be accounted useful or wasted.
    while (f.dir.try_evict_cache_block()) {
    }
    EXPECT_EQ(f.st.prefetch_wasted_bytes + f.st.prefetch_useful_bytes, issued);
  });
}

TEST(FetchEngine, ConsumeRecordsLatePrefetchWait) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    fetch_fixture f(eng, /*cache_blocks=*/8, /*prefetch=*/true);
    f.confirm_stream(0);
    ip::mem_block* mb = nullptr;
    f.dir.for_each_cache_block([&](ip::mem_block& b) {
      if (!b.pf_segs.empty() && mb == nullptr) mb = &b;
    });
    ASSERT_NE(mb, nullptr);
    const ic::interval span = mb->pf_segs.front().iv;
    const double ready = mb->pf_segs.front().ready_at;
    ASSERT_GT(ready, eng.now());

    // Consuming an in-flight segment forces the round to wait out its
    // completion: wait_round must advance the clock to ready_at even though
    // the demand round itself fetched nothing.
    f.fetch.begin_round();
    f.fetch.consume_prefetch(*mb, span, /*is_write=*/false);
    EXPECT_GT(f.st.prefetch_useful_bytes, 0u);
    f.fetch.wait_round(f.fetch.issue_round());
    EXPECT_GE(eng.now(), ready);
    EXPECT_EQ(f.st.prefetch_late, 1u);
  });
}
