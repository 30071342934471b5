// Asynchronous epoch-pipelined write-back (ITYR_ASYNC_RELEASE): epoch ring
// monotonicity, the in-flight byte budget, opportunistic idle flushing, the
// no-op release counter, the off-path guarantee that every async counter
// stays zero when the feature is disabled, and reads of valid bytes that do
// not wait for the rank's own rounds.

#include <gtest/gtest.h>

#include <cstdint>

#include "../support/fixture.hpp"
#include "itoyori/pgas/writeback_engine.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

// 2 nodes x 1 rank: the second half of a block-distributed array is homed on
// rank 1, so rank 0's dirty data always needs real remote puts on release.
ic::options async_opts(bool on) {
  auto o = it::tiny_opts(2, 1);
  o.async_release = on;
  return o;
}

constexpr std::size_t kBytes = 64 * 1024;  // 16 blocks; second half remote
constexpr std::size_t kHalf = kBytes / 2;
constexpr std::size_t kChunk = 1024;  // = tiny_opts sub_block_size

/// Overwrite `n` bytes at `g`, which are dirty afterwards.
void dirty(ip::pgas_space& s, ip::gaddr_t g, std::size_t n, std::uint64_t v) {
  auto* p = static_cast<std::uint64_t*>(s.checkout(g, n, access_mode::write));
  p[0] = v;
  s.checkin(g, n, access_mode::write);
}

/// Dirty one remote sub-block (round r writes chunk r).
void dirty_chunk(ip::pgas_space& s, ip::gaddr_t g, std::size_t r) {
  dirty(s, g + kHalf + r * kChunk, kChunk, r + 1);
}

// The cache's in-flight write-back byte budget.
constexpr std::size_t kBudget = ip::writeback_engine::config{}.wb_max_inflight;
// An array whose remote half holds one release round larger than kBudget,
// plus one more chunk; each half is whole tiny_opts blocks (4 KiB).
constexpr std::size_t kBudgetBytes = 2 * (kBudget + 4 * ic::KiB);

ic::options budget_opts() {
  auto o = async_opts(true);
  o.cache_size = 2 * kBudget;  // holds the whole round dirty
  o.coll_heap_per_rank = 2 * kBudget;
  return o;
}

/// Dirty more than kBudget bytes of the remote half of a kBudgetBytes array.
void dirty_over_budget(ip::pgas_space& s, ip::gaddr_t g) {
  dirty(s, g + kBudgetBytes / 2, kBudget + kChunk, 1);
}

/// Dirty the remote half's last chunk, which dirty_over_budget() leaves alone.
void dirty_last_chunk(ip::pgas_space& s, ip::gaddr_t g) {
  dirty(s, g + kBudgetBytes - kChunk, kChunk, 2);
}

}  // namespace

TEST(AsyncRelease, RoundsAdvanceEpochsAndRingStaysMonotone) {
  it::run_pgas(async_opts(true), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      constexpr std::size_t kRounds = 6;
      for (std::size_t i = 0; i < kRounds; i++) {
        dirty_chunk(s, g, i);
        s.release();  // issues one async round, advances the epoch at issue
        EXPECT_FALSE(s.cache().has_dirty());
      }
      const auto& c = s.cache();
      const auto st = c.get_stats();
      EXPECT_EQ(st.async_wb_rounds, kRounds);
      EXPECT_GE(st.releases, kRounds);
      EXPECT_GE(st.epochs_in_flight, 1u);
      EXPECT_GT(c.visibility_watermark(), 0.0);
      // Epoch 0 means "nothing to wait for"; later epochs' ready times are
      // non-decreasing (the ring stores a running max).
      EXPECT_EQ(c.release_ready_at(0), 0.0);
      double prev = 0.0;
      for (std::uint64_t e = 1; e <= kRounds; e++) {
        const double ready = c.release_ready_at(e);
        EXPECT_GE(ready, prev) << "epoch " << e;
        prev = ready;
      }
      EXPECT_GT(prev, 0.0);
      // An epoch beyond the current word falls back to the latest completion.
      EXPECT_GE(c.release_ready_at(kRounds + 100), prev);
    }
    s.barrier();
  });
}

TEST(AsyncRelease, ByteBudgetStallsFencesBoundedly) {
  it::run_pgas(budget_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBudgetBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      dirty_over_budget(s, g);
      s.release();  // the round exceeds the budget but has nothing to wait on
      EXPECT_EQ(s.cache().get_stats().release_stall_s, 0.0);
      dirty_last_chunk(s, g);
      s.release();  // must stall until round 1 completes before issuing
      const auto st = s.cache().get_stats();
      EXPECT_EQ(st.async_wb_rounds, 2u);
      EXPECT_GT(st.release_stall_s, 0.0);
    }
    s.barrier();
  });
}

TEST(AsyncRelease, IdleFlushWritesBackAndBailsWhenBudgetFull) {
  auto o = async_opts(true);
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      // Clean cache: idle_flush is a no-op.
      s.idle_flush();
      EXPECT_EQ(s.cache().get_stats().idle_flush_bytes, 0u);
      // Dirty data and a free budget: the idle loop flushes it.
      dirty_chunk(s, g, 0);
      s.idle_flush();
      EXPECT_FALSE(s.cache().has_dirty());
      const auto st = s.cache().get_stats();
      EXPECT_EQ(st.idle_flush_bytes, kChunk);
      EXPECT_EQ(st.async_wb_rounds, 1u);
    }
    s.barrier();
  });

  // With a saturated in-flight budget the opportunistic round bails instead
  // of stalling: the dirty data stays for the next real fence.
  it::run_pgas(budget_opts(), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBudgetBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      dirty_over_budget(s, g);
      s.release();  // saturates the budget
      dirty_last_chunk(s, g);
      s.idle_flush();  // must not stall, must not flush
      EXPECT_TRUE(s.cache().has_dirty());
      EXPECT_EQ(s.cache().get_stats().idle_flush_bytes, 0u);
    }
    s.barrier();
  });
}

TEST(AsyncRelease, NoopReleasesAreCounted) {
  for (const bool on : {false, true}) {
    it::run_pgas(async_opts(on), [&](int r, ip::pgas_space& s) {
      if (r == 0) {
        s.release();  // nothing dirty
        s.release();
        EXPECT_EQ(s.cache().get_stats().releases_noop, 2u);
        EXPECT_EQ(s.cache().get_stats().releases, 0u);
      }
      s.barrier();
    });
  }
}

TEST(AsyncRelease, OffPathKeepsAsyncCountersZero) {
  it::run_pgas(async_opts(false), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      dirty_chunk(s, g, 0);
      s.release();
      s.idle_flush();  // no-op when disabled
      const auto& c = s.cache();
      const auto st = c.get_stats();
      EXPECT_EQ(st.async_wb_rounds, 0u);
      EXPECT_EQ(st.idle_flush_bytes, 0u);
      EXPECT_EQ(st.epochs_in_flight, 0u);
      // Blocking releases flush synchronously, so the watermark machinery
      // never engages and every wait degenerates to a no-op.
      EXPECT_EQ(c.visibility_watermark(), 0.0);
      EXPECT_EQ(c.release_ready_at(1), 0.0);
      // The synchronous flush stall is still accounted (both modes share the
      // counter so ablations compare like with like).
      EXPECT_GT(st.release_stall_s, 0.0);
    }
    s.barrier();
  });
}

TEST(AsyncRelease, ValidBytesReadDoesNotWaitForInflightRounds) {
  // A read of bytes the cache holds queues no fetch, so it has nothing to
  // wait for, also on the generic path (front table off). Waiting would
  // stall the read on the rank's own write-back round in flight.
  auto o = async_opts(true);
  o.front_table_size = 0;
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(kBytes, ic::dist_policy::block);
    s.barrier();
    if (r == 0) {
      auto& eng = ityr::sim::current_engine();
      const auto remote = g + kHalf;
      s.checkout(remote, kChunk, access_mode::read);  // fetches the chunk
      s.checkin(remote, kChunk, access_mode::read);
      dirty_chunk(s, g, 1);
      s.release();
      ASSERT_GT(s.cache().visibility_watermark(), eng.now());  // the round is in flight
      const double stall = s.cache().get_stats().fetch_stall_s;
      const double t = eng.now();
      s.checkout(remote, kChunk, access_mode::read);
      s.checkin(remote, kChunk, access_mode::read);
      EXPECT_EQ(s.cache().get_stats().fetch_stall_s, stall);
      EXPECT_EQ(eng.now(), t);
    }
    s.barrier();
  });
}
