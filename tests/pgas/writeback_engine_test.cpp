/// Direct unit tests for the writeback_engine layer against a mock
/// rma::channel: blocking write-back rounds, the async pipeline's fault
/// paths (stall at the in-flight byte budget, opportunistic idle_flush
/// bailing instead of stalling), fences against a drained channel, and the
/// remote-handler / DoReleaseIfRequested protocol words.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <functional>
#include <vector>

#include "../support/fixture.hpp"
#include "../support/mock_channel.hpp"
#include "itoyori/pgas/block_directory.hpp"
#include "itoyori/pgas/writeback_engine.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

namespace {

constexpr std::size_t kBlock = 4 * ic::KiB;

struct null_client final : ip::block_directory::client {
  void on_block_evicted(ip::mem_block&) override {}
  void flush_dirty_for_eviction() override {}
};

/// Engine + mock channel + directory + writeback_engine on rank 0 of a
/// 2-node x 1-rank cluster. The control window exposes the two epoch words
/// per rank (offsets 0 and 8); the home window backs rank 1's heap blocks.
struct wb_fixture {
  ityr::sim::engine& eng;
  it::mock_channel ch;
  std::vector<std::uint64_t> ctrl;  ///< [0..1]=rank 0 words, [2..3]=rank 1
  ityr::rma::window ctrl_win;
  std::vector<std::byte> remote;
  ityr::rma::window home_win;
  null_client cl;
  ip::cache_stats st;
  ip::block_directory dir;
  ip::writeback_engine wb;

  wb_fixture(ityr::sim::engine& e, bool async, std::size_t wb_max_inflight = 0)
      : eng(e),
        ch(e),
        ctrl(4, 0),
        remote(8 * kBlock),
        dir(e, cl, st, kBlock, 8 * kBlock, 8 * kBlock, 0),
        wb(e, ch, ctrl_win, st,
           {.coalesce = true, .async = async, .wb_max_inflight = wb_max_inflight, .rank = 0}) {
    ctrl_win.regions.resize(2);
    ctrl_win.regions[0] = {reinterpret_cast<std::byte*>(&ctrl[0]), 2 * sizeof(std::uint64_t)};
    ctrl_win.regions[1] = {reinterpret_cast<std::byte*>(&ctrl[2]), 2 * sizeof(std::uint64_t)};
    home_win.regions.resize(2);
    home_win.regions[1] = {remote.data(), remote.size()};
  }

  /// A cache block homed on rank 1 with `bytes` of pattern data, written at
  /// its pool address, marked dirty.
  ip::mem_block& dirty_block(std::uint64_t mb_id, std::size_t bytes, int pattern) {
    ip::home_loc h;
    h.rank = 1;
    h.pool_off = mb_id * kBlock;
    h.win = &home_win;
    ip::mem_block* mb = dir.find_cache_block(mb_id);
    if (mb == nullptr) mb = &dir.get_cache_block(mb_id, h);
    std::memset(mb->data, pattern, bytes);
    EXPECT_FALSE(wb.checkin_write(*mb, {0, bytes}));  // write-back mode: marked dirty
    return *mb;
  }
};

void on_rank0(const ic::options& o, const std::function<void(ityr::sim::engine&)>& body) {
  ityr::sim::engine eng(o);
  eng.run([&](int r) {
    if (r == 0) body(eng);
  });
}

}  // namespace

TEST(WritebackEngine, BlockingRoundFlushesDataAndBumpsEpoch) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    wb_fixture f(eng, /*async=*/false);
    f.dirty_block(0, 512, 0xAB);
    ASSERT_TRUE(f.wb.has_dirty());

    f.wb.writeback_all();
    ASSERT_EQ(f.ch.ops().size(), 1u);
    EXPECT_TRUE(f.ch.ops()[0].is_put);
    EXPECT_EQ(f.ch.ops()[0].len, 512u);
    EXPECT_EQ(f.st.written_back_bytes, 512u);
    EXPECT_EQ(f.wb.current_epoch(), 1u);
    EXPECT_EQ(f.st.releases, 1u);
    // The synchronous round flushes: the stall was charged and the data is
    // visible at the home before the call returns.
    EXPECT_EQ(f.ch.n_flushes(), 1u);
    EXPECT_GT(f.st.release_stall_s, 0.0);
    EXPECT_EQ(static_cast<unsigned char>(f.remote[0]), 0xABu);
    EXPECT_EQ(static_cast<unsigned char>(f.remote[511]), 0xABu);
    EXPECT_FALSE(f.wb.has_dirty());

    // Clean release is a counted no-op, and idle_flush is inert outside the
    // async pipeline.
    f.wb.writeback_all();
    EXPECT_EQ(f.st.releases_noop, 1u);
    f.wb.idle_flush();
    EXPECT_EQ(f.st.idle_flush_bytes, 0u);
    EXPECT_DOUBLE_EQ(f.wb.visibility_watermark(), 0.0);
  });
}

TEST(WritebackEngine, AsyncRoundStallsAtInflightBudget) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    // Budget of exactly one round: the second back-to-back round must stall
    // until the first one's modelled completion, not queue unboundedly.
    wb_fixture f(eng, /*async=*/true, /*wb_max_inflight=*/1024);
    f.dirty_block(0, 1024, 0x11);
    f.wb.writeback_all();
    const double round1_done = f.wb.release_ready_at(1);
    EXPECT_EQ(f.wb.current_epoch(), 1u);
    EXPECT_GT(round1_done, eng.now());             // issued, not flushed
    EXPECT_DOUBLE_EQ(f.st.release_stall_s, 0.0);   // budget had room
    EXPECT_DOUBLE_EQ(f.wb.visibility_watermark(), round1_done);

    f.dirty_block(1, 1024, 0x22);
    f.wb.writeback_all();
    EXPECT_EQ(f.wb.current_epoch(), 2u);
    EXPECT_EQ(f.st.async_wb_rounds, 2u);
    // The budget stall was a targeted wait to round 1's completion, charged
    // as release stall time.
    EXPECT_GE(eng.now(), round1_done);
    EXPECT_GT(f.st.release_stall_s, 0.0);
    ASSERT_EQ(f.ch.waits().size(), 1u);
    EXPECT_DOUBLE_EQ(f.ch.waits()[0], round1_done);
    // ready_at is monotone in the epoch.
    EXPECT_GE(f.wb.release_ready_at(2), round1_done);
    EXPECT_DOUBLE_EQ(f.wb.release_ready_at(0), 0.0);
  });
}

TEST(WritebackEngine, IdleFlushBailsOverBudgetThenIssuesAfterDrain) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    wb_fixture f(eng, /*async=*/true, /*wb_max_inflight=*/1024);
    f.dirty_block(0, 1024, 0x33);
    f.wb.writeback_all();  // fills the budget exactly

    // Opportunistic flush over budget must bail (no stall, dirty data kept),
    // not block the worker's backoff loop.
    f.dirty_block(1, 512, 0x44);
    const double before = eng.now();
    f.wb.idle_flush();
    EXPECT_EQ(f.st.idle_flush_bytes, 0u);
    EXPECT_TRUE(f.wb.has_dirty());
    EXPECT_EQ(f.st.async_wb_rounds, 1u);
    EXPECT_DOUBLE_EQ(eng.now(), before);  // bailed without charging time

    // Once virtual time passes round 1's completion the budget drains and
    // the same idle_flush goes through.
    eng.advance(f.ch.pending_until() - eng.now() + 1.0e-9);
    f.wb.idle_flush();
    EXPECT_EQ(f.st.idle_flush_bytes, 512u);
    EXPECT_FALSE(f.wb.has_dirty());
    EXPECT_EQ(f.st.async_wb_rounds, 2u);
    EXPECT_EQ(f.wb.current_epoch(), 2u);
  });
}

TEST(WritebackEngine, FenceOnDrainedChannelDoesNotStall) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    wb_fixture f(eng, /*async=*/true, /*wb_max_inflight=*/1 * ic::MiB);
    f.dirty_block(0, 256, 0x55);
    const ityr::pgas::release_handler h = f.wb.release_lazy();
    ASSERT_TRUE(h.needed());
    EXPECT_EQ(h.rank, 0);
    EXPECT_EQ(h.epoch, 1u);

    // A local fence performs the round and waits out its visibility.
    f.wb.wait_handler(h);
    EXPECT_EQ(f.wb.current_epoch(), 1u);
    EXPECT_GE(eng.now(), f.wb.release_ready_at(1));

    // Re-fencing the same epoch against a now-drained channel must not move
    // the clock or issue anything new.
    eng.advance(1.0e-6);
    const double t = eng.now();
    const std::size_t n_ops = f.ch.ops().size();
    f.wb.wait_handler(h);
    EXPECT_DOUBLE_EQ(eng.now(), t);
    EXPECT_EQ(f.ch.ops().size(), n_ops);

    // An Unneeded handler (nothing was dirty at capture) is a no-op fence.
    const ityr::pgas::release_handler none = f.wb.release_lazy();
    EXPECT_FALSE(none.needed());
    f.wb.wait_handler(none);
    EXPECT_DOUBLE_EQ(eng.now(), t);
  });
}

TEST(WritebackEngine, RemoteHandlerAlreadySatisfiedExitsWithoutRequest) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    wb_fixture f(eng, /*async=*/true, /*wb_max_inflight=*/1 * ic::MiB);
    // The releaser (rank 1) already reached epoch 5; its round completed in
    // the past as far as the peer-ready oracle is concerned.
    f.ctrl[2] = 5;
    f.wb.set_peer_ready([](int, std::uint64_t) { return 0.0; });

    const double t = eng.now();
    f.wb.wait_handler({/*rank=*/1, /*epoch=*/3});
    // One epoch-word read, no write-back request, no poll-waiting, no stall.
    EXPECT_EQ(f.ch.n_value_gets(), 1u);
    EXPECT_EQ(f.ch.n_atomic_maxes(), 0u);
    EXPECT_EQ(f.st.lazy_release_waits, 0u);
    EXPECT_DOUBLE_EQ(eng.now(), t);
  });
}

TEST(WritebackEngine, PollAnswersRemoteRequest) {
  on_rank0(it::tiny_opts(2, 1), [](ityr::sim::engine& eng) {
    wb_fixture f(eng, /*async=*/false);
    // No request pending: poll is inert.
    f.wb.poll();
    EXPECT_EQ(f.wb.current_epoch(), 0u);

    // A thief wrote requestEpoch=1 while we hold dirty data: poll must run
    // the write-back round (DoReleaseIfRequested).
    f.dirty_block(0, 128, 0x66);
    f.ctrl[1] = 1;
    f.wb.poll();
    EXPECT_EQ(f.wb.current_epoch(), 1u);
    EXPECT_EQ(f.st.written_back_bytes, 128u);

    // Request for an epoch whose data was already flushed elsewhere: the
    // epoch still advances so the acquirer makes progress.
    f.ctrl[1] = 2;
    f.wb.poll();
    EXPECT_EQ(f.wb.current_epoch(), 2u);
    EXPECT_EQ(f.st.releases, 2u);
    EXPECT_FALSE(f.wb.has_dirty());
  });
}
