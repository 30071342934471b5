#include <gtest/gtest.h>

#include "../support/fixture.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

// Direct exercises of the epoch-based lazy release protocol (paper Fig. 6),
// without the scheduler: rank 0 plays the victim (whose continuation was
// stolen), rank 1 plays the thief.

TEST(Coherence, LazyReleaseUnneededWhenClean) {
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    if (r == 0) {
      auto h = s.release_lazy();
      EXPECT_FALSE(h.needed());
    }
  });
}

TEST(Coherence, LazyReleaseHandlerPointsToNextEpoch) {
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g + 4096, 8, access_mode::write));
      p[0] = 1;
      s.checkin(g + 4096, 8, access_mode::write);
      const auto e0 = s.cache().current_epoch();
      auto h = s.release_lazy();
      ASSERT_TRUE(h.needed());
      EXPECT_EQ(h.rank, 0);
      EXPECT_EQ(h.epoch, e0 + 1);
      // A lazy release does NOT write anything back by itself.
      EXPECT_TRUE(s.cache().has_dirty());
      s.release();  // cleanup so the run ends clean
    }
    s.barrier();
  });
}

TEST(Coherence, AcquireWaitsForVictimWriteback) {
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    static ip::release_handler handler;
    static bool handler_ready = false;
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;  // homes on rank 1; remote (cached+dirty) on rank 0

    if (r == 0) {
      // Victim: dirty the cache, publish a lazy-release handler, then keep
      // "computing" while polling (DoReleaseIfRequested).
      auto* p = static_cast<int*>(s.checkout(g1, 8, access_mode::write));
      p[0] = 777;
      s.checkin(g1, 8, access_mode::write);
      handler = s.release_lazy();
      handler_ready = true;
      // Simulate a long-running victim that only polls periodically.
      for (int i = 0; i < 1000; i++) {
        ityr::sim::current_engine().advance(1e-6);
        s.poll();
        if (!s.cache().has_dirty()) break;  // write-back was requested & done
      }
      EXPECT_FALSE(s.cache().has_dirty());
    } else {
      // Thief: wait for the handler, acquire through it, then observe the
      // victim's write at its own home memory.
      while (!handler_ready) ityr::sim::current_engine().advance(1e-6);
      s.acquire(handler);
      auto* p = static_cast<const int*>(s.checkout(g1, 8, access_mode::read));
      EXPECT_EQ(p[0], 777);
      s.checkin(g1, 8, access_mode::read);
      EXPECT_EQ(s.cache_of(1).get_stats().lazy_release_waits, 1u);
    }
  });
}

TEST(Coherence, AcquireReturnsImmediatelyIfEpochAlreadyReached) {
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    static ip::release_handler handler;
    static bool handler_ready = false;
    static bool released = false;
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);

    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g + 4096, 8, access_mode::write));
      p[0] = 5;
      s.checkin(g + 4096, 8, access_mode::write);
      handler = s.release_lazy();
      handler_ready = true;
      // Victim releases on its own (e.g., a later normal release) before the
      // thief ever acquires.
      s.release();
      released = true;
    } else {
      while (!handler_ready || !released) ityr::sim::current_engine().advance(1e-6);
      ityr::sim::current_engine().advance(1e-3);  // let the epoch store settle
      s.acquire(handler);
      // No wait was necessary.
      EXPECT_EQ(s.cache_of(1).get_stats().lazy_release_waits, 0u);
    }
  });
}

TEST(Coherence, MultipleAcquirersOnlyNeedOneWriteback) {
  it::run_pgas(it::tiny_opts(3, 1), [&](int r, ip::pgas_space& s) {
    static ip::release_handler handler;
    static bool handler_ready = false;
    auto g = s.heap().coll_alloc(3 * 4096, ic::dist_policy::block_cyclic);
    auto g1 = g + 4096;

    if (r == 0) {
      auto* p = static_cast<int*>(s.checkout(g1, 8, access_mode::write));
      p[0] = 42;
      s.checkin(g1, 8, access_mode::write);
      handler = s.release_lazy();
      handler_ready = true;
      for (int i = 0; i < 2000; i++) {
        ityr::sim::current_engine().advance(1e-6);
        s.poll();
      }
      const auto& st = s.cache_of(0).get_stats();
      EXPECT_EQ(st.releases, 1u);  // single write-back served both thieves
    } else {
      while (!handler_ready) ityr::sim::current_engine().advance(1e-6);
      s.acquire(handler);
      auto* p = static_cast<const int*>(s.checkout(g1, 8, access_mode::read));
      EXPECT_EQ(p[0], 42);
      s.checkin(g1, 8, access_mode::read);
    }
  });
}

TEST(Coherence, PollIsCheapWhenNotRequested) {
  it::run_pgas(it::tiny_opts(1, 1), [&](int, ip::pgas_space& s) {
    const auto e0 = s.cache().current_epoch();
    for (int i = 0; i < 100; i++) s.poll();
    EXPECT_EQ(s.cache().current_epoch(), e0);
    EXPECT_EQ(s.cache().get_stats().releases, 0u);
  });
}

TEST(Coherence, EpochMonotonicallyIncreasesAcrossReleases) {
  it::run_pgas(it::tiny_opts(2, 1), [&](int r, ip::pgas_space& s) {
    auto g = s.heap().coll_alloc(2 * 4096, ic::dist_policy::block_cyclic);
    if (r == 0) {
      auto e0 = s.cache().current_epoch();
      for (int i = 0; i < 3; i++) {
        auto* p = static_cast<int*>(s.checkout(g + 4096, 8, access_mode::write));
        p[0] = i;
        s.checkin(g + 4096, 8, access_mode::write);
        s.release();
      }
      EXPECT_EQ(s.cache().current_epoch(), e0 + 3);
      // Releases with a clean cache do not bump the epoch.
      s.release();
      EXPECT_EQ(s.cache().current_epoch(), e0 + 3);
    }
    s.barrier();
  });
}
