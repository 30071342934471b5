/// Pins down the visit-accounting invariant of cache_system::stats: every
/// (checkout, block) pair increments block_visits and exactly one of
/// block_hits / block_misses / write_skips, so
///   block_hits + block_misses + write_skips == block_visits
/// holds at all times — including on the front-table fast path.

#include "itoyori/pgas/cache_system.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "../support/fixture.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/runtime.hpp"

namespace ip = ityr::pgas;
namespace ic = ityr::common;
namespace it = ityr::test;

using ip::access_mode;

namespace {

void expect_invariant(const ip::cache_system::stats& st) {
  EXPECT_EQ(st.block_hits + st.block_misses + st.write_skips, st.block_visits);
}

struct delta {
  std::uint64_t visits, hits, misses, skips, fast;
};

delta diff(const ip::cache_system::stats& a, const ip::cache_system::stats& b) {
  return {b.block_visits - a.block_visits, b.block_hits - a.block_hits,
          b.block_misses - a.block_misses, b.write_skips - a.write_skips,
          b.fast_path_hits - a.fast_path_hits};
}

/// Spins the host CPU for at least `seconds`; returns how long it spun.
double busy_host(double seconds) {
  const auto t0 = std::chrono::steady_clock::now();
  double spun = 0;
  while (spun < seconds) {
    spun = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  }
  return spun;
}

}  // namespace

TEST(CacheStats, EveryBlockVisitCountedOnce) {
  // 2 nodes x 1 rank: rank 1's blocks are genuinely remote to rank 0.
  auto o = it::tiny_opts(2, 1);
  o.prefetch = false;  // the demand fetches' counts
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    // block_cyclic: even blocks home on rank 0, odd on rank 1.
    auto g = s.heap().coll_alloc(8 * bs, ic::dist_policy::block_cyclic);
    if (r == 1) {
      auto* p = static_cast<int*>(s.checkout(g + bs, bs, access_mode::write));
      for (std::size_t i = 0; i < bs / sizeof(int); i++) p[i] = static_cast<int>(3 * i);
      s.checkin(g + bs, bs, access_mode::write);
    }
    s.barrier();
    if (r == 0) {
      auto st0 = s.cache().get_stats();

      // Home-block write: one visit, one hit (home blocks never fetch).
      s.checkout(g, bs, access_mode::write);
      s.checkin(g, bs, access_mode::write);
      auto st1 = s.cache().get_stats();
      auto d = diff(st0, st1);
      EXPECT_EQ(d.visits, 1u);
      EXPECT_EQ(d.hits, 1u);
      EXPECT_EQ(d.misses, 0u);
      EXPECT_EQ(d.skips, 0u);

      // Cold remote read: one visit, one miss.
      auto* p = static_cast<const int*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[5], 15);
      s.checkin(g + bs, bs, access_mode::read);
      auto st2 = s.cache().get_stats();
      d = diff(st1, st2);
      EXPECT_EQ(d.visits, 1u);
      EXPECT_EQ(d.hits, 0u);
      EXPECT_EQ(d.misses, 1u);

      // Warm remote read: one visit, one hit — via the front-table fast path
      // (the block is now fully valid and memoized).
      p = static_cast<const int*>(s.checkout(g + bs, bs, access_mode::read));
      EXPECT_EQ(p[7], 21);
      s.checkin(g + bs, bs, access_mode::read);
      auto st3 = s.cache().get_stats();
      d = diff(st2, st3);
      EXPECT_EQ(d.visits, 1u);
      EXPECT_EQ(d.hits, 1u);
      EXPECT_EQ(d.misses, 0u);
      EXPECT_EQ(d.fast, 1u);

      // Write-mode remote visit: the fetch is elided — a write skip, not a
      // hit and not a miss.
      s.checkout(g + 3 * bs, bs, access_mode::write);
      s.checkin(g + 3 * bs, bs, access_mode::write);
      auto st4 = s.cache().get_stats();
      d = diff(st3, st4);
      EXPECT_EQ(d.visits, 1u);
      EXPECT_EQ(d.hits, 0u);
      EXPECT_EQ(d.misses, 0u);
      EXPECT_EQ(d.skips, 1u);

      // Multi-block span (blocks 4..7): two home visits (hits), one cold
      // remote (miss), one cold remote in read mode (miss).
      s.checkout(g + 4 * bs, 4 * bs, access_mode::read);
      s.checkin(g + 4 * bs, 4 * bs, access_mode::read);
      auto st5 = s.cache().get_stats();
      d = diff(st4, st5);
      EXPECT_EQ(d.visits, 4u);
      EXPECT_EQ(d.hits, 2u);
      EXPECT_EQ(d.misses, 2u);
      EXPECT_EQ(d.skips, 0u);

      expect_invariant(st5);
    }
    s.barrier();
    expect_invariant(s.cache().get_stats());
  });
}

TEST(CacheStats, InvariantHoldsOverFullRuntimeRun) {
  // A real fork-join workload (steals, evictions, rollbacks, fences): the
  // aggregate accounting must still balance exactly.
  auto o = it::tiny_opts(2, 2);
  o.coll_heap_per_rank = 2 * ic::MiB;
  ityr::runtime rt(o);
  rt.spmd([] {
    const std::size_t n = 30000;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] {
      ityr::apps::cilksort_generate(a, n, 11, 512);
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 512);
    });
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  const auto st = rt.pgas().aggregate_stats();
  EXPECT_GT(st.block_visits, 0u);
  EXPECT_GT(st.fast_path_hits, 0u);
  expect_invariant(st);
}

TEST(CacheStats, MeasuredComputeBeforeAStallIsNotStall) {
  // Measured mode commits a slice's host compute to the rank's clock only
  // when the slice yields. Host compute right before a fetch or a release
  // must stay compute: each stall window reads the precise clock at both
  // ends, so it holds only the modelled wait (a few microseconds here).
  auto o = it::tiny_opts(2, 1);
  o.deterministic = false;
  o.async_release = false;  // the synchronous release window
  it::run_pgas(o, [&](int r, ip::pgas_space& s) {
    const std::size_t bs = 4 * ic::KiB;
    // block_cyclic: block 1 lives on rank 1, remote to rank 0.
    auto g = s.heap().coll_alloc(2 * bs, ic::dist_policy::block_cyclic);
    s.barrier();
    if (r == 0) {
      const double fetch0 = s.cache().get_stats().fetch_stall_s;
      const double fetch_loop_s = busy_host(5e-3);
      auto* p = static_cast<int*>(s.checkout(g + bs, bs, access_mode::read_write));
      const double fetch_stall = s.cache().get_stats().fetch_stall_s - fetch0;
      EXPECT_GT(fetch_stall, 0.0);
      EXPECT_LT(fetch_stall, 0.1 * fetch_loop_s);

      p[0] = 42;
      s.checkin(g + bs, bs, access_mode::read_write);
      const double release0 = s.cache().get_stats().release_stall_s;
      const double release_loop_s = busy_host(5e-3);
      s.release();
      const double release_stall = s.cache().get_stats().release_stall_s - release0;
      EXPECT_GT(release_stall, 0.0);
      EXPECT_LT(release_stall, 0.1 * release_loop_s);
    }
    s.barrier();
  });
}
