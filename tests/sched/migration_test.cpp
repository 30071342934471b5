// Targeted exercises of the slow scheduler paths: join suspension, remote
// resume by the finishing child, and repeated stealing of the same lineage.

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "../support/fixture.hpp"
#include "../support/smaps.hpp"
#include "itoyori/core/ityr.hpp"

namespace {

ityr::options mopts(int nodes, int rpn) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.coll_heap_per_rank = 1 * ityr::common::MiB;
  return o;
}

/// A child that takes `micros` of virtual time (with poll points).
void slow_task(int micros) {
  for (int i = 0; i < micros; i++) {
    ityr::rt().eng().advance(1e-6);
    ityr::rt().pgas().poll();
  }
}

/// Fork-join fib whose leaves take virtual time, so continuations get
/// stolen and joiners resumed remotely.
long fib_slow_leaves(int x) {
  if (x < 2) {
    slow_task(5);
    return x;
  }
  auto [p, q] = ityr::parallel_invoke([=] { return fib_slow_leaves(x - 1); },
                                      [=] { return fib_slow_leaves(x - 2); });
  return p + q;
}

/// fib_slow_leaves that keeps `PadBytes` of locals live across each fork,
/// so its stolen continuations have a deeper host stack.
template <std::size_t PadBytes>
long fib_padded(int x) {
  if (x < 2) {
    slow_task(5);
    return x;
  }
  volatile char pad[PadBytes];
  pad[0] = 1;
  auto [p, q] = ityr::parallel_invoke([=] { return fib_padded<PadBytes>(x - 1); },
                                      [=] { return fib_padded<PadBytes>(x - 2); });
  return p + q + pad[0] - 1;
}

/// Cache-pool page drops of rank `r` so far.
std::uint64_t page_drops(int r) { return ityr::rt().pgas().cache_of(r).host_page_drops(); }

/// Resident bytes of the mapping that holds `a`.
std::size_t resident(std::uintptr_t a) { return ityr::test::mapping_at(a).rss; }

}  // namespace

TEST(Migration, JoinSuspensionAndRemoteResume) {
  ityr::runtime rt(mopts(2, 1));
  rt.spmd([&] {
    long v = ityr::root_exec([] {
      // Fork a slow child; the parent continuation will be stolen by the
      // other rank, race ahead to the join, and have to suspend.
      auto [a, b] = ityr::parallel_invoke(
          [] {
            slow_task(500);
            return 10L;
          },
          [] { return 32L; });
      return a + b;
    });
    EXPECT_EQ(v, 42);
  });
  const auto st = rt.sched().get_stats();
  EXPECT_GT(st.steals, 0u);
  EXPECT_GT(st.join_suspends, 0u) << "the stolen parent must have blocked at join";
}

TEST(Migration, ChainOfImbalancedJoins) {
  ityr::runtime rt(mopts(2, 2));
  rt.spmd([&] {
    long v = ityr::root_exec([] {
      std::function<long(int)> go = [&](int depth) -> long {
        if (depth == 0) {
          slow_task(50);
          return 1;
        }
        auto [l, r] = ityr::parallel_invoke(
            [=] { return go(depth - 1); },
            [=] {
              slow_task(20 * depth);  // skew
              return go(depth - 1);
            });
        return l + r;
      };
      return go(6);
    });
    EXPECT_EQ(v, 64);
  });
  // Whether a join has to suspend depends on the schedule; what is certain
  // with this much skew is that work was stolen and the result is exact.
  EXPECT_GT(rt.sched().get_stats().steals, 0u);
}

TEST(Migration, GlobalStateConsistentAcrossSuspensions) {
  // Each leaf writes its slot after a variable delay; every write must land
  // exactly once regardless of which rank resumed which continuation.
  ityr::runtime rt(mopts(3, 1));
  rt.spmd([&] {
    const std::size_t n = 64;
    auto a = ityr::coll_new<int>(n);
    long sum = ityr::root_exec([=] {
      ityr::parallel_fill(a, n, 16, 0);
      std::function<void(std::size_t, std::size_t)> go = [&](std::size_t lo, std::size_t hi) {
        if (hi - lo == 1) {
          slow_task(static_cast<int>((lo * 7) % 40));
          ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), 1,
                              ityr::access_mode::read_write, [&](int* p) { *p += 1; });
          return;
        }
        const std::size_t mid = lo + (hi - lo) / 2;
        ityr::parallel_invoke([=] { go(lo, mid); }, [=] { go(mid, hi); });
      };
      go(0, n);
      return ityr::parallel_reduce(
          a, n, 16, 0L, [](int v) { return static_cast<long>(v); },
          [](long x, long y) { return x + y; });
    });
    EXPECT_EQ(sum, static_cast<long>(n));
    ityr::coll_delete(a, n);
  });
}

TEST(Migration, StackBytesAccountingIsPlausible) {
  ityr::runtime rt(mopts(2, 2));
  rt.spmd([&] { ityr::root_exec([] { (void)fib_slow_leaves(12); }); });
  const auto st = rt.sched().get_stats();
  if (st.migrations > 0) {
    // Each migration moves at least a frame's worth and at most a whole
    // stack region.
    EXPECT_GE(st.migrated_stack_bytes, st.migrations * 64);
    EXPECT_LE(st.migrated_stack_bytes,
              st.migrations * ityr::rt().opts().ult_stack_size);
  }
}

// Steals and join migrations charge a modelled stack size, not the host
// stack depth of the migrating task, so a task that keeps a large local
// buffer live across its forks costs the same virtual time as one that
// does not (the compiler's frame layout cannot move virtual results).
TEST(Migration, CostIgnoresHostStackDepth) {
  auto run = [](auto fib) {
    ityr::runtime rt(mopts(2, 2));
    rt.spmd([&] {
      long v = ityr::root_exec([&] { return fib(12); });
      EXPECT_EQ(v, 144);
    });
    const auto st = rt.sched().get_stats();
    std::vector<double> out = {static_cast<double>(st.steals),
                               static_cast<double>(st.migrations),
                               static_cast<double>(st.migrated_stack_bytes)};
    for (int r = 0; r < rt.eng().n_ranks(); r++) out.push_back(rt.eng().clock_of(r));
    return out;
  };
  const auto shallow = run(fib_padded<8>);
  const auto deep = run(fib_padded<4096>);
  EXPECT_GT(shallow[1], 0.0);  // the workload does migrate
  EXPECT_EQ(shallow, deep);
}

TEST(Migration, StealAcquireDropsTheThiefsCachePages) {
  // Rank 1 steals the root's continuation, reads a whole block homed on
  // rank 0 and goes idle at the join; its next steal's acquire gives its
  // cache pages back to the kernel.
  ityr::runtime rt(mopts(2, 1));
  std::uintptr_t slot = 0;
  int fetcher = -1;
  int thief = -1;
  std::uint64_t drops_before = 0;
  std::uint64_t drops_after = 0;
  std::size_t rss_before = 0;
  std::size_t rss_after = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(2 * 1024, ityr::dist_policy::block_cyclic);
    ityr::root_exec([&] {
      ityr::parallel_invoke(
          [&] {
            slow_task(200);
            ityr::parallel_invoke([] { slow_task(200); },
                                  [&] {
                                    thief = ityr::my_rank();
                                    drops_after = page_drops(thief);
                                    rss_after = resident(slot);
                                  });
          },
          [&] {
            fetcher = ityr::my_rank();
            slot = reinterpret_cast<std::uintptr_t>(
                ityr::checkout(a, 1024, ityr::access_mode::read));  // block 0
            ityr::checkin(a, 1024, ityr::access_mode::read);
            drops_before = page_drops(fetcher);
            rss_before = resident(slot);
          });
    });
    ityr::coll_delete(a, 2 * 1024);
  });
  EXPECT_EQ(fetcher, 1);
  EXPECT_EQ(thief, 1);
  EXPECT_EQ(rss_before, 4096u);
  EXPECT_EQ(drops_after, drops_before + 1);
  EXPECT_EQ(rss_after, 0u);
}

TEST(Migration, JoinAcquireDropsTheJoinersCachePages) {
  // Rank 1 steals the root's continuation, reads a whole block homed on
  // rank 0 and reaches the join after the child finished: the join's
  // acquire, on rank 1, gives its cache pages back to the kernel.
  ityr::runtime rt(mopts(2, 1));
  std::uintptr_t slot = 0;
  int fetcher = -1;
  int joiner = -1;
  std::uint64_t drops_before = 0;
  std::uint64_t drops_after = 0;
  std::size_t rss_before = 0;
  std::size_t rss_after = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<int>(2 * 1024, ityr::dist_policy::block_cyclic);
    ityr::root_exec([&] {
      ityr::parallel_invoke([] { slow_task(20); },
                            [&] {
                              slow_task(100);  // outlast the child
                              fetcher = ityr::my_rank();
                              slot = reinterpret_cast<std::uintptr_t>(
                                  ityr::checkout(a, 1024, ityr::access_mode::read));
                              ityr::checkin(a, 1024, ityr::access_mode::read);
                              drops_before = page_drops(fetcher);
                              rss_before = resident(slot);
                            });
      joiner = ityr::my_rank();
      drops_after = page_drops(joiner);
      rss_after = resident(slot);
    });
    ityr::coll_delete(a, 2 * 1024);
  });
  EXPECT_EQ(fetcher, 1);
  EXPECT_EQ(joiner, 1);
  EXPECT_EQ(rss_before, 4096u);
  EXPECT_EQ(drops_after, drops_before + 1);
  EXPECT_EQ(rss_after, 0u);
}
