#include "itoyori/core/ityr.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <vector>

#include "../support/fixture.hpp"

namespace {

ityr::options sched_opts(int nodes = 2, int rpn = 2) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.coll_heap_per_rank = 1 * ityr::common::MiB;
  return o;
}

long fib_serial(int n) { return n < 2 ? n : fib_serial(n - 1) + fib_serial(n - 2); }

long fib_task(int n) {
  if (n < 2) return n;
  auto [a, b] = ityr::parallel_invoke([=] { return fib_task(n - 1); },
                                      [=] { return fib_task(n - 2); });
  return a + b;
}

}  // namespace

TEST(Scheduler, RootExecRunsOnce) {
  ityr::runtime rt(sched_opts());
  int runs = 0;
  rt.spmd([&] { ityr::root_exec([&] { runs++; }); });
  EXPECT_EQ(runs, 1);
}

TEST(Scheduler, RootExecReturnsValueOnAllRanks) {
  ityr::runtime rt(sched_opts());
  std::vector<long> results;
  rt.spmd([&] {
    long v = ityr::root_exec([] { return 40L + 2L; });
    results.push_back(v);
  });
  ASSERT_EQ(results.size(), 4u);
  for (long v : results) EXPECT_EQ(v, 42);
}

TEST(Scheduler, ParallelInvokeReturnsTuple) {
  ityr::runtime rt(sched_opts(1, 1));
  rt.spmd([&] {
    ityr::root_exec([] {
      auto [a, b, c] = ityr::parallel_invoke([] { return 1; }, [] { return 2.5; },
                                             [] { return 3; });
      EXPECT_EQ(a, 1);
      EXPECT_DOUBLE_EQ(b, 2.5);
      EXPECT_EQ(c, 3);
    });
  });
}

TEST(Scheduler, FibCorrectSingleRank) {
  ityr::runtime rt(sched_opts(1, 1));
  rt.spmd([&] {
    long v = ityr::root_exec([] { return fib_task(15); });
    EXPECT_EQ(v, fib_serial(15));
  });
  // Single rank: everything runs on the fast serialized path, no steals.
  EXPECT_EQ(rt.sched().get_stats().steals, 0u);
  EXPECT_EQ(rt.sched().get_stats().serialized_joins, rt.sched().get_stats().forks);
}

TEST(Scheduler, FibCorrectMultiRankWithSteals) {
  ityr::runtime rt(sched_opts(2, 2));
  rt.spmd([&] {
    long v = ityr::root_exec([] { return fib_task(17); });
    EXPECT_EQ(v, fib_serial(17));
  });
  const auto st = rt.sched().get_stats();
  EXPECT_GT(st.steals, 0u) << "multi-rank fib must trigger work stealing";
  EXPECT_GT(st.migrations, 0u);
  EXPECT_GT(st.migrated_stack_bytes, 0u);
}

TEST(Scheduler, WorkIsActuallyDistributed) {
  // With 4 ranks and an embarrassingly parallel tree, more than one rank
  // must end up executing tasks.
  ityr::runtime rt(sched_opts(2, 2));
  std::vector<int> task_rank_hits(4, 0);
  rt.spmd([&] {
    ityr::root_exec([&] {
      std::function<void(int)> go = [&](int depth) {
        if (depth == 0) {
          task_rank_hits[static_cast<std::size_t>(ityr::my_rank())]++;
          // Nontrivial leaf work so thieves have time to steal.
          volatile long x = 0;
          for (int i = 0; i < 2000; i++) x = x + i;
          ityr::rt().eng().advance(5e-6);
          return;
        }
        ityr::parallel_invoke([=] { go(depth - 1); }, [=] { go(depth - 1); });
      };
      go(7);  // 128 leaves
    });
  });
  int active_ranks = 0;
  int total = 0;
  for (int c : task_rank_hits) {
    active_ranks += (c > 0);
    total += c;
  }
  EXPECT_EQ(total, 128);
  EXPECT_GT(active_ranks, 1);
}

TEST(Scheduler, ChildExceptionPropagatesToJoin) {
  ityr::runtime rt(sched_opts(1, 2));
  rt.spmd([&] {
    if (ityr::my_rank() >= 0) {  // all ranks enter root_exec collectively
      bool caught = false;
      try {
        ityr::root_exec([] {
          ityr::parallel_invoke([] { throw std::runtime_error("child boom"); },
                                [] { /* fine */ });
        });
      } catch (const std::runtime_error& e) {
        caught = std::string(e.what()) == "child boom";
      }
      if (ityr::my_rank() == 0) {
        EXPECT_TRUE(caught);
      }
    }
  });
}

TEST(Scheduler, ChildClosureIsReleasedByJoin) {
  // A child's closure is destroyed as soon as it returns, so whatever it
  // captured is released by the time join returns, whether the parent's
  // continuation stayed put (serialized) or was stolen. A child that yields
  // long enough lets the idle rank steal its parent.
  ityr::runtime rt(sched_opts(1, 2));
  bool saw_serialized = false;
  bool saw_stolen = false;
  rt.spmd([&] {
    ityr::root_exec([&] {
      auto& s = ityr::rt().sched();
      for (const double child_work : {0.0, 1e-3}) {
        auto token = std::make_shared<int>(1);
        const std::weak_ptr<int> alive = token;
        auto h = s.fork([token = std::move(token), child_work](ityr::sched::thread_state*) {
          if (child_work > 0) ityr::rt().eng().advance(child_work);
        });
        const bool serialized = h.serialized;
        s.join(h);
        EXPECT_TRUE(alive.expired()) << (serialized ? "serialized" : "stolen") << " path";
        s.recycle(h);
        (serialized ? saw_serialized : saw_stolen) = true;
      }
    });
  });
  EXPECT_TRUE(saw_serialized);
  EXPECT_TRUE(saw_stolen);
}

TEST(Scheduler, RootExceptionPropagatesToRankZero) {
  ityr::runtime rt(sched_opts(1, 2));
  rt.spmd([&] {
    bool caught = false;
    try {
      ityr::root_exec([] { throw std::logic_error("root boom"); });
    } catch (const std::logic_error&) {
      caught = true;
    }
    if (ityr::my_rank() == 0) {
      EXPECT_TRUE(caught);
    }
  });
}

TEST(Scheduler, SequentialRootExecRegions) {
  ityr::runtime rt(sched_opts());
  rt.spmd([&] {
    for (int round = 0; round < 3; round++) {
      long v = ityr::root_exec([=] { return fib_task(10 + round); });
      EXPECT_EQ(v, fib_serial(10 + round));
    }
  });
}

TEST(Scheduler, DeepRecursionDoesNotExhaustStacks) {
  ityr::runtime rt(sched_opts(1, 2));
  rt.spmd([&] {
    long v = ityr::root_exec([] {
      std::function<long(int)> chain = [&](int depth) -> long {
        if (depth == 0) return 1;
        auto [r] = ityr::parallel_invoke([=] { return chain(depth - 1); });
        return r + 1;
      };
      return chain(200);
    });
    EXPECT_EQ(v, 201);
  });
}

TEST(Scheduler, ManySmallTasksStress) {
  ityr::runtime rt(sched_opts(2, 2));
  rt.spmd([&] {
    long v = ityr::root_exec([] {
      std::function<long(long, long)> sum_range = [&](long lo, long hi) -> long {
        if (hi - lo <= 8) {
          long s = 0;
          for (long i = lo; i < hi; i++) s += i;
          return s;
        }
        long mid = lo + (hi - lo) / 2;
        auto [a, b] = ityr::parallel_invoke([=] { return sum_range(lo, mid); },
                                            [=] { return sum_range(mid, hi); });
        return a + b;
      };
      return sum_range(0, 4096);
    });
    EXPECT_EQ(v, 4096L * 4095 / 2);
  });
}

TEST(Scheduler, BusyTimeIsAccounted) {
  ityr::runtime rt(sched_opts(1, 1));
  rt.spmd([&] {
    ityr::root_exec([] { ityr::rt().eng().advance(1e-3); });
  });
  EXPECT_GE(rt.sched().busy_time_of(0), 1e-3);
}

TEST(Scheduler, NonVoidResultThroughMigration) {
  // Results must travel via thread_state (heap), not parent stacks: verify
  // values survive under heavy stealing.
  ityr::runtime rt(sched_opts(3, 2));
  rt.spmd([&] {
    long v = ityr::root_exec([] { return fib_task(16); });
    EXPECT_EQ(v, fib_serial(16));
  });
}

TEST(Scheduler, RandomStealingMixesNodes) {
  ityr::runtime rt(sched_opts(2, 4));
  rt.spmd([&] {
    long v = ityr::root_exec([] { return fib_task(18); });
    EXPECT_EQ(v, fib_serial(18));
  });
  const auto st = rt.sched().get_stats();
  ASSERT_GT(st.steals, 10u);
  // 3 of 7 possible victims are intra-node: expect a real mix (not all of
  // either kind).
  EXPECT_GT(st.intra_node_steals, 0u);
  EXPECT_LT(st.intra_node_steals, st.steals);
}
