#include "itoyori/sim/engine.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <vector>

namespace is = ityr::sim;
namespace ic = ityr::common;

namespace {

/// Fiber entry that runs the std::function `ctx` points to.
using body_fn = std::function<void()>;
void call(void* ctx) { (*static_cast<body_fn*>(ctx))(); }

ic::options det_opts(int nodes, int rpn) {
  ic::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.deterministic = true;
  return o;
}

}  // namespace

TEST(Fiber, RunsAndSwitchesBack) {
  is::fiber_context main_ctx;
  bool ran = false;
  body_fn body = [&] {
    ran = true;
    is::fiber_exit_to(&main_ctx);
  };
  is::fiber f(64 * 1024, call, &body);
  is::fiber_switch(&main_ctx, f.context());
  EXPECT_TRUE(ran);
}

TEST(Fiber, PingPong) {
  is::fiber_context main_ctx;
  std::vector<int> trace;
  body_fn body;
  is::fiber f(64 * 1024, call, &body);
  body = [&] {
    trace.push_back(1);
    is::fiber_switch(f.context(), &main_ctx);
    trace.push_back(3);
    is::fiber_exit_to(&main_ctx);
  };
  is::fiber_switch(&main_ctx, f.context());
  trace.push_back(2);
  is::fiber_switch(&main_ctx, f.context());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, PoolRecyclesStacks) {
  is::fiber_pool pool(64 * 1024);
  is::fiber_context main_ctx;
  int runs = 0;
  body_fn first = [&] {
    runs++;
    is::fiber_exit_to(&main_ctx);
  };
  body_fn second = [&] {
    runs += 10;
    is::fiber_exit_to(&main_ctx);
  };
  is::fiber* f1 = pool.acquire(call, &first);
  is::fiber_switch(&main_ctx, f1->context());
  pool.release(f1);
  is::fiber* f2 = pool.acquire(call, &second);
  EXPECT_EQ(f1, f2);  // stack reused
  is::fiber_switch(&main_ctx, f2->context());
  pool.release(f2);
  EXPECT_EQ(runs, 11);
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(Engine, RunsAllRanks) {
  is::engine e(det_opts(2, 3));
  std::vector<int> ran(6, 0);
  e.run([&](int r) { ran[static_cast<std::size_t>(r)] = 1; });
  for (int r = 0; r < 6; r++) EXPECT_EQ(ran[static_cast<std::size_t>(r)], 1) << r;
}

TEST(Engine, TopologyMapping) {
  is::engine e(det_opts(3, 4));
  EXPECT_EQ(e.n_ranks(), 12);
  EXPECT_EQ(e.node_of(0), 0);
  EXPECT_EQ(e.node_of(3), 0);
  EXPECT_EQ(e.node_of(4), 1);
  EXPECT_EQ(e.node_of(11), 2);
  EXPECT_TRUE(e.same_node(4, 7));
  EXPECT_FALSE(e.same_node(3, 4));
}

TEST(Engine, VirtualTimeAdvances) {
  is::engine e(det_opts(1, 2));
  double t_end[2] = {0, 0};
  e.run([&](int r) {
    EXPECT_EQ(e.my_rank(), r);
    e.advance(r == 0 ? 1.0 : 2.0);
    t_end[r] = e.now();
  });
  EXPECT_GE(t_end[0], 1.0);
  EXPECT_GE(t_end[1], 2.0);
  EXPECT_LT(t_end[0], 1.1);
  EXPECT_LT(t_end[1], 2.1);
}

// The DES must interleave ranks in virtual-time order: a rank that advances
// far into the future cannot run again until others catch up.
TEST(Engine, MinClockOrdering) {
  is::engine e(det_opts(1, 2));
  std::vector<int> order;
  e.run([&](int r) {
    if (r == 0) {
      order.push_back(0);
      e.advance(10.0);  // jump far ahead
      order.push_back(2);
    } else {
      e.advance(1.0);
      order.push_back(1);  // must run while rank 0 is "ahead"
      e.advance(1.0);
    }
  });
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(Engine, ChargeWithoutYield) {
  is::engine e(det_opts(1, 1));
  e.run([&](int) {
    double t0 = e.now();
    e.charge(5.0);
    EXPECT_DOUBLE_EQ(e.now(), t0 + 5.0);
  });
}

TEST(Engine, CrossRankCausality) {
  // Rank 0 writes a flag at t=1; rank 1 polls until it sees it. The DES
  // guarantees rank 1 observes the write once its clock passes the writer's.
  is::engine e(det_opts(1, 2));
  bool flag = false;
  double seen_at = 0;
  e.run([&](int r) {
    if (r == 0) {
      e.advance(1.0);
      flag = true;
    } else {
      while (!flag) e.advance(0.1);
      seen_at = e.now();
    }
  });
  EXPECT_GE(seen_at, 1.0);
}

TEST(Engine, RethrowsRankException) {
  is::engine e(det_opts(1, 2));
  EXPECT_THROW(e.run([&](int r) {
    if (r == 1) throw std::runtime_error("boom");
  }),
               std::runtime_error);
}

TEST(Engine, RngIsPerRankDeterministic) {
  std::vector<std::uint64_t> draws_a, draws_b;
  {
    is::engine e(det_opts(1, 2));
    e.run([&](int) { draws_a.push_back(e.rng()()); });
  }
  {
    is::engine e(det_opts(1, 2));
    e.run([&](int) { draws_b.push_back(e.rng()()); });
  }
  EXPECT_EQ(draws_a, draws_b);
  EXPECT_NE(draws_a[0], draws_a[1]);  // ranks get distinct streams
}

TEST(Engine, SwitchToFiberAndBack) {
  is::engine e(det_opts(1, 1));
  std::vector<int> trace;
  e.run([&](int) {
    is::fiber* main_fiber = e.current_fiber();
    body_fn body = [&] {
      trace.push_back(2);
      e.yield();  // DES resumes this same fiber (sole rank)
      trace.push_back(3);
      e.exit_to(main_fiber);
    };
    is::fiber* f = e.spawn_fiber(call, &body);
    trace.push_back(1);
    e.switch_to(f);
    trace.push_back(4);
    e.free_fiber(f);
  });
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3, 4}));
}

TEST(Engine, DeterministicClocksAreReproducible) {
  auto run_once = [] {
    is::engine e(det_opts(2, 2));
    e.run([&](int r) {
      for (int i = 0; i < r + 1; i++) e.advance(0.25);
    });
    std::vector<double> clocks;
    for (int r = 0; r < e.n_ranks(); r++) clocks.push_back(e.clock_of(r));
    return clocks;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, MaxClockReflectsSlowestRank) {
  is::engine e(det_opts(1, 3));
  e.run([&](int r) { e.advance(static_cast<double>(r)); });
  EXPECT_GE(e.max_clock(), 2.0);
}

// ---- parked ranks and inline steps ----

namespace {

/// A parked rank's step that replays a list of waits, then wakes the fiber.
struct replay_steps {
  std::vector<double> waits;
  std::size_t next = 0;

  static double step(void* ctx) noexcept {
    auto& s = *static_cast<replay_steps*>(ctx);
    return s.next < s.waits.size() ? s.waits[s.next++] : is::engine::wake;
  }
};

struct step_run {
  std::vector<double> clocks;
  std::vector<std::uint64_t> resumes, inline_resumes;
  std::uint64_t total_resumes = 0;
};

/// Every rank waits through `waits` (scaled by rank + 1) with advance(); with
/// `park_rank1`, rank 1 instead parks once and replays the rest as steps.
step_run run_waits(const std::vector<double>& waits, bool park_rank1) {
  is::engine e(det_opts(1, 3));
  replay_steps steps;
  e.run([&](int r) {
    const double scale = r + 1;
    if (r == 1 && park_rank1) {
      for (std::size_t i = 1; i < waits.size(); i++) steps.waits.push_back(waits[i] * scale);
      e.park(waits[0] * scale, &replay_steps::step, &steps);
      return;
    }
    for (const double w : waits) e.advance(w * scale);
  });
  step_run out;
  for (int r = 0; r < e.n_ranks(); r++) {
    out.clocks.push_back(e.clock_of(r));
    out.resumes.push_back(e.resumes_of(r));
    out.inline_resumes.push_back(e.inline_resumes_of(r));
  }
  out.total_resumes = e.total_resumes();
  return out;
}

}  // namespace

TEST(Engine, InlineStepsChargeLikeFiberSlices) {
  // A zero wait is charged the minimum advance both ways.
  const std::vector<double> waits = {1.0e-6, 0.0, 3.5e-7, 2.0e-6, 1.0e-9, 7.25e-7};
  const step_run fibers = run_waits(waits, false);
  const step_run inlined = run_waits(waits, true);
  // Exact double equality on purpose: each inline slice must add the same
  // wait and the same deterministic_resume_cost as a fiber slice, in order.
  EXPECT_EQ(fibers.clocks, inlined.clocks);
  EXPECT_EQ(fibers.resumes, inlined.resumes);
  EXPECT_EQ(fibers.total_resumes, inlined.total_resumes);
  EXPECT_EQ(fibers.inline_resumes, (std::vector<std::uint64_t>{0, 0, 0}));
  // Every wait after the park ran as a step; the waking resume switched.
  EXPECT_EQ(inlined.inline_resumes, (std::vector<std::uint64_t>{0, waits.size() - 1, 0}));
}

TEST(Engine, WakingStepResumesTheParkedFiberInTheSameResume) {
  is::engine e(det_opts(1, 2));
  struct probe {
    is::engine* eng;
    int steps = 0;
    int rank_seen = -1;
    std::uint64_t resumes_at_wake = 0;
    double clock_at_wake = 0;
  } p{&e};
  e.run([&](int r) {
    if (r != 0) {
      for (int i = 0; i < 10; i++) e.advance(1.0e-6);  // interleaves with the steps
      return;
    }
    e.park(
        1.0e-6,
        [](void* ctx) noexcept -> double {
          auto& s = *static_cast<probe*>(ctx);
          s.rank_seen = s.eng->my_rank();
          if (++s.steps < 3) return 1.0e-6;
          s.resumes_at_wake = s.eng->resumes_of(0);
          s.clock_at_wake = s.eng->now();
          return is::engine::wake;
        },
        &p);
    // Back on the fiber inside the resume whose step woke it: no resume and
    // no charge in between.
    EXPECT_EQ(p.steps, 3);
    EXPECT_EQ(p.rank_seen, 0);
    EXPECT_EQ(e.resumes_of(0), p.resumes_at_wake);
    EXPECT_EQ(e.now(), p.clock_at_wake);
    EXPECT_EQ(e.inline_resumes_of(0), 2u);
  });
  EXPECT_EQ(e.inline_resumes_of(1), 0u);
}

TEST(EngineDeathTest, AdvanceFromAnInlineStepAborts) {
  // From the run loop's stack, a yield would save the loop's registers as
  // the rank fiber's context; the engine refuses instead.
  EXPECT_DEATH(
      {
        is::engine e(det_opts(1, 1));
        e.run([&](int) {
          e.park(
              1.0e-6,
              [](void* ctx) noexcept -> double {
                static_cast<is::engine*>(ctx)->advance(1.0e-6);
                return is::engine::wake;
              },
              &e);
        });
      },
      "advance\\(\\) or yield\\(\\) called from an inline step");
}

// ---- waits committed in place (lookahead) ----

TEST(Engine, WaitInPlaceOrdersByClockThenRank) {
  // Dyadic times, so that clocks meet exactly: rank 1 asks at 0.75 about a
  // landing at (0.75 + 0.25) + 0.25 = 1.25, where ranks 0 and 2 wait.
  auto o = det_opts(1, 4);
  o.deterministic_resume_cost = 0.25;
  is::engine e(o);
  e.run([&](int r) {
    if (r == 3) return;  // finished at 0.25, before rank 1 asks
    if (r != 1) {
      e.advance(1.0);  // ranks 0 and 2 wait at 1.25
      return;
    }
    e.advance(0.5);  // resumed at 0.75
    ASSERT_EQ(e.now(), 0.75);
    // Rank 0 at exactly the landing clock has the lower rank: the run loop
    // resumes it first, so the wait may not land in place.
    EXPECT_FALSE(e.wait_in_place(0.25, 0));
    EXPECT_EQ(e.now(), 0.75);
    // Rank 2 at the same clock has the higher rank: it runs after.
    EXPECT_TRUE(e.wait_in_place(0.25, 2));
    EXPECT_EQ(e.now(), 1.25);
    // A finished rank never runs, whatever its clock.
    EXPECT_EQ(e.clock_of(3), 0.25);
    EXPECT_TRUE(e.wait_in_place(1.0, 3));
    EXPECT_EQ(e.now(), 2.5);
  });
  // Landings are not resumes.
  EXPECT_EQ(e.resumes_of(1), 2u);
}

namespace {

/// A parked rank that charges `work` in its first step and then waits
/// `wait`, either by returning it to the run loop or in place; the clock its
/// next step sees is the one to compare.
struct charge_then_wait {
  is::engine* eng;
  bool in_place;
  double work, wait;
  int steps = 0;
  bool landed = false;
  double before = 0, after = 0;  ///< clock before and after the wait

  static double step(void* ctx) noexcept {
    auto& s = *static_cast<charge_then_wait*>(ctx);
    if (s.steps++ == 0) {
      s.eng->charge(s.work);
      s.before = s.eng->now();
      if (!s.in_place) return s.wait;
      s.landed = s.eng->wait_in_place(s.wait, 1);
    }
    s.after = s.eng->now();
    return is::engine::wake;
  }
};

charge_then_wait commit_wait(bool in_place, bool deterministic = true) {
  auto o = det_opts(1, 2);
  o.deterministic = deterministic;
  is::engine e(o);
  charge_then_wait s{&e, in_place, 0.1, 3.3e-7};
  e.run([&](int r) {
    if (r == 0) e.park(1.0e-6, &charge_then_wait::step, &s);  // rank 1 has finished by then
  });
  return s;
}

}  // namespace

TEST(Engine, WaitInPlaceCommitsLikeAParkedStep) {
  const charge_then_wait step = commit_wait(false);
  const charge_then_wait in_place = commit_wait(true);
  ASSERT_TRUE(in_place.landed);
  EXPECT_EQ(in_place.steps, 1);
  EXPECT_EQ(step.steps, 2);
  ASSERT_EQ(in_place.before, step.before);
  // Exact double equality on purpose: (clock + wait) + resume cost, in that
  // order, as the run loop adds them. These values round differently when
  // the wait and the cost are summed first.
  const double cost = det_opts(1, 2).deterministic_resume_cost;
  ASSERT_NE(step.after, step.before + (step.wait + cost));
  EXPECT_EQ(in_place.after, step.after);
}

TEST(Engine, WaitInPlaceNeverLandsInMeasuredMode) {
  // The resume's cost would be the host time of a slice that has not run.
  const charge_then_wait measured = commit_wait(true, /*deterministic=*/false);
  EXPECT_FALSE(measured.landed);
  EXPECT_EQ(measured.after, measured.before);
}

TEST(Engine, HostOnlyWorkIsNotMeasuredCompute) {
  // In measured mode a slice's host time is its compute, except what runs
  // inside host_only(): ~20 ms spun there moves the clock by almost nothing.
  ic::options o = det_opts(1, 1);
  o.deterministic = false;
  is::engine e(o);
  const auto spin = [] {
    const auto until = std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until) {
    }
  };
  double inside = 0;
  double outside = 0;
  e.run([&](int) {
    double t0 = e.now();
    e.host_only(spin);
    e.yield();
    inside = e.now() - t0;
    t0 = e.now();
    spin();
    e.yield();
    outside = e.now() - t0;
  });
  EXPECT_LT(inside, 5e-3);
  EXPECT_GE(outside, 20e-3);
}
