#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "itoyori/sim/fiber.hpp"

namespace is = ityr::sim;

namespace {

/// Fiber entry that runs the std::function `ctx` points to.
using body_fn = std::function<void()>;
void call(void* ctx) { (*static_cast<body_fn*>(ctx))(); }

}  // namespace

TEST(FiberBackend, AsmPingPong) {
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

TEST(FiberBackend, AsmReusePreparesFreshFrame) {
  is::fiber_pool pool(64 * 1024);
  is::fiber_context main_ctx;
  int runs = 0;
  body_fn body = [&] {
    runs++;
    is::fiber_exit_to(&main_ctx);
  };
  for (int i = 0; i < 3; i++) {
    is::fiber* f = pool.acquire(call, &body);
    is::fiber_switch(&main_ctx, f->context());
    pool.release(f);
  }
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(pool.created(), 1u);  // one stack, reset (not re-mmap'd) per reuse
  EXPECT_EQ(pool.reused(), 2u);
}

// Regression test for unbounded pool retention: a burst of outstanding
// fibers must not pin its footprint — releases beyond the cap unmap.
TEST(FiberPool, CapBoundsRetentionAndTracksHighWater) {
  is::fiber_pool pool(64 * 1024, /*cap=*/4);
  is::fiber_context main_ctx;
  std::vector<is::fiber*> live;
  body_fn body = [&] { is::fiber_exit_to(&main_ctx); };
  for (int i = 0; i < 10; i++) {
    is::fiber* f = pool.acquire(call, &body);
    is::fiber_switch(&main_ctx, f->context());  // run to completion
    live.push_back(f);
  }
  EXPECT_EQ(pool.outstanding(), 10u);
  EXPECT_EQ(pool.high_water(), 10u);
  for (is::fiber* f : live) pool.release(f);
  EXPECT_EQ(pool.outstanding(), 0u);
  EXPECT_EQ(pool.idle(), 4u);     // capped
  EXPECT_EQ(pool.dropped(), 6u);  // the rest were unmapped
  EXPECT_EQ(pool.high_water(), 10u);

  // Churn within the cap reuses stacks (no new creations).
  const auto created_before = pool.created();
  for (int i = 0; i < 100; i++) {
    is::fiber* f = pool.acquire(call, &body);
    is::fiber_switch(&main_ctx, f->context());
    pool.release(f);
  }
  EXPECT_EQ(pool.created(), created_before);
  EXPECT_GE(pool.reused(), 100u);
}
