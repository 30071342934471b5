#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "itoyori/sim/engine.hpp"
#include "itoyori/sim/fiber.hpp"

namespace is = ityr::sim;
namespace ic = ityr::common;

namespace {

/// Scoped override of the process-global fiber backend (restores on exit so
/// test order doesn't matter).
struct backend_guard {
  explicit backend_guard(ic::fiber_backend_kind k) : prev(is::fiber_backend()) {
    is::set_fiber_backend(k);
  }
  ~backend_guard() { is::set_fiber_backend(prev); }
  ic::fiber_backend_kind prev;
};

ic::options det_opts(int nodes, int rpn, ic::fiber_backend_kind backend) {
  ic::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.deterministic = true;
  o.fiber_backend = backend;
  return o;
}

void ping_pong_roundtrip() {
  is::fiber_context main_ctx;
  std::vector<int> trace;
  is::fiber f(64 * 1024, [&] {
    trace.push_back(1);
    is::fiber_switch(f.context(), &main_ctx);
    trace.push_back(3);
    is::fiber_exit_to(&main_ctx);
  });
  is::fiber_switch(&main_ctx, f.context());
  trace.push_back(2);
  is::fiber_switch(&main_ctx, f.context());
  EXPECT_EQ(trace, (std::vector<int>{1, 2, 3}));
}

}  // namespace

TEST(FiberBackend, AsmPingPong) {
  if (!ic::asm_fiber_backend_supported()) GTEST_SKIP() << "asm backend unsupported here";
  backend_guard g(ic::fiber_backend_kind::asm_switch);
  ping_pong_roundtrip();
}

TEST(FiberBackend, UcontextPingPong) {
  backend_guard g(ic::fiber_backend_kind::ucontext);
  ping_pong_roundtrip();
}

TEST(FiberBackend, AsmReusePreparesFreshFrame) {
  if (!ic::asm_fiber_backend_supported()) GTEST_SKIP() << "asm backend unsupported here";
  backend_guard g(ic::fiber_backend_kind::asm_switch);
  is::fiber_pool pool(64 * 1024);
  is::fiber_context main_ctx;
  int runs = 0;
  for (int i = 0; i < 3; i++) {
    is::fiber* f = pool.acquire([&] {
      runs++;
      is::fiber_exit_to(&main_ctx);
    });
    is::fiber_switch(&main_ctx, f->context());
    pool.release(f);
  }
  EXPECT_EQ(runs, 3);
  EXPECT_EQ(pool.created(), 1u);  // one stack, reset (not re-mmap'd) per reuse
  EXPECT_EQ(pool.reused(), 2u);
}

// Engine-level workloads must produce bitwise identical virtual clocks under
// both backends (the cost model sees no backend-dependent input; migration
// charges a modelled stack size, not the host's live stack).
TEST(FiberBackend, EngineClocksMatchAcrossBackends) {
  if (!ic::asm_fiber_backend_supported()) GTEST_SKIP() << "asm backend unsupported here";
  auto run_once = [](ic::fiber_backend_kind backend) {
    is::engine e(det_opts(2, 2, backend));
    e.run([&](int r) {
      for (int i = 0; i < 10; i++) e.advance(0.5 * static_cast<double>(r + 1));
    });
    std::vector<double> clocks;
    for (int r = 0; r < e.n_ranks(); r++) clocks.push_back(e.clock_of(r));
    return clocks;
  };
  const auto asm_clocks = run_once(ic::fiber_backend_kind::asm_switch);
  const auto uc_clocks = run_once(ic::fiber_backend_kind::ucontext);
  ASSERT_EQ(asm_clocks.size(), uc_clocks.size());
  for (std::size_t i = 0; i < asm_clocks.size(); i++) {
    EXPECT_EQ(asm_clocks[i], uc_clocks[i]);
  }
}

// Regression test for unbounded pool retention: a burst of outstanding
// fibers must not pin its footprint — releases beyond the cap unmap.
TEST(FiberPool, CapBoundsRetentionAndTracksHighWater) {
  is::fiber_pool pool(64 * 1024, /*cap=*/4);
  is::fiber_context main_ctx;
  std::vector<is::fiber*> live;
  for (int i = 0; i < 10; i++) {
    is::fiber* f = pool.acquire([&] { is::fiber_exit_to(&main_ctx); });
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
    is::fiber* f = pool.acquire([&] { is::fiber_exit_to(&main_ctx); });
    is::fiber_switch(&main_ctx, f->context());
    pool.release(f);
  }
  EXPECT_EQ(pool.created(), created_before);
  EXPECT_GE(pool.reused(), 100u);
}
