// Tests for the online critical-path profiler (ITYR_CRITPATH): the serial
// oracle (span == work on a 1-rank chain, across many randomized shapes),
// the bucket decomposition invariants, the per-distance-class stall split,
// the what-if projection's topology sensitivity, and — most load-bearing —
// that enabling the profiler never perturbs the simulated execution
// (bit-identical virtual clocks with it on vs off).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "../support/fixture.hpp"
#include "../support/scoped_env.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/common/histogram.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/common/topology.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"
#include "itoyori/core/runtime.hpp"

namespace {

// ---------------------------------------------------------------------------
// Serial oracle: on one rank a fork-join chain has no parallelism, so the
// recorded span must equal the recorded work (Cilkview's sanity identity).
// ---------------------------------------------------------------------------

// One chain link: fork a leaf that mutates a slice, with an empty inline
// continuation. The continuation segment between the fork and the join is
// exactly empty in deterministic mode, so no path time can hide in it.
void chain_link(ityr::global_ptr<std::uint32_t> a, std::size_t lo, std::size_t hi,
                std::uint32_t salt) {
  ityr::parallel_invoke(
      [=] {
        ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), hi - lo,
                            ityr::access_mode::read_write, [&](std::uint32_t* p) {
                              for (std::size_t i = 0; i < hi - lo; i++) {
                                p[i] = p[i] * 1664525u + salt;
                              }
                            });
      },
      [] {});
}

class CritpathSerialOracle : public ::testing::TestWithParam<unsigned> {};

TEST_P(CritpathSerialOracle, SpanEqualsWorkOnOneRank) {
  const unsigned seed = GetParam();
  ityr::common::xoshiro256ss rng(seed);
  const std::size_t n = 2048 + rng.below(8192);
  const int links = 4 + static_cast<int>(rng.below(12));

  auto o = ityr::test::tiny_opts(/*nodes=*/1, /*rpn=*/1);
  o.critpath = true;
  o.seed = seed;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    std::vector<std::pair<std::size_t, std::size_t>> slices;
    for (int i = 0; i < links; i++) {
      const std::size_t lo = rng.below(n - 1);
      const std::size_t hi = std::min(n, lo + 1 + rng.below(2048));
      slices.emplace_back(lo, hi);
    }
    const auto* sl = &slices;
    ityr::root_exec([=] {
      std::uint32_t salt = seed;
      for (const auto& s : *sl) chain_link(a, s.first, s.second, salt++);
    });
    ityr::barrier();
    ityr::coll_delete(a, n);
  });

  const double work = rt.sched().cp_work();
  const ityr::sched::cp_path& span = rt.sched().cp_span();
  ASSERT_GT(work, 0.0) << "chain accrued no virtual time; the oracle is vacuous";

  // The chain is sequential: every strand segment lies on the critical path.
  EXPECT_NEAR(span.total(), work, 1.0e-9 * work)
      << "span diverged from work on a serial chain";

  // No steals can occur on one rank, and the decomposition must be airtight.
  EXPECT_EQ(span.b[static_cast<int>(ityr::sched::cp_bucket::steal_wait)], 0.0);
  double bsum = 0;
  for (int b = 0; b < ityr::sched::n_cp_buckets; b++) bsum += span.b[b];
  EXPECT_NEAR(bsum, span.total(), 1.0e-9 * work);

  const auto m = rt.metrics();
  EXPECT_NEAR(m.total("critpath.parallelism"), 1.0, 1.0e-6);
  // All memory is home-owned: the what-if projector has nothing to remove.
  EXPECT_NEAR(m.total("critpath.whatif.network_free_speedup"), 1.0, 1.0e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomChains, CritpathSerialOracle,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 11u, 13u, 23u, 42u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// Parallel runs: bucket/attribution invariants on a real workload.
// ---------------------------------------------------------------------------

ityr::metrics_snapshot run_cilksort(ityr::common::options o, std::size_t n,
                                    std::size_t cutoff) {
  ityr::runtime rt(o);
  bool sorted = false;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n, 7, 4096); });
    ityr::barrier();
    ityr::root_exec([=] {
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), cutoff);
    });
    ityr::barrier();
    sorted = ityr::root_exec([=] { return ityr::apps::cilksort_validate(a, n, 7, 4096); });
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  EXPECT_TRUE(sorted);
  return rt.metrics();
}

TEST(Critpath, BucketsSumToSpanAndParallelismExceedsOne) {
  auto o = ityr::test::tiny_opts(2, 2);
  o.critpath = true;
  const auto m = run_cilksort(o, 1 << 15, 2048);

  const double work = m.total("critpath.work_s");
  const double span = m.total("critpath.span_s");
  ASSERT_GT(span, 0.0);
  EXPECT_GT(work, span) << "4 ranks sorting 32K keys must show some parallelism";
  EXPECT_GT(m.total("critpath.parallelism"), 1.0);

  // The five buckets are a partition of the span.
  double bsum = 0;
  for (const char* b : {"compute", "fetch_stall", "release_stall", "steal_wait",
                        "acquire_fence"}) {
    bsum += m.total(std::string("critpath.span.") + b + "_s");
  }
  EXPECT_NEAR(bsum, span, 1.0e-9 * span + 1.0e-12);

  // The per-class network shares are contained within the span, and the
  // what-if projection can only help (speedup >= 1, projected span <= span).
  double net = 0;
  for (int c = 0; c < 8; c++) {
    net += m.total("critpath.net.class" + std::to_string(c) + "_s");
  }
  EXPECT_LE(net, span * (1 + 1.0e-9));
  const double net_free = m.total("critpath.whatif.network_free_span_s");
  EXPECT_LE(net_free, span * (1 + 1.0e-9));
  EXPECT_GE(m.total("critpath.whatif.network_free_speedup"), 1.0);

  // Histograms rode along: tasks executed, fences ran, steals happened.
  const ityr::metric_histogram* th = m.find_histogram("hist.task_exec_s");
  ASSERT_NE(th, nullptr);
  EXPECT_GT(th->hist.count(), 0u);
  const ityr::metric_histogram* fh = m.find_histogram("hist.fence_s");
  ASSERT_NE(fh, nullptr);
  EXPECT_GT(fh->hist.count(), 0u);
  // Percentiles are ordered.
  EXPECT_LE(th->hist.percentile(50), th->hist.percentile(90));
  EXPECT_LE(th->hist.percentile(90), th->hist.percentile(99));
}

TEST(Critpath, StallClassSplitSumsToTotals) {
  auto o = ityr::test::tiny_opts(2, 2);
  o.critpath = true;
  const auto m = run_cilksort(o, 1 << 15, 2048);

  const auto* fetch = m.find("cache.fetch_stall_s");
  const auto* release = m.find("cache.release_stall_s");
  ASSERT_NE(fetch, nullptr);
  ASSERT_NE(release, nullptr);
  for (int r = 0; r < 4; r++) {
    double fsum = 0, rsum = 0;
    for (int c = 0; c < 8; c++) {
      fsum += m.of("cache.fetch_stall.class" + std::to_string(c) + "_s", r);
      rsum += m.of("cache.release_stall.class" + std::to_string(c) + "_s", r);
    }
    EXPECT_NEAR(fsum, fetch->of(r), 1.0e-9 * (fetch->of(r) + 1.0)) << "rank " << r;
    EXPECT_NEAR(rsum, release->of(r), 1.0e-9 * (release->of(r) + 1.0)) << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Default-off discipline: the profiler observes, never perturbs.
// ---------------------------------------------------------------------------

TEST(Critpath, DisabledByDefaultAndBitIdenticalWhenEnabled) {
  auto off = ityr::test::tiny_opts(2, 2);
  EXPECT_FALSE(off.critpath);  // strictly additive: off unless asked for
  auto on = off;
  on.critpath = true;

  const auto m_off = run_cilksort(off, 1 << 15, 2048);
  const auto m_on = run_cilksort(on, 1 << 15, 2048);

  // critpath.* series exist only when enabled.
  EXPECT_EQ(m_off.find("critpath.span_s"), nullptr);
  ASSERT_NE(m_on.find("critpath.span_s"), nullptr);

  // The simulated execution must be EXACTLY the same run: virtual clocks,
  // steal schedule, and network traffic all bit-identical.
  for (const char* name : {"engine.clock_s", "engine.resumes", "sched.forks",
                           "sched.steals", "sched.steal_attempts", "net.messages.inter",
                           "net.bytes.inter", "cache.fetched_bytes",
                           "cache.fetch_stall_s", "cache.release_stall_s"}) {
    const auto* a = m_off.find(name);
    const auto* b = m_on.find(name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    for (int r = 0; r < 4; r++) {
      EXPECT_EQ(a->of(r), b->of(r)) << name << " diverged on rank " << r;
    }
  }
}

// ---------------------------------------------------------------------------
// What-if projection: the per-class attribution must resolve topologies.
// ---------------------------------------------------------------------------

TEST(Critpath, WhatIfProjectionDistinguishesTopologies) {
  auto flat = ityr::test::tiny_opts(4, 2);
  flat.critpath = true;
  flat.topology = ityr::common::topology_spec::parse("flat");
  auto fat = ityr::test::tiny_opts(4, 2);
  fat.critpath = true;
  fat.topology = ityr::common::topology_spec::parse("fat_tree:2,2");

  const auto m_flat = run_cilksort(flat, 1 << 14, 1024);
  const auto m_fat = run_cilksort(fat, 1 << 14, 1024);

  const double span_flat = m_flat.total("critpath.span_s");
  const double span_fat = m_fat.total("critpath.span_s");
  ASSERT_GT(span_flat, 0.0);
  ASSERT_GT(span_fat, 0.0);
  // Different interconnects price the same workload's critical path
  // differently, and the what-if projector reports distinct headrooms.
  EXPECT_NE(span_flat, span_fat);
  EXPECT_NE(m_flat.total("critpath.whatif.network_free_speedup"),
            m_fat.total("critpath.whatif.network_free_speedup"));
}

// ---------------------------------------------------------------------------
// Env plumbing.
// ---------------------------------------------------------------------------

TEST(Critpath, EnvKnobsRoundTrip) {
  ityr::test::scoped_env env;
  env.unset("ITYR_CRITPATH");
  EXPECT_FALSE(ityr::common::options::from_env().critpath);

  env.set("ITYR_CRITPATH", "1");
  EXPECT_TRUE(ityr::common::options::from_env().critpath);

  env.set("ITYR_CRITPATH", "0");
  EXPECT_FALSE(ityr::common::options::from_env().critpath);

  // The runtime's histograms (task, steal, latency) have a fixed geometry
  // that no knob sets.
  EXPECT_EQ(ityr::common::log_histogram{}.n_buckets(), 48u);
}

}  // namespace
