// Cross-configuration checks that the big apps stay correct under the
// option combinations the individual suites do not already cover.

#include <gtest/gtest.h>

#include "../support/fixture.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/core/metrics.hpp"
#include "itoyori/core/scan.hpp"

namespace {

ityr::options base_opts() {
  auto o = ityr::test::tiny_opts(2, 2);
  o.coll_heap_per_rank = 2 * ityr::common::MiB;
  o.noncoll_heap_per_rank = 8 * ityr::common::MiB;
  return o;
}

}  // namespace

TEST(ConfigMatrix, CilksortUnderBlockDistribution) {
  auto o = base_opts();
  o.default_dist = ityr::dist_policy::block;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 30000;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ityr::apps::cilksort_generate(a, n, 5, 512);
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 512);
      return ityr::apps::cilksort_validate(a, n, 5, 512);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}

TEST(ConfigMatrix, CilksortUnderLazyAsyncReleaseStepsParkedWorkers) {
  // A writing workload under lazy release with async write-back: thieves
  // request releases and rounds stay in flight, yet parked workers step
  // their idle rounds inline and certain misses land in place, as without
  // async release. An idle rank holds no dirty data and owes no release,
  // so no step needs the clock (worker_loop checks it at every wake).
  auto o = base_opts();
  o.n_nodes = 4;
  o.policy = ityr::cache_policy::write_back_lazy;
  o.async_release = true;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 30000;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ityr::apps::cilksort_generate(a, n, 6, 512);
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 512);
      return ityr::apps::cilksort_validate(a, n, 6, 512);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  EXPECT_GT(rt.metrics().total("cache.lazy_release_waits"), 0.0);
  EXPECT_GT(rt.metrics().total("cache.async_wb_rounds"), 0.0);
  EXPECT_GT(rt.metrics().total("engine.inline_resumes"), 0.0);
  EXPECT_GT(rt.metrics().total("sched.steal.missed_in_place"), 0.0);
}

TEST(ConfigMatrix, UtsMemWithTinySubBlocks) {
  auto o = base_opts();
  o.sub_block_size = 256;  // extreme fetch granularity
  ityr::apps::uts_params p;
  p.b0 = 3.0;
  p.gen_mx = 8;
  const auto expect = ityr::apps::uts_count_serial(p);
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto got = ityr::root_exec([p] {
      auto t = ityr::apps::uts_mem_build(p);
      return ityr::apps::uts_mem_traverse(t.root);
    });
    EXPECT_EQ(got, expect);
  });
}

TEST(ConfigMatrix, UtsMemWithSubBlockEqualBlock) {
  auto o = base_opts();
  o.sub_block_size = o.block_size;  // whole-block fetches
  ityr::apps::uts_params p;
  p.b0 = 3.0;
  p.gen_mx = 8;
  const auto expect = ityr::apps::uts_count_serial(p);
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto got = ityr::root_exec([p] {
      auto t = ityr::apps::uts_mem_build(p);
      return ityr::apps::uts_mem_traverse(t.root);
    });
    EXPECT_EQ(got, expect);
  });
}

TEST(ConfigMatrix, ScanUnderNoCachePolicy) {
  auto o = base_opts();
  o.policy = ityr::cache_policy::none;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 3000;
    auto a = ityr::coll_new<long>(n);
    bool ok = ityr::root_exec([=] {
      ityr::parallel_fill(a, n, 128, 2L);
      long total = ityr::parallel_scan_inclusive(a, a, n, 128, 0L,
                                                 [](long x, long y) { return x + y; });
      return total == static_cast<long>(2 * n) && ityr::get(a + static_cast<int>(n) - 1) ==
                                                      static_cast<long>(2 * n);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
  });
}

TEST(ConfigMatrix, DeterministicModeRunsApps) {
  auto o = base_opts();
  o.deterministic = true;
  ityr::runtime rt(o);
  rt.spmd([&] {
    const std::size_t n = 20000;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    bool ok = ityr::root_exec([=] {
      ityr::apps::cilksort_generate(a, n, 8, 512);
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 512);
      return ityr::apps::cilksort_validate(a, n, 8, 512);
    });
    EXPECT_TRUE(ok);
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
}
