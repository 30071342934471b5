// End-to-end determinism: with options::deterministic set, the entire
// simulation — schedules, steal counts, virtual clocks, traffic — must be
// bit-reproducible across runs. This is what makes the simulator usable for
// debugging runs of the full runtime.

#include <gtest/gtest.h>

#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"

namespace {

struct run_fingerprint {
  std::vector<double> clocks;
  std::uint64_t steals = 0;
  std::uint64_t forks = 0;
  std::uint64_t fetched = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const run_fingerprint&, const run_fingerprint&) = default;
};

run_fingerprint run_cilksort_once(std::uint64_t seed, bool prefetch = false) {
  auto o = ityr::test::tiny_opts(2, 2);
  o.coll_heap_per_rank = 2 * ityr::common::MiB;
  o.seed = seed;
  o.prefetch = prefetch;
  ityr::runtime rt(o);
  rt.spmd([] {
    const std::size_t n = 30000;
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] {
      ityr::apps::cilksort_generate(a, n, 9, 512);
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), 512);
    });
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  run_fingerprint fp;
  for (int r = 0; r < rt.eng().n_ranks(); r++) fp.clocks.push_back(rt.eng().clock_of(r));
  fp.steals = rt.sched().get_stats().steals;
  fp.forks = rt.sched().get_stats().forks;
  fp.fetched = rt.pgas().aggregate_stats().fetched_bytes;
  fp.messages = rt.rma().net().total_messages();
  return fp;
}

run_fingerprint run_uts_once(std::uint64_t seed, bool prefetch = false) {
  ityr::apps::uts_params p;
  p.b0 = 3.0;
  p.gen_mx = 8;
  auto o = ityr::test::tiny_opts(2, 2);
  o.noncoll_heap_per_rank = 4 * ityr::common::MiB;
  o.seed = seed;
  o.prefetch = prefetch;
  ityr::runtime rt(o);
  rt.spmd([p] {
    ityr::root_exec([p] {
      auto t = ityr::apps::uts_mem_build(p);
      (void)ityr::apps::uts_mem_traverse(t.root);
    });
  });
  run_fingerprint fp;
  for (int r = 0; r < rt.eng().n_ranks(); r++) fp.clocks.push_back(rt.eng().clock_of(r));
  fp.steals = rt.sched().get_stats().steals;
  fp.forks = rt.sched().get_stats().forks;
  fp.fetched = rt.pgas().aggregate_stats().fetched_bytes;
  fp.messages = rt.rma().net().total_messages();
  return fp;
}

}  // namespace

TEST(Determinism, CilksortRunsAreBitReproducible) {
  auto a = run_cilksort_once(42);
  auto b = run_cilksort_once(42);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.steals, 0u);
  // Golden schedule: the serial kernels run inside checkouts and never
  // yield, so rewriting them must leave every clock and count as it is. A
  // kernel that adds a checkout, a global load or a yield moves these. The
  // asynchronous release protocol flushes at other points, so it has its
  // own set; a read of valid bytes that waited out the rank's in-flight
  // write-back rounds would move it.
  const run_fingerprint sync_golden{
      {0x1.894f96e37e362p-11, 0x1.88d9e165e99bep-11, 0x1.8907d3e1c1d3dp-11,
       0x1.892521c211246p-11},
      20, 478, 230400, 274};
  const run_fingerprint async_golden{
      {0x1.ced9bc999e1adp-11, 0x1.cf18c6394e99ap-11, 0x1.ce9e3bc860b2fp-11,
       0x1.cebdbade34fb4p-11},
      18, 478, 230400, 256};
  const bool async = ityr::test::tiny_opts().async_release;
  EXPECT_EQ(a, async ? async_golden : sync_golden);
  // With the prefetcher on, read hits must keep reaching its stream
  // detector: serving cilksort's partial-block hits from the front table
  // moves these.
  const run_fingerprint sync_prefetch_golden{
      {0x1.93df3a014d26cp-11, 0x1.93c04fcfe00f3p-11, 0x1.93945545651bap-11,
       0x1.93b034a4b66abp-11},
      25, 478, 171008, 460};
  const run_fingerprint async_prefetch_golden{
      {0x1.7b0e85c66faa7p-11, 0x1.7b609e7b55b64p-11, 0x1.7b5be0700c49dp-11,
       0x1.7b035676af31fp-11},
      16, 478, 111616, 316};
  EXPECT_EQ(run_cilksort_once(42, /*prefetch=*/true),
            async ? async_prefetch_golden : sync_prefetch_golden);
}

TEST(Determinism, DifferentSeedsGiveDifferentSchedules) {
  auto a = run_cilksort_once(42);
  auto b = run_cilksort_once(43);
  // Same program, different victim-selection streams: schedules diverge
  // (steal counts and clocks), results stay correct (checked elsewhere).
  EXPECT_NE(a.clocks, b.clocks);
}

TEST(Determinism, UtsMemRunsAreBitReproducible) {
  auto a = run_uts_once(7);
  auto b = run_uts_once(7);
  EXPECT_EQ(a, b);
  EXPECT_GT(a.steals, 0u);
  // Golden schedule of paper Fig. 10's workload: tiny read checkouts into
  // partly fetched blocks under fork-heavy stealing. How a hit is served
  // (front table or generic path) is host-side work; it must leave every
  // clock and count as it is. Each protocol has its own set, as above.
  const bool async = ityr::test::tiny_opts().async_release;
  const run_fingerprint sync_golden{
      {0x1.b1294155f4c1dp-12, 0x1.b13e03a457edp-12, 0x1.b1266453f8b8fp-12,
       0x1.b059eefe448b4p-12},
      19, 991, 79872, 95};
  const run_fingerprint async_golden{
      {0x1.bc38cd486a23p-12, 0x1.bbb02b11b7ca2p-12, 0x1.bc7560fa660bfp-12,
       0x1.bb79ad03f371p-12},
      25, 991, 41984, 71};
  EXPECT_EQ(a, async ? async_golden : sync_golden);
  // With the prefetcher on, every read hit must still reach its stream
  // detector, so prefetching runs pin their own sets.
  const run_fingerprint sync_prefetch_golden{
      {0x1.a517a710a598ep-12, 0x1.a4a8c9ebcf7a8p-12, 0x1.a436cb0ccdbc6p-12,
       0x1.a4f58fb104eccp-12},
      21, 991, 22528, 125};
  const run_fingerprint async_prefetch_golden{
      {0x1.b96140982c167p-12, 0x1.b946c445d0d66p-12, 0x1.b9b432e9a8f16p-12,
       0x1.b8df6b46304fap-12},
      24, 991, 16384, 104};
  EXPECT_EQ(run_uts_once(7, /*prefetch=*/true),
            async ? async_prefetch_golden : sync_prefetch_golden);
}
