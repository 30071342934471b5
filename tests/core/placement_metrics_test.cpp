// Metrics-registry export of the dynamic data-placement engine: the pgas.*
// series and the hot_blocks JSON section exist exactly when the engine does,
// so stats files written with ITYR_MIGRATION=0 ITYR_REPLICATION=0 stay
// byte-identical to pre-placement ones.

#include <gtest/gtest.h>

#include <string>

#include "../support/fixture.hpp"
#include "itoyori/apps/cilksort.hpp"
#include "itoyori/core/metrics.hpp"

namespace {

ityr::metrics_snapshot run_cilksort_stats(bool migration, bool replication, std::size_t topn) {
  auto o = ityr::test::tiny_opts(2, 2);
  o.coll_heap_per_rank = 2 * ityr::common::MiB;
  o.migration = migration;
  o.replication = replication;
  o.hot_blocks_topn = topn;
  o.placement_interval = 2.0e-4;
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
  return rt.metrics();
}

}  // namespace

TEST(PlacementMetrics, OffPathEmitsNoPlacementSeries) {
  const std::string json = run_cilksort_stats(false, false, 0).to_json();
  EXPECT_EQ(json.find("pgas."), std::string::npos);
  EXPECT_EQ(json.find("hot_blocks"), std::string::npos);
}

TEST(PlacementMetrics, EnabledRunExportsPlacementSeries) {
  const ityr::metrics_snapshot m = run_cilksort_stats(true, true, 0);
  const std::string json = m.to_json();
  EXPECT_NE(json.find("\"pgas.placement_passes\""), std::string::npos);
  EXPECT_NE(json.find("\"pgas.migrations\""), std::string::npos);
  EXPECT_NE(json.find("\"pgas.replicas\""), std::string::npos);
  EXPECT_NE(json.find("\"pgas.forward_retries\""), std::string::npos);
  EXPECT_NE(json.find("\"pgas.bytes_saved.class0\""), std::string::npos);
  // topn == 0: the series exist but no hot-block section is emitted.
  EXPECT_EQ(json.find("hot_blocks"), std::string::npos);
  // Idle rounds stay inline with placement on; a due pass wakes the fiber.
  EXPECT_GT(m.total("engine.inline_resumes"), 0.0);
}

TEST(PlacementMetrics, TopnEmitsHotBlockSection) {
  const std::string json = run_cilksort_stats(false, false, 8).to_json();
  EXPECT_NE(json.find("\"hot_blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"block"), std::string::npos);
  EXPECT_NE(json.find("\"reader_mask\": \"0x"), std::string::npos);
  EXPECT_NE(json.find("\"fetch_bytes\""), std::string::npos);
}
