#include <gtest/gtest.h>

#include <string>

#include "../support/scoped_env.hpp"
#include "itoyori/common/options.hpp"

namespace ic = ityr::common;

// Startup validation of the dynamic data-placement knobs (ITYR_MIGRATION /
// ITYR_REPLICATION / ITYR_HOT_BLOCKS_TOPN): round-trips through the
// environment and clear errors for malformed combinations.

namespace {

/// Every placement knob unset for one test's scope, and restored after it.
struct placement_env : ityr::test::scoped_env {
  placement_env() { clear(); }
  void clear() {
    for (const char* name :
         {"ITYR_MIGRATION", "ITYR_MIGRATION_INTERVAL", "ITYR_MIGRATION_MIN_BYTES",
          "ITYR_MIGRATION_SHARE", "ITYR_MIGRATION_POOL_BLOCKS", "ITYR_REPLICATION",
          "ITYR_REPLICATION_MIN_BYTES", "ITYR_REPLICATION_MIN_READERS",
          "ITYR_REPLICATION_POOL_BLOCKS", "ITYR_HOT_BLOCKS_TOPN"}) {
      unset(name);
    }
  }
};

}  // namespace

TEST(OptionsPlacement, EnvDefaultsAreOff) {
  placement_env env;
  auto o = ic::options::from_env();
  EXPECT_FALSE(o.migration);  // strictly additive: off by default
  EXPECT_FALSE(o.replication);
  EXPECT_EQ(o.hot_blocks_topn, 0u);
  EXPECT_GT(o.placement_interval, 0.0);
  EXPECT_GT(o.migration_share, 0.0);
  EXPECT_LE(o.migration_share, 1.0);
  EXPECT_GE(o.replication_min_readers, 2);
  EXPECT_GT(o.migration_pool_blocks, 0u);
  EXPECT_GT(o.replication_pool_blocks, 0u);
}

TEST(OptionsPlacement, EnvRoundTrip) {
  placement_env env;
  env.set("ITYR_MIGRATION", "1");
  env.set("ITYR_MIGRATION_INTERVAL", "0.005");
  env.set("ITYR_MIGRATION_MIN_BYTES", "8192");
  env.set("ITYR_MIGRATION_SHARE", "0.75");
  env.set("ITYR_MIGRATION_POOL_BLOCKS", "32");
  env.set("ITYR_REPLICATION", "true");
  env.set("ITYR_REPLICATION_MIN_BYTES", "16384");
  env.set("ITYR_REPLICATION_MIN_READERS", "3");
  env.set("ITYR_REPLICATION_POOL_BLOCKS", "64");
  env.set("ITYR_HOT_BLOCKS_TOPN", "20");
  auto o = ic::options::from_env();
  EXPECT_TRUE(o.migration);
  EXPECT_DOUBLE_EQ(o.placement_interval, 0.005);
  EXPECT_EQ(o.migration_min_bytes, 8192u);
  EXPECT_DOUBLE_EQ(o.migration_share, 0.75);
  EXPECT_EQ(o.migration_pool_blocks, 32u);
  EXPECT_TRUE(o.replication);
  EXPECT_EQ(o.replication_min_bytes, 16384u);
  EXPECT_EQ(o.replication_min_readers, 3);
  EXPECT_EQ(o.replication_pool_blocks, 64u);
  EXPECT_EQ(o.hot_blocks_topn, 20u);
  env.set("ITYR_MIGRATION", "0");
  env.set("ITYR_REPLICATION", "0");
  auto o2 = ic::options::from_env();
  EXPECT_FALSE(o2.migration);
  EXPECT_FALSE(o2.replication);
}

TEST(OptionsPlacement, MalformedIntervalThrows) {
  placement_env env;
  // A malformed number is rejected, and so is a non-positive pass interval
  // rather than spinning the placement pass every poll.
  env.set("ITYR_MIGRATION_INTERVAL", "not-a-number");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_MIGRATION_INTERVAL", "-1");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    // The message names the offending knob so a bad override is diagnosable
    // from the exception alone.
    EXPECT_NE(std::string(e.what()).find("ITYR_MIGRATION_INTERVAL"), std::string::npos);
  }
}

TEST(OptionsPlacement, MalformedShareThrows) {
  placement_env env;
  env.set("ITYR_MIGRATION_SHARE", "1.5");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_MIGRATION_SHARE", "0");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_MIGRATION_SHARE", "bogus");  // not a number: rejected too
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_MIGRATION_SHARE", "1.0");  // boundary is legal
  EXPECT_DOUBLE_EQ(ic::options::from_env().migration_share, 1.0);
}

TEST(OptionsPlacement, ZeroPoolWithFeatureEnabledThrows) {
  placement_env env;
  // A zero pool is only an error when the feature needing it is on.
  env.set("ITYR_MIGRATION_POOL_BLOCKS", "0");
  EXPECT_NO_THROW(ic::options::from_env());
  env.set("ITYR_MIGRATION", "1");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.clear();
  env.set("ITYR_REPLICATION_POOL_BLOCKS", "0");
  EXPECT_NO_THROW(ic::options::from_env());
  env.set("ITYR_REPLICATION", "1");
  EXPECT_THROW(ic::options::from_env(), ic::error);
}

TEST(OptionsPlacement, BadReaderThresholdThrows) {
  placement_env env;
  env.set("ITYR_REPLICATION_MIN_READERS", "1");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_REPLICATION_MIN_READERS"), std::string::npos);
  }
}

TEST(OptionsPlacement, AbsurdHotBlocksTopnThrows) {
  placement_env env;
  env.set("ITYR_HOT_BLOCKS_TOPN", "100000");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_HOT_BLOCKS_TOPN", "65536");  // boundary is legal
  EXPECT_EQ(ic::options::from_env().hot_blocks_topn, 65536u);
}

TEST(OptionsPlacement, ValidateDirectly) {
  // The validator is callable on programmatically built options too (benches
  // and tests construct options without from_env).
  EXPECT_NO_THROW(ic::validate_placement(true, true, 1e-3, 0.5, 16, 16, 2, 10));
  EXPECT_THROW(ic::validate_placement(false, false, 0.0, 0.5, 16, 16, 2, 0), ic::error);
  EXPECT_THROW(ic::validate_placement(false, false, 1e-3, 2.0, 16, 16, 2, 0), ic::error);
  EXPECT_THROW(ic::validate_placement(true, false, 1e-3, 0.5, 0, 16, 2, 0), ic::error);
  EXPECT_THROW(ic::validate_placement(false, true, 1e-3, 0.5, 16, 0, 2, 0), ic::error);
  EXPECT_THROW(ic::validate_placement(false, true, 1e-3, 0.5, 16, 16, 1, 0), ic::error);
  EXPECT_THROW(ic::validate_placement(false, false, 1e-3, 0.5, 16, 16, 2, 1 << 20), ic::error);
}
