#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "itoyori/common/options.hpp"

namespace ic = ityr::common;

// Startup validation of the dynamic data-placement knobs (ITYR_MIGRATION /
// ITYR_REPLICATION / ITYR_HOT_BLOCKS_TOPN): round-trips through the
// environment and clear errors for malformed combinations.

namespace {

void clear_placement_env() {
  ::unsetenv("ITYR_MIGRATION");
  ::unsetenv("ITYR_MIGRATION_INTERVAL");
  ::unsetenv("ITYR_MIGRATION_MIN_BYTES");
  ::unsetenv("ITYR_MIGRATION_SHARE");
  ::unsetenv("ITYR_MIGRATION_POOL_BLOCKS");
  ::unsetenv("ITYR_REPLICATION");
  ::unsetenv("ITYR_REPLICATION_MIN_BYTES");
  ::unsetenv("ITYR_REPLICATION_MIN_READERS");
  ::unsetenv("ITYR_REPLICATION_POOL_BLOCKS");
  ::unsetenv("ITYR_HOT_BLOCKS_TOPN");
}

}  // namespace

TEST(OptionsPlacement, EnvDefaultsAreOff) {
  clear_placement_env();
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
  ::setenv("ITYR_MIGRATION", "1", 1);
  ::setenv("ITYR_MIGRATION_INTERVAL", "0.005", 1);
  ::setenv("ITYR_MIGRATION_MIN_BYTES", "8192", 1);
  ::setenv("ITYR_MIGRATION_SHARE", "0.75", 1);
  ::setenv("ITYR_MIGRATION_POOL_BLOCKS", "32", 1);
  ::setenv("ITYR_REPLICATION", "true", 1);
  ::setenv("ITYR_REPLICATION_MIN_BYTES", "16384", 1);
  ::setenv("ITYR_REPLICATION_MIN_READERS", "3", 1);
  ::setenv("ITYR_REPLICATION_POOL_BLOCKS", "64", 1);
  ::setenv("ITYR_HOT_BLOCKS_TOPN", "20", 1);
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
  ::setenv("ITYR_MIGRATION", "0", 1);
  ::setenv("ITYR_REPLICATION", "0", 1);
  auto o2 = ic::options::from_env();
  EXPECT_FALSE(o2.migration);
  EXPECT_FALSE(o2.replication);
  clear_placement_env();
}

TEST(OptionsPlacement, MalformedIntervalThrows) {
  clear_placement_env();
  // A malformed number is rejected, and so is a non-positive pass interval
  // rather than spinning the placement pass every poll.
  ::setenv("ITYR_MIGRATION_INTERVAL", "not-a-number", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_MIGRATION_INTERVAL", "-1", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    // The message names the offending knob so a bad override is diagnosable
    // from the exception alone.
    EXPECT_NE(std::string(e.what()).find("ITYR_MIGRATION_INTERVAL"), std::string::npos);
  }
  clear_placement_env();
}

TEST(OptionsPlacement, MalformedShareThrows) {
  clear_placement_env();
  ::setenv("ITYR_MIGRATION_SHARE", "1.5", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_MIGRATION_SHARE", "0", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_MIGRATION_SHARE", "bogus", 1);  // not a number: rejected too
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_MIGRATION_SHARE", "1.0", 1);  // boundary is legal
  EXPECT_DOUBLE_EQ(ic::options::from_env().migration_share, 1.0);
  clear_placement_env();
}

TEST(OptionsPlacement, ZeroPoolWithFeatureEnabledThrows) {
  clear_placement_env();
  // A zero pool is only an error when the feature needing it is on.
  ::setenv("ITYR_MIGRATION_POOL_BLOCKS", "0", 1);
  EXPECT_NO_THROW(ic::options::from_env());
  ::setenv("ITYR_MIGRATION", "1", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  clear_placement_env();
  ::setenv("ITYR_REPLICATION_POOL_BLOCKS", "0", 1);
  EXPECT_NO_THROW(ic::options::from_env());
  ::setenv("ITYR_REPLICATION", "1", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  clear_placement_env();
}

TEST(OptionsPlacement, BadReaderThresholdThrows) {
  clear_placement_env();
  ::setenv("ITYR_REPLICATION_MIN_READERS", "1", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_REPLICATION_MIN_READERS"), std::string::npos);
  }
  clear_placement_env();
}

TEST(OptionsPlacement, AbsurdHotBlocksTopnThrows) {
  clear_placement_env();
  ::setenv("ITYR_HOT_BLOCKS_TOPN", "100000", 1);
  EXPECT_THROW(ic::options::from_env(), ic::error);
  ::setenv("ITYR_HOT_BLOCKS_TOPN", "65536", 1);  // boundary is legal
  EXPECT_EQ(ic::options::from_env().hot_blocks_topn, 65536u);
  clear_placement_env();
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
