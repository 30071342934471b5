#include <gtest/gtest.h>

#include <string>

#include "../support/scoped_env.hpp"
#include "itoyori/common/options.hpp"

namespace ic = ityr::common;

// Startup validation of the multi-job serving knobs (ITYR_SERVE /
// ITYR_SERVE_ARRIVAL_RATE / ITYR_SERVE_JOBS / ITYR_STEAL_FAIRNESS):
// round-trips through the environment and clear errors for malformed values.

namespace {

/// Every serving knob unset for one test's scope, and restored after it.
struct serving_env : ityr::test::scoped_env {
  serving_env() {
    for (const char* name :
         {"ITYR_SERVE", "ITYR_SERVE_ARRIVAL_RATE", "ITYR_SERVE_JOBS", "ITYR_STEAL_FAIRNESS"}) {
      unset(name);
    }
  }
};

}  // namespace

TEST(OptionsServing, EnvDefaultsAreSingleJobMode) {
  serving_env env;
  auto o = ic::options::from_env();
  // Everything defaults off: one root task per region, no fairness scan —
  // bit-identical to pre-serving runs (the differential test pins the off
  // path down).
  EXPECT_FALSE(o.serve);
  EXPECT_DOUBLE_EQ(o.serve_arrival_rate, 1000.0);
  EXPECT_EQ(o.serve_jobs, 16u);
  EXPECT_EQ(o.steal_fairness, ic::steal_fairness_kind::off);
}

TEST(OptionsServing, EnvRoundTrip) {
  serving_env env;
  env.set("ITYR_SERVE", "1");
  env.set("ITYR_SERVE_ARRIVAL_RATE", "250.5");
  env.set("ITYR_SERVE_JOBS", "32");
  env.set("ITYR_STEAL_FAIRNESS", "job_weighted");
  auto o = ic::options::from_env();
  EXPECT_TRUE(o.serve);
  EXPECT_DOUBLE_EQ(o.serve_arrival_rate, 250.5);
  EXPECT_EQ(o.serve_jobs, 32u);
  EXPECT_EQ(o.steal_fairness, ic::steal_fairness_kind::job_weighted);
  env.set("ITYR_STEAL_FAIRNESS", "off");
  env.set("ITYR_SERVE", "0");
  auto o2 = ic::options::from_env();
  EXPECT_FALSE(o2.serve);
  EXPECT_EQ(o2.steal_fairness, ic::steal_fairness_kind::off);
}

TEST(OptionsServing, FairnessNamesRoundTripThroughStrings) {
  for (auto k : {ic::steal_fairness_kind::off, ic::steal_fairness_kind::job_weighted}) {
    EXPECT_EQ(ic::steal_fairness_from_string(ic::to_string(k)), k);
  }
}

TEST(OptionsServing, BogusFairnessThrows) {
  serving_env env;
  // Unknown enum names are API misuse (api_error), matching the other
  // enum-valued knobs; out-of-range numerics below are ic::error.
  env.set("ITYR_STEAL_FAIRNESS", "round_robin");
  EXPECT_THROW(ic::options::from_env(), ic::api_error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::api_error";
  } catch (const ic::api_error& e) {
    // The message lists the legal names so a typo is diagnosable from the
    // exception alone.
    EXPECT_NE(std::string(e.what()).find("job_weighted"), std::string::npos);
  }
}

TEST(OptionsServing, NonPositiveArrivalRateThrows) {
  serving_env env;
  env.set("ITYR_SERVE_ARRIVAL_RATE", "0");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_SERVE_ARRIVAL_RATE", "-5.0");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_SERVE_ARRIVAL_RATE"), std::string::npos);
  }
}

TEST(OptionsServing, ZeroJobsThrowsOnlyWhenServing) {
  serving_env env;
  // serve_jobs = 0 is only rejected when ITYR_SERVE is on.
  env.set("ITYR_SERVE_JOBS", "0");
  EXPECT_NO_THROW(ic::options::from_env());
  env.set("ITYR_SERVE", "1");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  try {
    ic::options::from_env();
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_SERVE_JOBS"), std::string::npos);
  }
}

TEST(OptionsServing, ValidateDirectly) {
  // The validator is callable on programmatically built options too (benches
  // and tests construct options without from_env).
  EXPECT_NO_THROW(ic::validate_serving(false, 1000.0, 16));
  EXPECT_NO_THROW(ic::validate_serving(true, 0.5, 1));
  EXPECT_NO_THROW(ic::validate_serving(false, 1000.0, 0));
  EXPECT_THROW(ic::validate_serving(true, 0.0, 16), ic::error);
  EXPECT_THROW(ic::validate_serving(false, -1.0, 16), ic::error);
  EXPECT_THROW(ic::validate_serving(true, 1000.0, 0), ic::error);
}
