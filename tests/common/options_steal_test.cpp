#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "itoyori/common/options.hpp"

namespace ic = ityr::common;

// Startup parsing of the steal-policy knob (ITYR_STEAL_POLICY): round-trips
// through the environment and clear errors for unknown policy names.

TEST(OptionsSteal, EnvDefaultsAreThePaperProtocol) {
  ::unsetenv("ITYR_STEAL_POLICY");
  // Random victim selection, bit-identical to pre-knob runs.
  EXPECT_EQ(ic::options::from_env().steal, ic::steal_policy::random);
}

TEST(OptionsSteal, EnvRoundTrip) {
  ::setenv("ITYR_STEAL_POLICY", "hierarchical", 1);
  EXPECT_EQ(ic::options::from_env().steal, ic::steal_policy::hierarchical);
  ::setenv("ITYR_STEAL_POLICY", "random", 1);
  EXPECT_EQ(ic::options::from_env().steal, ic::steal_policy::random);
  ::unsetenv("ITYR_STEAL_POLICY");
}

TEST(OptionsSteal, PolicyNamesRoundTripThroughStrings) {
  for (auto p : {ic::steal_policy::random, ic::steal_policy::hierarchical}) {
    EXPECT_EQ(ic::steal_policy_from_string(ic::to_string(p)), p);
  }
}

TEST(OptionsSteal, BogusPolicyThrows) {
  // Unknown enum names are API misuse (api_error), matching the other
  // enum-valued knobs. The retired node-first policy is rejected the same way.
  for (const char* bogus : {"nearest_neighbor", "node_first"}) {
    ::setenv("ITYR_STEAL_POLICY", bogus, 1);
    EXPECT_THROW(ic::options::from_env(), ic::api_error) << bogus;
    try {
      ic::options::from_env();
      FAIL() << "expected ic::api_error for " << bogus;
    } catch (const ic::api_error& e) {
      // The message lists the legal policy names so a typo is diagnosable
      // from the exception alone.
      const std::string what = e.what();
      EXPECT_NE(what.find("random"), std::string::npos) << what;
      EXPECT_NE(what.find("hierarchical"), std::string::npos) << what;
    }
  }
  ::unsetenv("ITYR_STEAL_POLICY");
}
