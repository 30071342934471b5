// Parameterized UTS sweep: for a spread of tree shapes and seeds, the
// work-stolen parallel count, the in-memory build, and the global-memory
// traversal must all agree with the serial generator, which must give the
// golden tree size.

#include <gtest/gtest.h>

#include <ostream>

#include "../support/fixture.hpp"
#include "itoyori/apps/uts.hpp"

namespace ia = ityr::apps;

namespace {

struct uts_case {
  const char* name;
  ia::uts_params params;
  std::uint64_t nodes;  ///< golden tree size, cross-checked against hashlib
};

ia::uts_params geo(double b0, int gen_mx, int seed) {
  ia::uts_params p;
  p.kind = ia::uts_params::tree_kind::geometric;
  p.b0 = b0;
  p.gen_mx = gen_mx;
  p.root_seed = seed;
  return p;
}

ia::uts_params bin(int m, double q, int seed) {
  ia::uts_params p;
  p.kind = ia::uts_params::tree_kind::binomial;
  p.m_child = m;
  p.q = q;
  p.root_seed = seed;
  return p;
}

// Every count in the test goes through `uts_child`, so a hash that is wrong
// but consistent would still agree with itself; the golden sizes pin the
// trees. They match an independent re-implementation of the generator over
// Python's hashlib.sha1.
const uts_case kCases[] = {
    {"geo_shallow_wide", geo(8.0, 4, 1), 470},
    {"geo_deep_narrow", geo(2.0, 14, 2), 1},
    {"geo_mid", geo(4.0, 9, 3), 2046},
    {"geo_other_seed", geo(4.0, 9, 77), 720},
    {"bin_subcritical", bin(4, 0.2, 4), 25},
    {"bin_bushy", bin(8, 0.11, 5), 121},
    {"bin_sparse", bin(2, 0.4, 6), 3},
};

// gtest_discover_tests names each case `Shapes/UtsShapes.AllCountsAgree/<printed
// value>`. Without this printer gtest dumps the struct's raw bytes, `name`
// pointer included, and the test names would change with the load address.
void PrintTo(const uts_case& c, std::ostream* os) { *os << c.name; }

class UtsShapes : public ::testing::TestWithParam<uts_case> {};

}  // namespace

TEST_P(UtsShapes, AllCountsAgree) {
  const auto& c = GetParam();
  const std::uint64_t expect = ia::uts_count_serial(c.params);
  ASSERT_EQ(expect, c.nodes) << c.name;

  auto o = ityr::test::tiny_opts(2, 2);
  o.noncoll_heap_per_rank = 16 * ityr::common::MiB;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto p = c.params;
    auto res = ityr::root_exec([p] {
      const std::uint64_t counted = ia::uts_count_parallel(p);
      auto tree = ia::uts_mem_build(p);
      const std::uint64_t traversed = ia::uts_mem_traverse(tree.root);
      ia::uts_mem_destroy(tree.root);
      struct r {
        std::uint64_t counted, built, traversed;
      };
      return r{counted, tree.n_nodes, traversed};
    });
    EXPECT_EQ(res.counted, expect) << c.name;
    EXPECT_EQ(res.built, expect) << c.name;
    EXPECT_EQ(res.traversed, expect) << c.name;
  });
}

INSTANTIATE_TEST_SUITE_P(Shapes, UtsShapes, ::testing::ValuesIn(kCases));
