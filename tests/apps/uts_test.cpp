#include "itoyori/apps/uts.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../support/fixture.hpp"

namespace ia = ityr::apps;

namespace {

ityr::options uts_opts(int nodes = 2, int rpn = 2) {
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.noncoll_heap_per_rank = 8 * ityr::common::MiB;
  return o;
}

ia::uts_params small_geo() {
  ia::uts_params p;
  p.kind = ia::uts_params::tree_kind::geometric;
  p.b0 = 3.0;
  p.gen_mx = 8;
  p.root_seed = 19;
  return p;
}

ia::uts_params small_bin() {
  ia::uts_params p;
  p.kind = ia::uts_params::tree_kind::binomial;
  p.m_child = 4;
  p.q = 0.20;
  p.root_seed = 42;
  return p;
}

std::string hex(const ityr::common::sha1::digest_type& d) {
  static const char* k = "0123456789abcdef";
  std::string s;
  for (auto b : d) {
    s += k[b >> 4];
    s += k[b & 0xf];
  }
  return s;
}

}  // namespace

TEST(Uts, RootAndChildrenDeterministic) {
  auto p = small_geo();
  auto r1 = ia::uts_root(p);
  auto r2 = ia::uts_root(p);
  EXPECT_EQ(r1.state, r2.state);
  auto c0 = ia::uts_child(r1, 0);
  auto c1 = ia::uts_child(r1, 1);
  EXPECT_NE(c0.state, c1.state);
  EXPECT_EQ(ia::uts_child(r1, 0).state, c0.state);
  // SHA-1 of the 20-byte root state and then the child index as 4
  // little-endian bytes; the root state is SHA-1 of the seed's 4
  // little-endian bytes. Both digests are from Python's hashlib.sha1.
  EXPECT_EQ(hex(r1.state), "fe5aa6438ae9b661b033b91e9c679ad2898cbfd4");
  EXPECT_EQ(hex(c1.state), "1800f6860847cfe59791a8e5d4fa88645ffc4436");
}

TEST(Uts, DifferentSeedsGiveDifferentTrees) {
  auto p1 = small_geo();
  auto p2 = small_geo();
  p2.root_seed = 20;
  EXPECT_NE(ia::uts_count_serial(p1), ia::uts_count_serial(p2));
}

TEST(Uts, GeometricDepthLimitHolds) {
  auto p = small_geo();
  // At depth >= gen_mx nodes must have no children.
  auto root = ia::uts_root(p);
  EXPECT_EQ(ia::uts_num_children(p, root, p.gen_mx), 0);
  EXPECT_EQ(ia::uts_num_children(p, root, p.gen_mx + 5), 0);
}

// Golden size; matches a re-implementation of the generator over hashlib.
TEST(Uts, SerialCountIsStable) {
  EXPECT_EQ(ia::uts_count_serial(small_geo()), 1274u);
}

TEST(Uts, ParallelCountMatchesSerial) {
  auto p = small_geo();
  const auto expect = ia::uts_count_serial(p);
  ityr::runtime rt(uts_opts());
  rt.spmd([&] {
    auto got = ityr::root_exec([p] { return ia::uts_count_parallel(p); });
    EXPECT_EQ(got, expect);
  });
}

TEST(Uts, BinomialParallelCountMatchesSerial) {
  auto p = small_bin();
  const auto expect = ia::uts_count_serial(p);
  ityr::runtime rt(uts_opts());
  rt.spmd([&] {
    auto got = ityr::root_exec([p] { return ia::uts_count_parallel(p); });
    EXPECT_EQ(got, expect);
  });
}

TEST(UtsMem, BuildCountMatchesSerial) {
  auto p = small_geo();
  const auto expect = ia::uts_count_serial(p);
  ityr::runtime rt(uts_opts());
  rt.spmd([&] {
    auto built = ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      return tree.n_nodes;
    });
    EXPECT_EQ(built, expect);
  });
}

TEST(UtsMem, TraverseCountsEveryNode) {
  auto p = small_geo();
  const auto expect = ia::uts_count_serial(p);
  ityr::runtime rt(uts_opts());
  rt.spmd([&] {
    auto counts = ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      auto traversed = ia::uts_mem_traverse(tree.root);
      return std::pair<std::uint64_t, std::uint64_t>(tree.n_nodes, traversed);
    });
    EXPECT_EQ(counts.first, expect);
    EXPECT_EQ(counts.second, expect);
  });
}

TEST(UtsMem, TraverseTwiceSameResult) {
  auto p = small_geo();
  ityr::runtime rt(uts_opts());
  rt.spmd([&] {
    auto pairv = ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      auto t1 = ia::uts_mem_traverse(tree.root);
      auto t2 = ia::uts_mem_traverse(tree.root);
      return std::pair<std::uint64_t, std::uint64_t>(t1, t2);
    });
    EXPECT_EQ(pairv.first, pairv.second);
  });
}

TEST(UtsMem, DestroyReturnsAllMemory) {
  auto p = small_geo();
  p.gen_mx = 6;  // small
  ityr::runtime rt(uts_opts(1, 2));
  rt.spmd([&] {
    std::uint64_t used_before = 0;
    for (int r = 0; r < ityr::n_ranks(); r++) {
      used_before += ityr::rt().pgas().heap().nc_bytes_in_use(r);
    }
    ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      ia::uts_mem_destroy(tree.root);
    });
    ityr::barrier();
    // Drain remote-free queues on every rank.
    ityr::rt().pgas().heap().poll();
    ityr::barrier();
    std::uint64_t used_after = 0;
    for (int r = 0; r < ityr::n_ranks(); r++) {
      used_after += ityr::rt().pgas().heap().nc_bytes_in_use(r);
    }
    EXPECT_EQ(used_before, used_after);
  });
}

TEST(UtsMem, BuildDistributesAllocationsAcrossRanks) {
  auto p = small_geo();
  p.b0 = 4.0;
  p.gen_mx = 10;
  ityr::runtime rt(uts_opts(2, 2));
  rt.spmd([&] {
    ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      (void)tree;
    });
    ityr::barrier();
    if (ityr::my_rank() == 0) {
      int ranks_with_allocs = 0;
      for (int r = 0; r < ityr::n_ranks(); r++) {
        if (ityr::rt().pgas().heap().nc_bytes_in_use(r) > 0) ranks_with_allocs++;
      }
      // Work stealing should have spread construction over several ranks.
      EXPECT_GT(ranks_with_allocs, 1);
    }
  });
}

TEST(UtsMem, WorksWithoutCache) {
  auto p = small_geo();
  p.gen_mx = 7;
  const auto expect = ia::uts_count_serial(p);
  auto o = uts_opts();
  o.policy = ityr::cache_policy::none;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto got = ityr::root_exec([p] {
      auto tree = ia::uts_mem_build(p);
      return ia::uts_mem_traverse(tree.root);
    });
    EXPECT_EQ(got, expect);
  });
}
