#include "itoyori/common/topology.hpp"

#include <gtest/gtest.h>

#include <string>

#include "../support/scoped_env.hpp"
#include "itoyori/common/options.hpp"

namespace ic = ityr::common;
namespace it = ityr::test;

namespace {

ic::network_model nm() {
  ic::network_model m;
  return m;  // defaults: distinct intra/inter latency and bandwidth
}

}  // namespace

TEST(TopologySpec, ParsesFlat) {
  const auto s = ic::topology_spec::parse("flat");
  EXPECT_EQ(s.kind, ic::topology_kind::flat);
  EXPECT_EQ(s.str(), "flat");
}

TEST(TopologySpec, ParsesFatTree) {
  const auto s = ic::topology_spec::parse("fat_tree:4,3");
  EXPECT_EQ(s.kind, ic::topology_kind::fat_tree);
  EXPECT_EQ(s.fat_tree_arity, 4);
  EXPECT_EQ(s.fat_tree_levels, 3);
  EXPECT_EQ(s.str(), "fat_tree:4,3");
}

TEST(TopologySpec, RejectsMalformedStrings) {
  EXPECT_THROW(ic::topology_spec::parse(""), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("mesh"), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("flat:1"), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("fat_tree"), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("fat_tree:4"), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("fat_tree:a,b"), ic::error);
  EXPECT_THROW(ic::topology_spec::parse("fat_tree:4,3,2"), ic::error);
}

TEST(TopologyValidate, RejectsBadClusterShape) {
  const ic::topology_spec flat;
  EXPECT_THROW(ic::validate_topology(0, 4, flat), ic::error);
  EXPECT_THROW(ic::validate_topology(-1, 4, flat), ic::error);
  EXPECT_THROW(ic::validate_topology(4, 0, flat), ic::error);
  EXPECT_THROW(ic::validate_topology(4, -2, flat), ic::error);
  EXPECT_NO_THROW(ic::validate_topology(4, 4, flat));
}

TEST(TopologyValidate, RejectsUndersizedFatTree) {
  auto s = ic::topology_spec::parse("fat_tree:2,2");  // capacity 4 nodes
  EXPECT_NO_THROW(ic::validate_topology(4, 1, s));
  EXPECT_THROW(ic::validate_topology(5, 1, s), ic::error);
}

// Malformed/bad env must surface as a clear startup error through the real
// options::from_env path, not as corrupt distance math later.
TEST(TopologyEnv, MalformedTopologyStringThrowsFromEnv) {
  it::scoped_env g("ITYR_TOPOLOGY", "fat_tree:banana");
  EXPECT_THROW(ic::options::from_env(), ic::error);
}

// `dragonfly` names no topology kind, so its spec fails at startup like any
// other unknown kind.
TEST(TopologyEnv, DragonflyIsRejectedAsMalformed) {
  it::scoped_env g("ITYR_TOPOLOGY", "dragonfly:8");
  try {
    (void)ic::options::from_env();
    FAIL() << "ITYR_TOPOLOGY=dragonfly:8 was accepted";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("malformed ITYR_TOPOLOGY 'dragonfly:8'"),
              std::string::npos)
        << e.what();
  }
}

TEST(TopologyEnv, UndersizedTopologyThrowsFromEnv) {
  it::scoped_env nodes("ITYR_N_NODES", "9");
  it::scoped_env g("ITYR_TOPOLOGY", "fat_tree:2,3");  // capacity 8 < 9 nodes
  EXPECT_THROW(ic::options::from_env(), ic::error);
}

TEST(TopologyEnv, BadRanksPerNodeThrowsFromEnv) {
  it::scoped_env g("ITYR_RANKS_PER_NODE", "0");
  EXPECT_THROW(ic::options::from_env(), ic::error);
}

TEST(TopologyEnv, WellFormedTopologyRoundTrips) {
  it::scoped_env nodes("ITYR_N_NODES", "8");
  it::scoped_env g("ITYR_TOPOLOGY", "fat_tree:2,3");
  const auto o = ic::options::from_env();
  EXPECT_EQ(o.topology.str(), "fat_tree:2,3");
}

TEST(Topology, FlatMatchesTwoTierModel) {
  const auto m = nm();
  ic::topology t(4, 2, ic::topology_spec{}, m);
  EXPECT_EQ(t.n_classes(), 2);
  // Same node (incl. self) is class 0 at intra cost; everything else class 1
  // at the exact historic inter values (bit-identical doubles).
  EXPECT_EQ(t.class_of(0, 1), 0);
  EXPECT_EQ(t.class_of(3, 3), 0);
  EXPECT_EQ(t.class_of(0, 2), 1);
  EXPECT_EQ(t.class_of(0, 7), 1);
  EXPECT_EQ(t.latency(0, 1), m.intra_latency);
  EXPECT_EQ(t.bandwidth(0, 1), m.intra_bandwidth);
  EXPECT_EQ(t.latency(0, 7), m.inter_latency);
  EXPECT_EQ(t.bandwidth(0, 7), m.inter_bandwidth);
}

TEST(Topology, FatTreeClassIsLcaLevel) {
  const auto m = nm();
  // 8 nodes under a binary tree with 3 switch levels:
  // leaves {0,1} {2,3} ... share a level-1 switch; {0..3} {4..7} level-2;
  // everything level-3.
  ic::topology t(8, 1, ic::topology_spec::parse("fat_tree:2,3"), m);
  EXPECT_EQ(t.n_classes(), 4);  // class 0 + levels 1..3
  EXPECT_EQ(t.class_of(0, 1), 1);
  EXPECT_EQ(t.class_of(0, 2), 2);
  EXPECT_EQ(t.class_of(0, 3), 2);
  EXPECT_EQ(t.class_of(0, 4), 3);
  EXPECT_EQ(t.class_of(3, 4), 3);
  EXPECT_EQ(t.class_of(6, 7), 1);
  // Latency scales with LCA level; bandwidth halves per level above 1.
  EXPECT_EQ(t.latency_of_class(1), m.inter_latency);
  EXPECT_EQ(t.latency_of_class(2), m.inter_latency * 2.0);
  EXPECT_EQ(t.latency_of_class(3), m.inter_latency * 3.0);
  EXPECT_EQ(t.bandwidth_of_class(1), m.inter_bandwidth);
  EXPECT_EQ(t.bandwidth_of_class(2), m.inter_bandwidth / 2.0);
  EXPECT_EQ(t.bandwidth_of_class(3), m.inter_bandwidth / 4.0);
}

TEST(Topology, ClassMatrixIsSymmetric) {
  const auto m = nm();
  ic::topology t(8, 2, ic::topology_spec::parse("fat_tree:2,3"), m);
  for (int a = 0; a < t.n_ranks(); a++) {
    for (int b = 0; b < t.n_ranks(); b++) {
      EXPECT_EQ(t.class_of(a, b), t.class_of(b, a)) << a << "," << b;
    }
  }
}
