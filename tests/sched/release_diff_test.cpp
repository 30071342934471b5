// Differential test for the asynchronous epoch-pipelined release protocol:
// the SAME randomized fork-join computation, run once with blocking releases
// and once with ITYR_ASYNC_RELEASE, must leave the global heap in the SAME
// final state (and both must match a sequential oracle). The steal schedule
// is varied via the engine seed so the watermark plumbing is exercised across
// many different steal/join interleavings. A second input runs async
// release alone on a fat tree, where stacks migrate across two distance
// classes above the node.

#include <gtest/gtest.h>

#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/common/topology.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace {

// Random fork-join plan (same shape as dag_consistency_test): leaves mutate
// slices, internal nodes fork halves in parallel and then run a follow-up
// leaf over the whole range so parents read children's writes.
struct plan_node {
  bool leaf = false;
  std::size_t lo = 0, hi = 0;
  std::uint32_t salt = 0;
  int left = -1, right = -1;
  int next = -1;
};

struct plan {
  std::vector<plan_node> nodes;
  int root = -1;
  std::size_t array_size = 0;
};

int build_plan(plan& p, ityr::common::xoshiro256ss& rng, std::size_t lo, std::size_t hi,
               int depth) {
  const int id = static_cast<int>(p.nodes.size());
  p.nodes.push_back({});
  if (depth == 0 || hi - lo < 8) {
    p.nodes[id] = {true, lo, hi, static_cast<std::uint32_t>(rng()), -1, -1, -1};
    return id;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  const int l = build_plan(p, rng, lo, mid, depth - 1);
  const int r = build_plan(p, rng, mid, hi, depth - 1);
  const int f = static_cast<int>(p.nodes.size());
  p.nodes.push_back({true, lo, hi, static_cast<std::uint32_t>(rng()), -1, -1, -1});
  p.nodes[id] = {false, lo, hi, 0, l, r, f};
  return id;
}

constexpr std::uint32_t mutate(std::uint32_t x, std::uint32_t salt, std::uint32_t idx) {
  return x * 1664525u + salt + idx * 1013904223u;
}

void run_serial(const plan& p, int id, std::vector<std::uint32_t>& a) {
  const plan_node& n = p.nodes[static_cast<std::size_t>(id)];
  if (n.leaf) {
    for (std::size_t i = n.lo; i < n.hi; i++) {
      a[i] = mutate(a[i], n.salt, static_cast<std::uint32_t>(i));
    }
    return;
  }
  run_serial(p, n.left, a);
  run_serial(p, n.right, a);
  run_serial(p, n.next, a);
}

void run_parallel(const plan* p, int id, ityr::global_ptr<std::uint32_t> a) {
  const plan_node& n = p->nodes[static_cast<std::size_t>(id)];
  if (n.leaf) {
    ityr::with_checkout(a + static_cast<std::ptrdiff_t>(n.lo), n.hi - n.lo,
                        ityr::access_mode::read_write, [&](std::uint32_t* ptr) {
                          for (std::size_t i = 0; i < n.hi - n.lo; i++) {
                            ptr[i] = mutate(ptr[i], n.salt,
                                            static_cast<std::uint32_t>(n.lo + i));
                          }
                        });
    return;
  }
  const int l = n.left, r = n.right, f = n.next;
  ityr::parallel_invoke([p, l, a] { run_parallel(p, l, a); },
                        [p, r, a] { run_parallel(p, r, a); });
  run_parallel(p, f, a);
}

plan make_plan(unsigned seed, std::size_t min_size) {
  ityr::common::xoshiro256ss rng(seed);
  plan p;
  p.array_size = min_size + rng.below(min_size);
  p.root = build_plan(p, rng, 0, p.array_size, 6);
  return p;
}

std::vector<std::uint32_t> serial_oracle(const plan& p) {
  std::vector<std::uint32_t> a(p.array_size, 0);
  run_serial(p, p.root, a);
  return a;
}

ityr::common::options mode_opts(unsigned seed, bool async_release, int nodes = 2) {
  auto o = ityr::test::tiny_opts(nodes, 2);
  o.policy = ityr::cache_policy::write_back_lazy;
  o.seed = seed;  // varies victim selection -> varies the steal schedule
  o.async_release = async_release;
  return o;
}

// Runs the plan under one configuration and returns the final array contents
// plus the counts that prove each path actually engaged.
struct run_result {
  std::vector<std::uint32_t> final_state;
  std::uint64_t async_wb_rounds = 0;
  std::uint64_t steals = 0;
  double inline_resumes = 0;  ///< engine.inline_resumes
};

run_result run_mode(const plan& p, const ityr::common::options& o) {
  run_result res;
  ityr::runtime rt(o);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(p.array_size);
    const plan* pp = &p;
    ityr::root_exec([pp, a] {
      ityr::parallel_fill(a, pp->array_size, 64, std::uint32_t{0});
      run_parallel(pp, pp->root, a);
    });
    if (ityr::my_rank() == 0) {
      res.final_state.resize(p.array_size);
      ityr::with_checkout(a, p.array_size, ityr::access_mode::read,
                          [&](const std::uint32_t* got) {
                            for (std::size_t i = 0; i < p.array_size; i++) {
                              res.final_state[i] = got[i];
                            }
                          });
    }
    ityr::barrier();
    ityr::coll_delete(a, p.array_size);
  });
  res.async_wb_rounds = rt.pgas().aggregate_stats().async_wb_rounds;
  res.steals = rt.sched().get_stats().steals;
  res.inline_resumes = rt.metrics().total("engine.inline_resumes");
  return res;
}

class ReleaseDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReleaseDifferential, AsyncMatchesBlockingAcrossStealSchedules) {
  const unsigned seed = GetParam();
  // Large enough to span many blocks across all 4 ranks: leaves then write
  // through the cache to remote-homed data, so releases have real dirty
  // segments to pipeline (a tiny array is home-owned and never dirties).
  const plan p = make_plan(seed, 16 * 1024);
  const std::vector<std::uint32_t> oracle = serial_oracle(p);

  const run_result blocking = run_mode(p, mode_opts(seed, /*async_release=*/false));
  const run_result async = run_mode(p, mode_opts(seed, /*async_release=*/true));

  EXPECT_EQ(blocking.async_wb_rounds, 0u);
  EXPECT_GT(async.async_wb_rounds, 0u) << "async path never engaged";
  ASSERT_EQ(blocking.final_state.size(), oracle.size());
  ASSERT_EQ(async.final_state.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); i++) {
    ASSERT_EQ(blocking.final_state[i], oracle[i]) << "blocking diverged at " << i;
    ASSERT_EQ(async.final_state[i], oracle[i]) << "async diverged at " << i;
  }
}

TEST_P(ReleaseDifferential, AsyncOnFatTreeMatchesSerialOracle) {
  const unsigned seed = GetParam();
  // Half the plan size above: 4x2 ranks with 16-block caches run out of
  // unpinned blocks (too_much_checkout) on some seeds at 16-32 Ki elements.
  const plan p = make_plan(seed, 8 * 1024);
  const std::vector<std::uint32_t> oracle = serial_oracle(p);

  // Victim release epochs stay in flight while stacks migrate across both
  // distance classes, so each steal's Acquire #2 must wait out the victim's
  // pending write-back rounds.
  auto o = mode_opts(seed, /*async_release=*/true, /*nodes=*/4);
  o.topology = ityr::common::topology_spec::parse("fat_tree:2,2");
  const run_result async = run_mode(p, o);

  EXPECT_GT(async.steals, 0u);
  EXPECT_GT(async.async_wb_rounds, 0u) << "async path never engaged";
  // Idle rounds run as inline steps under async release too; only dirty
  // data at an idle flush wakes the fiber.
  EXPECT_GT(async.inline_resumes, 0.0);
  ASSERT_EQ(async.final_state.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); i++) {
    ASSERT_EQ(async.final_state[i], oracle[i]) << "async diverged at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, ReleaseDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 11u, 13u, 23u, 42u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
