// Differential tests for the steal policy (ITYR_STEAL_POLICY). The contract
// is two-sided:
//
//  * OFF-PATH: the default run must be bit-identical to a run that sets
//    `random` explicitly. "Bit identical" is checked on per-rank virtual
//    clocks (deterministic resume cost makes them exact), scheduler
//    counters, and the final heap state — identical RNG consumption is the
//    only way all three line up.
//
//  * ON-PATH: `hierarchical` (escalation ladder + adaptive backoff) may
//    reshuffle the steal schedule arbitrarily but must still produce the
//    sequential oracle's heap state (DAG consistency is
//    schedule-independent), with synchronous and asynchronous release alike.
//
// The steal schedule is varied via the engine seed across 10 runs.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/common/topology.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace {

// Random fork-join plan (same shape as release_diff_test): leaves mutate
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

/// Everything a steal-schedule change would perturb: per-rank virtual
/// clocks (exact under deterministic resume costs), the scheduler's
/// counters, and the final heap contents.
struct fingerprint {
  std::vector<double> clocks;
  std::vector<std::uint32_t> final_state;
  ityr::sched::scheduler::stats st;
  double inline_resumes = 0;  ///< engine.inline_resumes
};

fingerprint run_fp(const plan& p, unsigned seed, int nodes, int rpn,
                   const std::function<void(ityr::common::options&)>& tweak) {
  fingerprint fp;
  auto o = ityr::test::tiny_opts(nodes, rpn);
  o.seed = seed;  // varies victim selection -> varies the steal schedule
  tweak(o);
  ityr::runtime rt(o);
  fp.clocks.assign(static_cast<std::size_t>(nodes * rpn), 0.0);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(p.array_size);
    const plan* pp = &p;
    ityr::root_exec([pp, a] {
      ityr::parallel_fill(a, pp->array_size, 64, std::uint32_t{0});
      run_parallel(pp, pp->root, a);
    });
    if (ityr::my_rank() == 0) {
      fp.final_state.resize(p.array_size);
      ityr::with_checkout(a, p.array_size, ityr::access_mode::read,
                          [&](const std::uint32_t* got) {
                            for (std::size_t i = 0; i < p.array_size; i++) {
                              fp.final_state[i] = got[i];
                            }
                          });
    }
    ityr::barrier();
    fp.clocks[static_cast<std::size_t>(ityr::my_rank())] = rt.eng().now();
    ityr::coll_delete(a, p.array_size);
  });
  fp.st = rt.sched().get_stats();
  fp.inline_resumes = rt.metrics().total("engine.inline_resumes");
  return fp;
}

void expect_bit_identical(const fingerprint& a, const fingerprint& b) {
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t r = 0; r < a.clocks.size(); r++) {
    // Exact double equality on purpose: any divergence in RNG consumption or
    // advance() sequencing shows up here first.
    EXPECT_EQ(a.clocks[r], b.clocks[r]) << "rank " << r << " clock diverged";
  }
  EXPECT_EQ(a.st.forks, b.st.forks);
  EXPECT_EQ(a.st.steal_attempts, b.st.steal_attempts);
  EXPECT_EQ(a.st.steals, b.st.steals);
  EXPECT_EQ(a.st.intra_node_steals, b.st.intra_node_steals);
  EXPECT_EQ(a.st.local_pops, b.st.local_pops);
  EXPECT_EQ(a.st.migrations, b.st.migrations);
  EXPECT_EQ(a.st.migrated_stack_bytes, b.st.migrated_stack_bytes);
  EXPECT_EQ(a.final_state, b.final_state);
}

class StealKnobDifferential : public ::testing::TestWithParam<unsigned> {
 protected:
  plan make_plan(unsigned seed) {
    ityr::common::xoshiro256ss rng(seed);
    plan p;
    p.array_size = 8 * 1024 + rng.below(8 * 1024);
    p.root = build_plan(p, rng, 0, p.array_size, 6);
    return p;
  }
};

TEST_P(StealKnobDifferential, DefaultsMatchExplicitKnobDefaults) {
  const unsigned seed = GetParam();
  const plan p = make_plan(seed);
  const fingerprint implicit = run_fp(p, seed, 2, 2, [](ityr::common::options&) {});
  const fingerprint explicit_defaults = run_fp(p, seed, 2, 2, [](ityr::common::options& o) {
    o.steal = ityr::common::steal_policy::random;
  });
  expect_bit_identical(implicit, explicit_defaults);
}

TEST_P(StealKnobDifferential, OnPathMatchesSerialOracle) {
  const unsigned seed = GetParam();
  const plan p = make_plan(seed);
  std::vector<std::uint32_t> oracle(p.array_size, 0);
  run_serial(p, p.root, oracle);

  // Hierarchical stealing on a 4-node fat tree (two distance classes above
  // the node): the schedule changes, the answer must not. The second run
  // keeps victim release epochs in flight while stacks migrate, so each
  // steal's Acquire #2 must wait out the victim's pending write-back rounds.
  for (const bool async : {false, true}) {
    const fingerprint treated = run_fp(p, seed, 4, 2, [async](ityr::common::options& o) {
      o.topology = ityr::common::topology_spec::parse("fat_tree:2,2");
      o.steal = ityr::common::steal_policy::hierarchical;
      if (async) o.async_release = true;
    });
    EXPECT_GT(treated.st.steals, 0u) << "async_release=" << async;
    // Idle rounds run as inline steps whatever the release protocol; dirty
    // data at an async idle flush wakes the fiber instead.
    EXPECT_GT(treated.inline_resumes, 0.0) << "async_release=" << async;
    ASSERT_EQ(treated.final_state.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); i++) {
      ASSERT_EQ(treated.final_state[i], oracle[i])
          << "treated run diverged at " << i << " (async_release=" << async << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, StealKnobDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 11u, 13u, 23u, 42u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
