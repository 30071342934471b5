#include "itoyori/sim/rank_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "itoyori/common/rng.hpp"
#include "itoyori/sim/engine.hpp"

namespace is = ityr::sim;
namespace ic = ityr::common;

namespace {

/// Reference for rank_queue: an O(n) scan over all ranks. A strict `<` over
/// ascending ranks keeps the first minimum, i.e. the lowest rank among equal
/// clocks.
class linear_oracle {
public:
  explicit linear_oracle(int n)
      : clock_(static_cast<std::size_t>(n), 0.0), alive_(static_cast<std::size_t>(n), true) {}

  int top() const {
    int best = -1;
    double best_clock = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < clock_.size(); r++) {
      if (alive_[r] && clock_[r] < best_clock) {
        best = static_cast<int>(r);
        best_clock = clock_[r];
      }
    }
    return best;
  }

  void update(int rank, double clock) { clock_[static_cast<std::size_t>(rank)] = clock; }
  void remove(int rank) { alive_[static_cast<std::size_t>(rank)] = false; }

private:
  std::vector<double> clock_;
  std::vector<bool> alive_;
};

ic::options det_opts(int nodes, int rpn, std::uint64_t seed = 42) {
  ic::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.deterministic = true;
  o.seed = seed;
  return o;
}

/// Drive the tree and the oracle through an identical op sequence and
/// assert every top() agrees. Clock increments are drawn from a small set of
/// exact doubles so ties are frequent (the interesting case).
void fuzz_against_oracle(int n, std::uint64_t seed) {
  is::rank_queue q(n);
  linear_oracle oracle(n);
  std::vector<double> clock(static_cast<std::size_t>(n), 0.0);
  ic::xoshiro256ss rng(seed);
  const double steps[] = {0.0, 0.25, 0.25, 0.5, 1.0};  // exact in binary; tie-heavy
  int left = n;
  while (left > 0) {
    const int r = q.top();
    ASSERT_EQ(r, oracle.top()) << "n=" << n << " seed=" << seed;
    ASSERT_GE(r, 0);
    if (rng.below(8) == 0) {  // rank finishes
      q.remove(r);
      oracle.remove(r);
      left--;
      continue;
    }
    clock[static_cast<std::size_t>(r)] += steps[rng.below(5)];
    q.update(r, clock[static_cast<std::size_t>(r)]);
    oracle.update(r, clock[static_cast<std::size_t>(r)]);
  }
  EXPECT_EQ(q.top(), -1);
  EXPECT_EQ(oracle.top(), -1);
}

/// Run `body` on every rank and check, at each resume, that the engine
/// picked what the scan picks: the live rank with the smallest (committed
/// clock, rank). Returns the resume order.
std::vector<int> run_checking_argmin(const ic::options& o,
                                     const std::function<void(is::engine&, int)>& body) {
  is::engine e(o);
  const int n = e.n_ranks();
  linear_oracle oracle(n);
  std::vector<bool> done(static_cast<std::size_t>(n), false);
  std::vector<int> order;
  e.set_resume_hook([&](int r, double clk) {
    ASSERT_EQ(r, oracle.top()) << "resume " << order.size();
    order.push_back(r);
    if (done[static_cast<std::size_t>(r)]) {
      oracle.remove(r);
    } else {
      oracle.update(r, clk);
    }
  });
  e.run([&](int r) {
    body(e, r);
    done[static_cast<std::size_t>(r)] = true;  // this slice ends the rank
  });
  EXPECT_EQ(oracle.top(), -1);
  return order;
}

/// Mix of rank-skewed and rng-driven advances, plus O(1) charges that the
/// queue only observes at the next yield.
void skewed_body(is::engine& e, int r) {
  for (int i = 0; i < 20; i++) {
    e.charge(0.125 * static_cast<double>(r % 3));
    e.advance(0.25 * static_cast<double>(1 + e.rng().below(4)));
  }
}

}  // namespace

TEST(RankQueue, InitialOrderIsRankOrder) {
  // All clocks equal: ties must break toward the lowest rank, repeatedly,
  // down to an empty queue; padded sizes included.
  for (const int n : {0, 1, 2, 3, 8, 33, 1025}) {
    is::rank_queue q(n);
    for (int r = 0; r < n; r++) {
      ASSERT_EQ(q.top(), r) << "n=" << n;
      q.remove(r);
    }
    EXPECT_EQ(q.top(), -1) << "n=" << n;
  }
}

TEST(RankQueue, TieBreakIsLowestRankAfterUpdates) {
  is::rank_queue q(4);
  // Bring every rank to the same clock through different update paths; only
  // the top rank may be updated, so each step names the expected winner.
  q.update(0, -0.0);
  ASSERT_EQ(q.top(), 0);  // -0.0 == 0.0: still tied, lowest rank wins
  q.update(0, 1.0);
  ASSERT_EQ(q.top(), 1);
  q.update(1, 2.0);
  ASSERT_EQ(q.top(), 2);
  q.update(2, 2.0);
  ASSERT_EQ(q.top(), 3);
  q.update(3, 1.0);
  ASSERT_EQ(q.top(), 0);  // ties rank 3 at 1.0
  q.update(0, 2.0);
  ASSERT_EQ(q.top(), 3);
  q.update(3, 2.0);
  for (int r = 0; r < 4; r++) {
    EXPECT_EQ(q.top(), r);
    q.remove(r);
  }
  EXPECT_EQ(q.top(), -1);
}

TEST(RankQueue, EqualClocksCycleInRankOrder) {
  for (const int n : {1, 2, 33, 1024, 1025}) {
    is::rank_queue q(n);
    for (int round = 1; round <= 3; round++) {
      for (int r = 0; r < n; r++) {
        ASSERT_EQ(q.top(), r) << "n=" << n << " round=" << round;
        q.update(r, 0.5 * round);
      }
    }
  }
}

TEST(RankQueue, FuzzMatchesLinearOracle) {
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    // One leaf, the smallest pair, non-powers of two just past a power
    // (deepest padding), and the serve workload's 1024 ranks.
    for (const int n : {1, 2, 33, 257, 1024, 1025}) fuzz_against_oracle(n, seed);
  }
}

// Every resume picks the live rank with the smallest (committed clock,
// rank), across seeds, on a workload with rank-dependent advances.
TEST(EngineSched, ResumeIsArgminAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 10; seed++) {
    const auto order = run_checking_argmin(det_opts(4, 4, seed), skewed_body);
    EXPECT_EQ(order.size(), 16u * 21u);  // 20 advances + the final slice per rank
  }
}

// Tie-heavy workload: every rank advances by the same exact dt, so the queue
// is all-ties all the time — the stress case for tie-break stability.
TEST(EngineSched, ResumeIsArgminOnUniformTies) {
  auto body = [](is::engine& e, int) {
    for (int i = 0; i < 50; i++) e.advance(0.5);
  };
  const auto order = run_checking_argmin(det_opts(2, 8), body);
  // With all-equal clocks the resume order must cycle 0..n-1.
  ASSERT_EQ(order.size(), 16u * 51u);
  for (std::size_t i = 0; i < order.size(); i++) {
    EXPECT_EQ(order[i], static_cast<int>(i % 16));
  }
}

// The serve workload's shape: 1024 ranks on fat_tree:4,4, a 10-level tree.
TEST(EngineSched, ResumeIsArgminAtServeShape) {
  ic::options o = det_opts(128, 8, 7);
  o.topology = ic::topology_spec::parse("fat_tree:4,4");
  const auto order = run_checking_argmin(o, [](is::engine& e, int r) {
    for (int i = 0; i < 4; i++) {
      e.charge(0.125 * static_cast<double>(r % 5));
      e.advance(0.25 * static_cast<double>(1 + e.rng().below(4)));
    }
  });
  EXPECT_EQ(order.size(), 1024u * 5u);
}
