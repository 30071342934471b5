#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "itoyori/common/error.hpp"

namespace ityr::sim {

/// Priority structure behind the engine's run loop: "which unfinished rank
/// has the smallest virtual clock?".
///
/// A tournament (loser) tree over one (clock, rank) leaf per rank, padded to
/// a power of two. Internal node v stores the loser of the match between
/// the winners of its two subtrees; slot 0 stores the overall winner. The
/// run loop only ever repositions or removes the rank it just resumed, i.e.
/// the current winner, so the queue is winner-only: update() and remove()
/// take the top rank. The matches that winner played are exactly the
/// internal nodes on its leaf-to-root path, and the losers stored there are
/// the winners of the sibling subtrees, which did not change. Replaying that
/// one path with the new key therefore restores every node: ⌈log2 n⌉
/// compare-and-select steps with a fixed trip count, and no rank → slot
/// index to maintain.
///
/// Ordering is lexicographic (clock, rank): at equal clocks the lowest rank
/// wins, which is the tie-break of a linear scan with a strict `<` (first
/// minimum found). Determinism of the whole simulator rests on this total
/// order, so it must never depend on the tree's shape.
class rank_queue {
public:
  explicit rank_queue(int n) : n_(n) {
    ITYR_CHECK(n >= 0);
    tree_.resize(std::bit_ceil(static_cast<std::size_t>(n)));
    reset();
  }

  /// All ranks become alive again with clock 0 (start of engine::run).
  void reset() {
    // With every clock equal, a subtree's winner is its leftmost live leaf
    // and padding is a suffix, so each node's loser is the leftmost leaf of
    // its right subtree.
    const std::size_t leaves = tree_.size();
    for (std::size_t v = 1; v < leaves; v++) {
      std::size_t leaf = 2 * v + 1;
      while (leaf < leaves) leaf *= 2;
      tree_[v] = initial_key(leaf - leaves);
    }
    tree_[0] = initial_key(0);
  }

  /// Rank with the smallest (clock, rank), or -1 when all ranks finished.
  int top() const {
    if (static_cast<std::uint64_t>(tree_[0] >> 64) == kDone) return -1;
    return static_cast<int>(static_cast<std::uint64_t>(tree_[0]));
  }

  /// Reposition the top rank after its slice; `clock` is its committed
  /// clock (any value >= 0, so a future cost model may also rebate time).
  void update(int rank, double clock) {
    ITYR_CHECK(rank >= 0 && rank == top());
    ITYR_CHECK(clock >= 0.0);
    // + 0.0 turns -0.0 into +0.0, whose bits order with the other clocks.
    replay(make_key(std::bit_cast<std::uint64_t>(clock + 0.0), static_cast<std::size_t>(rank)));
  }

  /// Drop the finished top rank from consideration.
  void remove(int rank) {
    ITYR_CHECK(rank >= 0 && rank == top());
    replay(make_key(kDone, static_cast<std::size_t>(rank)));
  }

private:
  /// (clock bits, rank) as one unsigned integer: for clocks >= +0.0 the IEEE
  /// bit pattern orders like the value, so integer `<` on the key is the
  /// lexicographic (clock, rank) order and compiles to a compare and a
  /// subtract-with-borrow feeding conditional moves.
  using key = unsigned __int128;

  /// High half of a finished rank's or a padding leaf's key: above every
  /// non-negative double's bits, +inf included.
  static constexpr std::uint64_t kDone = ~std::uint64_t{0};

  static key make_key(std::uint64_t clock_bits, std::size_t rank) {
    return (static_cast<key>(clock_bits) << 64) | static_cast<key>(rank);
  }

  key initial_key(std::size_t leaf) const {
    return make_key(leaf < static_cast<std::size_t>(n_) ? 0 : kDone, leaf);
  }

  /// Replay the winner's leaf-to-root path with its new key. Each level
  /// keeps the larger key as that node's loser and carries the smaller one
  /// up; both are selects, so the loop has no data-dependent branch.
  void replay(key cand) {
    const std::size_t leaf = static_cast<std::size_t>(static_cast<std::uint64_t>(cand));
    for (std::size_t v = (leaf + tree_.size()) >> 1; v > 0; v >>= 1) {
      const key other = tree_[v];
      const bool swap = other < cand;
      tree_[v] = swap ? cand : other;
      cand = swap ? other : cand;
    }
    tree_[0] = cand;
  }

  int n_;
  std::vector<key> tree_;  ///< [0] winner, [1, leaves) losers
};

}  // namespace ityr::sim
