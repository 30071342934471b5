#pragma once

/// \file
/// UTS (Unbalanced Tree Search) and UTS-Mem (paper Section 6.3).
///
/// The tree shape follows the classic UTS benchmark (Olivier et al.): each
/// node carries a 20-byte SHA-1 state; child i's state is SHA-1(parent state
/// || i), and the number of children is drawn from the node's state via a
/// geometric (or binomial) distribution. The tree is therefore fully
/// deterministic given the root seed, yet highly unbalanced.
///
/// * uts_count_*     — the original UTS: counts nodes while generating the
///                     tree on the fly (no global memory access).
/// * uts_mem_build   — UTS-Mem phase 1: materializes the same tree into
///                     global memory, allocating each node noncollectively
///                     on whichever rank the work-stealing scheduler placed
///                     the task (so nearby nodes land in nearby blocks).
/// * uts_mem_traverse— UTS-Mem phase 2: counts nodes by chasing global
///                     pointers; this is the measured, cache-sensitive part.

#include <cstddef>
#include <cstdint>

#include "itoyori/common/sha1.hpp"
#include "itoyori/core/ityr.hpp"

namespace ityr::apps {

/// Tree-shape parameters (a scaled-down analog of UTS's T1L/T1XL classes).
struct uts_params {
  enum class tree_kind { geometric, binomial };

  tree_kind kind = tree_kind::geometric;
  int root_seed = 19;
  // Geometric: expected branching decreases linearly from b0 at the root to
  // 0 at depth gen_mx.
  double b0 = 4.0;
  int gen_mx = 13;
  // Binomial: each node has m_child children with probability q, else 0.
  int m_child = 8;
  double q = 0.124999;

  /// Fork-join grain: subtrees whose root is deeper than this still fork.
  /// (UTS tasks are inherently fine-grained; no cutoff is used.)
};

/// UTS node identity: the SHA-1 state.
struct uts_node_id {
  common::sha1::digest_type state;
};

uts_node_id uts_root(const uts_params& p);
uts_node_id uts_child(const uts_node_id& parent, int i);
int uts_num_children(const uts_params& p, const uts_node_id& id, int depth);

/// Serial reference count (tests / serial baseline).
std::uint64_t uts_count_serial(const uts_params& p);

/// Fork-join parallel count without global memory (original UTS).
std::uint64_t uts_count_parallel(const uts_params& p);

// ---------------------------------------------------------------------------
// UTS-Mem: the tree materialized in global memory
// ---------------------------------------------------------------------------

/// In-memory tree node. Variable arity: the children pointers follow the
/// header in the same noncollective allocation, which holds exactly
/// n_children of them, so a leaf is just its 32-byte header. The payload
/// mimics UTS-Mem's node record (the SHA-1 state is kept so traversal
/// touches real data).
struct uts_mem_node {
  std::uint32_t n_children = 0;
  std::uint32_t depth = 0;
  common::sha1::digest_type state{};
  global_ptr<uts_mem_node> children[1];  // flexible-array idiom; n_children entries

  static std::size_t alloc_size(std::uint32_t n_children) {
    return offsetof(uts_mem_node, children) + n_children * sizeof(global_ptr<uts_mem_node>);
  }
};

/// Build the UTS tree in global memory (parallel, work-stolen construction;
/// nodes are allocated with the noncollective policy on the executing rank).
/// Returns the root node pointer and the total node count.
struct uts_mem_tree {
  global_ptr<uts_mem_node> root{};
  std::uint64_t n_nodes = 0;
};

uts_mem_tree uts_mem_build(const uts_params& p);

/// Count nodes by traversing the global-memory tree (the measured phase:
/// read-only pointer chasing).
std::uint64_t uts_mem_traverse(global_ptr<uts_mem_node> root);

/// Free every node of the tree (post-order).
void uts_mem_destroy(global_ptr<uts_mem_node> root);

}  // namespace ityr::apps
