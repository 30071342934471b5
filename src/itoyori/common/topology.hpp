#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "itoyori/common/error.hpp"

namespace ityr::common {

struct network_model;

/// Which interconnect shape the simulated cluster is wired as
/// (ITYR_TOPOLOGY). `flat` is the two-tier intra/inter-node model the paper's
/// Tofu-D discussion starts from; `fat_tree` refines the inter-node tier
/// into per-(src,dst) distance classes.
enum class topology_kind {
  flat,      ///< every inter-node pair is one hop ("flat")
  fat_tree,  ///< complete k-ary switch tree ("fat_tree:<arity>,<levels>")
};

const char* to_string(topology_kind k);

/// Parsed form of an ITYR_TOPOLOGY string. Parameter validity against the
/// cluster shape is checked separately by validate_topology() — parse() only
/// rejects syntactically malformed strings.
struct topology_spec {
  topology_kind kind = topology_kind::flat;
  int fat_tree_arity = 2;   ///< children per switch
  int fat_tree_levels = 2;  ///< switch levels above the nodes

  /// Accepts "flat" and "fat_tree:<arity>,<levels>".
  /// Throws common::error naming the malformed piece otherwise.
  static topology_spec parse(const std::string& s);

  /// Canonical string form (round-trips through parse()).
  std::string str() const;

  friend bool operator==(const topology_spec&, const topology_spec&) = default;
};

/// Check cluster-shape invariants at startup with clear errors instead of
/// corrupt distance math later: positive n_nodes / ranks_per_node, fat-tree
/// capacity >= n_nodes.
void validate_topology(int n_nodes, int ranks_per_node, const topology_spec& spec);

/// Distance-class map of the simulated cluster: every (src,dst) rank pair
/// falls into one class, and each class has one modelled latency/bandwidth.
///
/// Class 0 is always intra-node (shared memory). Classes >= 1 refine the
/// inter-node tier:
///  * flat            — one class (1): every inter-node pair, at the base
///    inter-node latency/bandwidth. Costs are bit-identical to the historic
///    two-tier model.
///  * fat_tree:a,L    — class c is "lowest common ancestor switch at level
///    c" (1..L). Latency scales with the hop count (c * inter_latency) and
///    bandwidth halves per level above the first (2:1 oversubscription per
///    uplink stage), so traffic crossing the core is both slower and
///    thinner than traffic within a leaf switch.
///
/// The per-node class matrix is computed once at construction (n_nodes^2
/// bytes), so class_of() is one table load on the message hot path.
class topology {
public:
  topology(int n_nodes, int ranks_per_node, const topology_spec& spec,
           const network_model& nm);

  int n_nodes() const { return n_nodes_; }
  int ranks_per_node() const { return ranks_per_node_; }
  int n_ranks() const { return n_nodes_ * ranks_per_node_; }
  const topology_spec& spec() const { return spec_; }

  int node_of(int rank) const { return rank / ranks_per_node_; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Number of distance classes, including class 0 (intra-node).
  int n_classes() const { return static_cast<int>(class_latency_.size()); }

  /// Distance class of a (src,dst) rank pair; 0 iff same node (including
  /// src == dst).
  int class_of(int src_rank, int dst_rank) const {
    const int a = node_of(src_rank), b = node_of(dst_rank);
    if (a == b) return 0;
    return node_class_[static_cast<std::size_t>(a) * static_cast<std::size_t>(n_nodes_) +
                       static_cast<std::size_t>(b)];
  }

  double latency_of_class(int c) const { return class_latency_[static_cast<std::size_t>(c)]; }
  double bandwidth_of_class(int c) const { return class_bandwidth_[static_cast<std::size_t>(c)]; }

  /// One-way latency / channel bandwidth between two ranks (class lookup).
  double latency(int src_rank, int dst_rank) const {
    return latency_of_class(class_of(src_rank, dst_rank));
  }
  double bandwidth(int src_rank, int dst_rank) const {
    return bandwidth_of_class(class_of(src_rank, dst_rank));
  }

private:
  int n_nodes_;
  int ranks_per_node_;
  topology_spec spec_;
  std::vector<std::uint8_t> node_class_;  ///< n_nodes x n_nodes, row-major
  std::vector<double> class_latency_;
  std::vector<double> class_bandwidth_;
};

}  // namespace ityr::common
