#include "itoyori/common/topology.hpp"

#include <cstdlib>

#include "itoyori/common/options.hpp"

namespace ityr::common {

const char* to_string(topology_kind k) {
  switch (k) {
    case topology_kind::flat:     return "flat";
    case topology_kind::fat_tree: return "fat_tree";
  }
  return "?";
}

namespace {

/// Strict nonnegative integer parse of a full token (no trailing junk).
bool parse_int(const std::string& s, int& out) {
  if (s.empty()) return false;
  char* end = nullptr;
  const long v = std::strtol(s.c_str(), &end, 10);
  if (end != s.c_str() + s.size() || v < 0 || v > 1'000'000'000L) return false;
  out = static_cast<int>(v);
  return true;
}

[[noreturn]] void malformed(const std::string& s, const std::string& why) {
  throw error("malformed ITYR_TOPOLOGY '" + s + "': " + why +
              " (expected flat | fat_tree:<arity>,<levels>)");
}

}  // namespace

topology_spec topology_spec::parse(const std::string& s) {
  topology_spec spec;
  const std::size_t colon = s.find(':');
  const std::string kind = s.substr(0, colon);
  const std::string args = colon == std::string::npos ? "" : s.substr(colon + 1);
  if (kind == "flat") {
    if (!args.empty()) malformed(s, "flat takes no parameters");
    spec.kind = topology_kind::flat;
  } else if (kind == "fat_tree") {
    spec.kind = topology_kind::fat_tree;
    const std::size_t comma = args.find(',');
    if (comma == std::string::npos) malformed(s, "fat_tree needs <arity>,<levels>");
    if (!parse_int(args.substr(0, comma), spec.fat_tree_arity) ||
        !parse_int(args.substr(comma + 1), spec.fat_tree_levels)) {
      malformed(s, "fat_tree parameters must be nonnegative integers");
    }
  } else {
    malformed(s, "unknown topology kind '" + kind + "'");
  }
  return spec;
}

std::string topology_spec::str() const {
  switch (kind) {
    case topology_kind::flat:
      return "flat";
    case topology_kind::fat_tree:
      return "fat_tree:" + std::to_string(fat_tree_arity) + "," +
             std::to_string(fat_tree_levels);
  }
  return "?";
}

void validate_topology(int n_nodes, int ranks_per_node, const topology_spec& spec) {
  if (n_nodes <= 0) {
    throw error("invalid cluster shape: n_nodes (ITYR_N_NODES) must be positive, got " +
                std::to_string(n_nodes));
  }
  if (ranks_per_node <= 0) {
    throw error("invalid cluster shape: ranks_per_node (ITYR_RANKS_PER_NODE) must be "
                "positive, got " + std::to_string(ranks_per_node));
  }
  if (spec.kind == topology_kind::fat_tree) {
    if (spec.fat_tree_arity < 2) {
      throw error("invalid topology: fat_tree arity must be >= 2, got " +
                  std::to_string(spec.fat_tree_arity));
    }
    if (spec.fat_tree_levels < 1 || spec.fat_tree_levels > 30) {
      throw error("invalid topology: fat_tree levels must be in [1, 30], got " +
                  std::to_string(spec.fat_tree_levels));
    }
    // Leaf capacity arity^levels must cover the nodes; overflow-safe walk.
    std::uint64_t capacity = 1;
    for (int l = 0; l < spec.fat_tree_levels && capacity < static_cast<std::uint64_t>(n_nodes);
         l++) {
      capacity *= static_cast<std::uint64_t>(spec.fat_tree_arity);
    }
    if (capacity < static_cast<std::uint64_t>(n_nodes)) {
      throw error("invalid topology: fat_tree:" + std::to_string(spec.fat_tree_arity) + "," +
                  std::to_string(spec.fat_tree_levels) + " holds only " +
                  std::to_string(capacity) + " nodes but the cluster has " +
                  std::to_string(n_nodes) + " (ITYR_N_NODES)");
    }
  }
}

topology::topology(int n_nodes, int ranks_per_node, const topology_spec& spec,
                   const network_model& nm)
    : n_nodes_(n_nodes), ranks_per_node_(ranks_per_node), spec_(spec) {
  validate_topology(n_nodes, ranks_per_node, spec);

  // Class 0 is intra-node shared memory for every topology.
  class_latency_ = {nm.intra_latency};
  class_bandwidth_ = {nm.intra_bandwidth};

  const auto n = static_cast<std::size_t>(n_nodes_);
  node_class_.assign(n * n, 1);

  switch (spec.kind) {
    case topology_kind::flat: {
      // One inter-node class at the base cost: bit-identical to the historic
      // two-tier model (same doubles, same arithmetic).
      class_latency_.push_back(nm.inter_latency);
      class_bandwidth_.push_back(nm.inter_bandwidth);
      break;
    }
    case topology_kind::fat_tree: {
      const int a = spec.fat_tree_arity;
      const int levels = spec.fat_tree_levels;
      for (int c = 1; c <= levels; c++) {
        class_latency_.push_back(nm.inter_latency * static_cast<double>(c));
        class_bandwidth_.push_back(nm.inter_bandwidth /
                                   static_cast<double>(std::uint64_t{1} << (c - 1)));
      }
      for (int i = 0; i < n_nodes_; i++) {
        for (int j = 0; j < n_nodes_; j++) {
          if (i == j) continue;
          // Lowest common ancestor level: divide both leaf ids by the arity
          // until they meet.
          int x = i, y = j, c = 0;
          while (x != y) {
            x /= a;
            y /= a;
            c++;
          }
          node_class_[static_cast<std::size_t>(i) * n + static_cast<std::size_t>(j)] =
              static_cast<std::uint8_t>(c);
        }
      }
      break;
    }
  }
}

}  // namespace ityr::common
