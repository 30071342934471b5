#include "itoyori/common/options.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <type_traits>

#include "itoyori/common/error.hpp"

namespace ityr::common {

namespace {

// Each enum spells its values through to_string(); an unknown name is API
// misuse, rejected with the variable it came from and the legal names.
template <typename E>
E enum_from_string(const char* what, const char* var, const std::string& s,
                   std::initializer_list<E> values) {
  std::string legal;
  std::size_t i = 0;
  for (const E e : values) {
    if (s == to_string(e)) return e;
    if (i++ > 0) legal += i == values.size() ? " or " : ", ";
    legal += to_string(e);
  }
  throw api_error("unknown " + std::string(what) + " (" + var + "): " + s + " (expected " +
                  legal + ")");
}

}  // namespace

const char* to_string(cache_policy p) {
  switch (p) {
    case cache_policy::none:            return "none";
    case cache_policy::write_through:   return "write_through";
    case cache_policy::write_back:      return "write_back";
    case cache_policy::write_back_lazy: return "write_back_lazy";
  }
  return "?";
}

cache_policy cache_policy_from_string(const std::string& s) {
  return enum_from_string("cache policy", "ITYR_POLICY", s,
                          {cache_policy::none, cache_policy::write_through,
                           cache_policy::write_back, cache_policy::write_back_lazy});
}

const char* to_string(eviction_kind k) {
  switch (k) {
    case eviction_kind::lru:   return "lru";
    case eviction_kind::clock: return "clock";
  }
  return "?";
}

eviction_kind eviction_kind_from_string(const std::string& s) {
  return enum_from_string("eviction policy", "ITYR_EVICTION_POLICY", s,
                          {eviction_kind::lru, eviction_kind::clock});
}

const char* to_string(steal_fairness_kind k) {
  switch (k) {
    case steal_fairness_kind::off:          return "off";
    case steal_fairness_kind::job_weighted: return "job_weighted";
  }
  return "?";
}

steal_fairness_kind steal_fairness_from_string(const std::string& s) {
  return enum_from_string("steal fairness policy", "ITYR_STEAL_FAIRNESS", s,
                          {steal_fairness_kind::off, steal_fairness_kind::job_weighted});
}

const char* to_string(dist_policy p) {
  switch (p) {
    case dist_policy::block:        return "block";
    case dist_policy::block_cyclic: return "block_cyclic";
  }
  return "?";
}

namespace {

[[noreturn]] void bad_env(const char* name, const char* v, const char* expected) {
  throw error(std::string("invalid ") + name + " = '" + v + "': expected " + expected);
}

// A value must parse whole: "16MiB", "1e6" or "yes" would otherwise read as
// 16, 1 or false and configure something nobody asked for.
template <typename T>
void env_get(const char* name, T& out) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return;  // empty counts as unset (CI matrices)
  const std::string s(v);
  char* end = nullptr;
  if constexpr (std::is_same_v<T, bool>) {
    if (s != "0" && s != "1" && s != "true" && s != "false") {
      bad_env(name, v, "0, 1, true or false");
    }
    out = s == "1" || s == "true";
  } else if constexpr (std::is_floating_point_v<T>) {
    const double x = std::strtod(v, &end);
    if (*end != '\0') bad_env(name, v, "a number");
    out = static_cast<T>(x);
  } else if constexpr (std::is_same_v<T, cache_policy>) {
    out = cache_policy_from_string(v);
  } else if constexpr (std::is_same_v<T, eviction_kind>) {
    out = eviction_kind_from_string(v);
  } else if constexpr (std::is_same_v<T, steal_fairness_kind>) {
    out = steal_fairness_from_string(v);
  } else if constexpr (std::is_same_v<T, topology_spec>) {
    out = topology_spec::parse(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = v;
  } else if constexpr (std::is_unsigned_v<T>) {
    // strtoull would wrap "-1" around to the type's maximum.
    errno = 0;
    const unsigned long long x = std::strtoull(v, &end, 0);
    if (s.find('-') != std::string::npos || *end != '\0' || errno == ERANGE ||
        x > std::numeric_limits<T>::max()) {
      bad_env(name, v, "a non-negative integer");
    }
    out = static_cast<T>(x);
  } else {
    errno = 0;
    const long long x = std::strtoll(v, &end, 0);
    if (*end != '\0' || errno == ERANGE || x < std::numeric_limits<T>::min() ||
        x > std::numeric_limits<T>::max()) {
      bad_env(name, v, "an integer");
    }
    out = static_cast<T>(x);
  }
}

// An ITYR_* name that no row has is a deleted knob or a typo; running the
// defaults instead would configure something nobody asked for.
void reject_unknown_env_names(const options& o) {
  for (char** e = environ; *e != nullptr; e++) {
    if (std::strncmp(*e, "ITYR_", 5) != 0) continue;
    const std::string name(*e, std::strcspn(*e, "="));
    bool known = false;
    for_each_env_knob(o, [&](const char* n, const auto&, const auto&) { known |= name == n; });
    if (!known) {
      throw error("unknown environment variable " + name +
                  ": no ITYR_* knob has this name (README.md lists them)");
    }
  }
}

}  // namespace

options options::from_env() {
  options o;
  reject_unknown_env_names(o);
  for_each_env_knob(o, [](const char* name, auto& field, const auto&) { env_get(name, field); });
  validate_cache_geometry(o.block_size, o.sub_block_size);
  validate_topology(o.n_nodes, o.ranks_per_node, o.topology);
  validate_sim_core(o.ult_stack_size);
  validate_placement(o.migration, o.replication, o.placement_interval, o.migration_share,
                     o.migration_pool_blocks, o.replication_pool_blocks,
                     o.replication_min_readers, o.hot_blocks_topn);
  validate_serving(o.serve, o.serve_arrival_rate, o.serve_jobs);
  return o;
}

namespace {

bool is_pow2(std::size_t v) { return v != 0 && (v & (v - 1)) == 0; }

}  // namespace

void validate_cache_geometry(std::size_t block_size, std::size_t sub_block_size) {
  if (!is_pow2(block_size)) {
    throw error("invalid cache geometry: block size (ITYR_BLOCK_SIZE) must be a nonzero "
                "power of two, got " + std::to_string(block_size));
  }
  const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  if (block_size % page != 0) {
    throw error("invalid cache geometry: block size (ITYR_BLOCK_SIZE = " +
                std::to_string(block_size) + ") must be a multiple of the OS page size (" +
                std::to_string(page) + "), since blocks are mmap/unmap granules");
  }
  if (!is_pow2(sub_block_size)) {
    throw error("invalid cache geometry: sub-block size (ITYR_SUB_BLOCK_SIZE) must be a "
                "nonzero power of two, got " + std::to_string(sub_block_size));
  }
  if (sub_block_size > block_size) {
    throw error("invalid cache geometry: sub-block size (ITYR_SUB_BLOCK_SIZE = " +
                std::to_string(sub_block_size) + ") must not exceed block size "
                "(ITYR_BLOCK_SIZE = " + std::to_string(block_size) + ")");
  }
}

void validate_sim_core(std::size_t ult_stack_size) {
  if (ult_stack_size < 16 * KiB) {
    throw error("invalid ULT stack size (ITYR_ULT_STACK_SIZE = " +
                std::to_string(ult_stack_size) +
                "): must be at least 16 KiB or the guard page fires on the first fork");
  }
}

void validate_placement(bool migration, bool replication, double placement_interval,
                        double migration_share, std::size_t migration_pool_blocks,
                        std::size_t replication_pool_blocks, int replication_min_readers,
                        std::size_t hot_blocks_topn) {
  if (!(placement_interval > 0)) {
    throw error("invalid placement pass interval (ITYR_MIGRATION_INTERVAL = " +
                std::to_string(placement_interval) +
                "): must be a positive number of virtual seconds");
  }
  if (!(migration_share > 0) || migration_share > 1.0) {
    throw error("invalid migration dominance share (ITYR_MIGRATION_SHARE = " +
                std::to_string(migration_share) + "): must be in (0, 1]");
  }
  if (migration && migration_pool_blocks == 0) {
    throw error("invalid migration pool size (ITYR_MIGRATION_POOL_BLOCKS = 0): "
                "ITYR_MIGRATION needs at least one per-rank pool block to move homes into");
  }
  if (replication && replication_pool_blocks == 0) {
    throw error("invalid replication pool size (ITYR_REPLICATION_POOL_BLOCKS = 0): "
                "ITYR_REPLICATION needs at least one per-node pool block for read-only copies");
  }
  if (replication_min_readers < 2) {
    throw error("invalid replication reader threshold (ITYR_REPLICATION_MIN_READERS = " +
                std::to_string(replication_min_readers) +
                "): must be >= 2 — a single-reader block is a migration candidate, "
                "not a replication one");
  }
  if (hot_blocks_topn > 65536) {
    throw error("invalid hot-block export count (ITYR_HOT_BLOCKS_TOPN = " +
                std::to_string(hot_blocks_topn) +
                "): must be <= 65536 (this is a top-N list length, not a byte size)");
  }
}

void validate_serving(bool serve, double serve_arrival_rate, std::size_t serve_jobs) {
  if (!(serve_arrival_rate > 0)) {
    throw error("invalid serve arrival rate (ITYR_SERVE_ARRIVAL_RATE = " +
                std::to_string(serve_arrival_rate) +
                "): must be a positive number of jobs per virtual second — an "
                "open-loop arrival process with rate 0 never admits anything");
  }
  if (serve && serve_jobs == 0) {
    throw error("invalid serve job count (ITYR_SERVE_JOBS = 0): ITYR_SERVE needs at "
                "least one job to admit");
  }
}

}  // namespace ityr::common
