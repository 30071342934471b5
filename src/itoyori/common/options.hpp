#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "itoyori/common/topology.hpp"

namespace ityr::common {

inline constexpr std::size_t KiB = std::size_t{1} << 10;
inline constexpr std::size_t MiB = std::size_t{1} << 20;
inline constexpr std::size_t GiB = std::size_t{1} << 30;

/// Dirty-data handling policy for the software cache (paper Section 4.4/5.2).
enum class cache_policy {
  none,             ///< no cache: GET/PUT baseline (paper Section 6.1)
  write_through,    ///< flush dirty bytes on every checkin
  write_back,       ///< flush dirty bytes at release fences
  write_back_lazy,  ///< + delay Release #1 until the continuation is stolen
};

const char* to_string(cache_policy p);
cache_policy cache_policy_from_string(const std::string& s);

/// Victim-selection policy for the software cache's block lists
/// (paper Section 4.3.1 describes the LRU baseline).
enum class eviction_kind {
  lru,    ///< strict LRU: every touch moves the block to MRU
  clock,  ///< clock/second-chance: touches set a reference bit; the eviction
          ///< sweep clears bits and takes the first unreferenced block
};

const char* to_string(eviction_kind k);
eviction_kind eviction_kind_from_string(const std::string& s);

/// Memory distribution policy for collective allocations (paper Section 4.2).
enum class dist_policy {
  block,         ///< contiguous even split across ranks
  block_cyclic,  ///< fixed-size blocks round-robin across ranks
};

const char* to_string(dist_policy p);

/// Steal-fairness policy under multi-job serving (ITYR_STEAL_FAIRNESS).
/// `off` is the job-blind protocol: thieves always claim the victim's
/// front-most (oldest) continuation. `job_weighted` makes the probe read the
/// victim's per-job deque occupancy (piggybacking on the one-sided bounds
/// read — no extra modelled traffic) and claim the front-most entry of the
/// job with the FEWEST queued entries, so a job with a deep subtree cannot
/// monopolize the steal channel and starve small jobs' continuations buried
/// behind it. In single-job mode every entry carries job 0, the minimum is
/// the whole deque, and the claim degenerates to the front entry —
/// bit-identical to `off`.
enum class steal_fairness_kind {
  off,
  job_weighted,
};

const char* to_string(steal_fairness_kind k);
steal_fairness_kind steal_fairness_from_string(const std::string& s);

/// Network cost-model constants, LogGP-flavoured.
///
/// An RMA operation of n bytes issued by rank r to rank t costs the issuer
/// `o` (injection overhead) immediately; the payload occupies r's injection
/// channel for n/bandwidth and the data lands at `latency` after the channel
/// slot. Remote atomics are round trips. Defaults approximate a Tofu-D-like
/// interconnect (the paper's testbed): ~1.2 us put/get latency, ~6 GB/s per
/// link; intra-node transfers go through shared memory and are much cheaper.
struct network_model {
  double inter_latency   = 1.2e-6;   ///< seconds, one-way, inter-node
  double inter_bandwidth = 6.0e9;    ///< bytes/second, inter-node
  double intra_latency   = 0.15e-6;  ///< seconds, one-way, intra-node
  double intra_bandwidth = 12.0e9;   ///< bytes/second, intra-node
  double injection_overhead = 0.2e-6;  ///< seconds of issuer CPU per message
  double atomic_latency  = 1.8e-6;   ///< seconds per remote atomic round trip
};

/// All tunables of the runtime, settable programmatically and, for the
/// fields for_each_env_knob() lists, via ITYR_* environment variables (see
/// from_env()).
struct options {
  // --- simulated cluster topology ---
  int n_nodes        = 2;
  int ranks_per_node = 4;

  /// Interconnect shape (ITYR_TOPOLOGY: "flat", "fat_tree:<arity>,<levels>",
  /// "dragonfly:<groups>"); see common/topology.hpp. The default `flat`
  /// reproduces the historic two-tier intra/inter-node cost model
  /// bit-for-bit.
  topology_spec topology;

  // --- memory system (paper Section 6.1 defaults, scaled) ---
  std::size_t block_size     = 64 * KiB;  ///< cache/home block granularity
  std::size_t sub_block_size = 4 * KiB;   ///< remote-fetch granularity
  std::size_t cache_size     = 16 * MiB;  ///< per-rank software cache capacity

  /// Per-rank collective-heap home segment and noncollective-heap segment.
  std::size_t coll_heap_per_rank    = 64 * MiB;
  std::size_t noncoll_heap_per_rank = 32 * MiB;

  /// Modelled `vm.max_map_count`-style ledger (paper Section 4.3.2). The
  /// number of home blocks simultaneously mapped per rank is limited so the
  /// worst-case 2N+1 mapping entries stay under this bound.
  std::size_t max_map_entries = 65530;

  cache_policy policy       = cache_policy::write_back_lazy;
  dist_policy default_dist  = dist_policy::block_cyclic;

  /// Block-list victim selection (ITYR_EVICTION_POLICY): strict LRU by
  /// default; "clock" selects the second-chance policy.
  eviction_kind eviction    = eviction_kind::lru;

  /// Cross-block RMA coalescing: fetch gaps and write-back runs addressed to
  /// the same (window, rank) within one checkout or write-back round are
  /// issued as a single message (contiguous remote runs are merged outright;
  /// disjoint runs ride one gather message, MPI-datatype style). Off = one
  /// message per gap, the paper's baseline behaviour. Set in code only: no
  /// environment knob.
  bool coalesce_rma = true;

  /// Entries in the per-rank direct-mapped front table memoizing recently
  /// touched memory blocks; single-block checkouts hitting a memoized
  /// mapped, fully-valid (or home) block skip the hash map, home lookup and
  /// interval algebra entirely. 0 disables the fast path. Rounded up to a
  /// power of two. Set in code only: no environment knob.
  std::size_t front_table_size = 64;

  /// Adaptive sub-block prefetching (ITYR_PREFETCH): read-mode checkout
  /// misses feed a per-rank stream detector; a confirmed sequential stream
  /// (forward or backward) issues nonblocking gets for the next sub-blocks
  /// ahead of the consumer, tracked as in-flight intervals so a later
  /// checkout only waits out the remaining modelled latency. Off by default:
  /// with prefetching disabled every counter, bench and trace is
  /// bit-identical to the pre-prefetch runtime.
  bool prefetch = false;

  /// Asynchronous epoch-pipelined release (ITYR_ASYNC_RELEASE): write-back
  /// rounds issue their put segments nonblocking, record the round's modelled
  /// completion time in a per-rank epoch->ready_at ring, and return to
  /// compute immediately; visibility is enforced on the *acquire* side by a
  /// targeted wait on the releaser's round completion. Idle workers flush
  /// dirty data opportunistically between failed steals. Off by default:
  /// with it disabled every counter, bench and trace is bit-identical to the
  /// synchronous-release runtime.
  bool async_release = false;

  // --- dynamic data placement (docs/internals.md "dynamic data placement") ---
  /// Counter-driven home migration (ITYR_MIGRATION): a periodic placement
  /// pass moves a block's home to the rank generating most of its miss
  /// traffic; stale cached locations carry a forwarding generation and are
  /// retried through global_heap. Off by default; with it (and replication)
  /// disabled every counter, bench and trace is bit-identical to the
  /// fixed-home runtime.
  bool migration = false;
  /// Virtual seconds between placement passes (ITYR_MIGRATION_INTERVAL).
  /// Shared by migration and replication; must be positive.
  double placement_interval = 1.0e-3;
  /// Minimum remote-miss traffic (bytes) a block must draw within one pass
  /// window before migration considers it (ITYR_MIGRATION_MIN_BYTES).
  std::uint64_t migration_min_bytes = 64 * KiB;
  /// Dominance threshold (ITYR_MIGRATION_SHARE) in (0, 1]: the candidate
  /// rank's surplus over all other readers combined, as a fraction of the
  /// block's window traffic, must reach this before its home moves.
  double migration_share = 0.5;
  /// Per-rank capacity of the migrated-home pool, in blocks
  /// (ITYR_MIGRATION_POOL_BLOCKS); pool-full candidates are skipped, counted
  /// in pgas.pool_full_skips.
  std::size_t migration_pool_blocks = 256;
  /// Read-mostly replication (ITYR_REPLICATION): the placement pass copies
  /// blocks read by several nodes into per-node read-only replicas served on
  /// the cache fetch path; any write intent or write-back invalidates them.
  bool replication = false;
  /// Minimum fetch traffic (bytes) within one pass window before a block is
  /// replicated (ITYR_REPLICATION_MIN_BYTES).
  std::uint64_t replication_min_bytes = 64 * KiB;
  /// Distinct reader nodes (>= 2) required before replication pays off
  /// (ITYR_REPLICATION_MIN_READERS); a single-reader block is a migration
  /// candidate, not a replication one.
  int replication_min_readers = 2;
  /// Per-node capacity of the replica pool, in blocks
  /// (ITYR_REPLICATION_POOL_BLOCKS).
  std::size_t replication_pool_blocks = 256;
  /// Export the N hottest home blocks (id, owner, reader mask, fetch bytes)
  /// as pgas.hot_blocks in the stats JSON (ITYR_HOT_BLOCKS_TOPN); 0 (the
  /// default) disables collection entirely.
  std::size_t hot_blocks_topn = 0;

  // --- scheduler ---
  std::size_t ult_stack_size = 256 * KiB;  ///< user-level thread stacks (ITYR_ULT_STACK_SIZE)
  double poll_interval       = 0.5e-6;     ///< epoch-poll spin granularity

  // --- multi-job serving (docs/internals.md "multi-job serving") ---
  /// Multi-tenant job-stream serving (ITYR_SERVE): the runtime admits an
  /// open-loop stream of independent fork-join jobs through the job manager
  /// instead of running one root task, tags every task and deque entry with
  /// its job id, and accounts cache traffic per job. Off by default: with it
  /// disabled every counter, bench and trace is bit-identical to the
  /// single-root-task runtime.
  bool serve = false;
  /// Open-loop arrival rate in jobs per virtual second
  /// (ITYR_SERVE_ARRIVAL_RATE); inter-arrival gaps are exponential,
  /// generated deterministically from the run seed. Must be positive.
  double serve_arrival_rate = 1000.0;
  /// Job count of a serving run (ITYR_SERVE_JOBS); must be >= 1 when
  /// ITYR_SERVE is on. Only validated: serve() admits exactly the jobs it is
  /// handed, and no driver in the runtime reads this count.
  std::size_t serve_jobs = 16;
  /// Victim-side steal fairness across jobs (ITYR_STEAL_FAIRNESS:
  /// off | job_weighted); see steal_fairness_kind.
  steal_fairness_kind steal_fairness = steal_fairness_kind::off;

  // --- time model ---
  /// If true, measured compute time is replaced by a fixed cost per resume,
  /// making the whole simulation bit-deterministic (used by tests).
  bool deterministic = false;
  double deterministic_resume_cost = 0.5e-6;

  network_model net;

  // --- observability (docs/observability.md) ---
  /// Dump a Chrome/Perfetto trace_events JSON timeline here when the
  /// runtime is destroyed; empty disables tracing (ITYR_TRACE).
  std::string trace_path;
  /// Per-rank ring-buffer capacity in events (ITYR_TRACE_CAP); oldest
  /// events are evicted first once full.
  std::size_t trace_cap = std::size_t{1} << 20;
  /// Dump the unified metrics-registry snapshot here when the runtime is
  /// destroyed; empty disables it (ITYR_STATS_JSON).
  std::string stats_json_path;
  /// Virtual-seconds period for sampling counter time-series into the
  /// trace (ITYR_METRICS_SAMPLE_INTERVAL); <= 0 disables sampling. Only
  /// active while tracing is on.
  double metrics_sample_interval = 1.0e-4;
  /// Emit one per-message "rma" trace flow for every Nth message a rank
  /// issues (ITYR_TRACE_FLOW_SAMPLE). 1 = every message (historic
  /// behaviour), 0 = none; sampling keeps O(1000)-rank traces writable.
  std::uint64_t trace_flow_sample = 1;
  /// Online critical-path (work/span) profiler (ITYR_CRITPATH): every task
  /// carries a running work/span accumulator, joins take the max over child
  /// spans, and span time is attributed into compute / fetch-stall /
  /// release-stall / steal-wait / acquire-fence buckets plus per-distance-
  /// class network shares for the what-if projection. Off by default; the
  /// hooks charge nothing to the virtual clock, so enabling it never
  /// changes a run's schedule or timing.
  bool critpath = false;

  std::uint64_t seed = 42;

  int n_ranks() const { return n_nodes * ranks_per_node; }

  /// Read overrides from the ITYR_* environment variables of
  /// for_each_env_knob() on top of defaults. Throws common::error naming an
  /// ITYR_* variable that no row names, common::error (api_error for an
  /// unknown enum name) naming the variable of a malformed value, and
  /// common::error if the result fails a cross-field validator below.
  static options from_env();
};

/// The ITYR_* environment knobs, one row each: `row(name, field, sample)`
/// gets the variable's name, the field of `o` it sets, and a legal
/// non-default value of that field. options::from_env() parses each set
/// variable into its field; the tests round-trip every sample through the
/// environment and check the knob tables of README.md and
/// docs/observability.md against the names.
template <typename Options, typename Row>
void for_each_env_knob(Options& o, Row&& row) {
  row("ITYR_N_NODES", o.n_nodes, 3);
  row("ITYR_RANKS_PER_NODE", o.ranks_per_node, 2);
  row("ITYR_TOPOLOGY", o.topology, topology_spec{topology_kind::fat_tree, 4, 2});
  row("ITYR_BLOCK_SIZE", o.block_size, 128 * KiB);
  row("ITYR_SUB_BLOCK_SIZE", o.sub_block_size, 8 * KiB);
  row("ITYR_CACHE_SIZE", o.cache_size, 1 * MiB);
  row("ITYR_COLL_HEAP_PER_RANK", o.coll_heap_per_rank, 128 * MiB);
  row("ITYR_NONCOLL_HEAP_PER_RANK", o.noncoll_heap_per_rank, 16 * MiB);
  row("ITYR_MAX_MAP_ENTRIES", o.max_map_entries, std::size_t{1000});
  row("ITYR_POLICY", o.policy, cache_policy::write_through);
  row("ITYR_EVICTION_POLICY", o.eviction, eviction_kind::clock);
  row("ITYR_PREFETCH", o.prefetch, true);
  row("ITYR_ASYNC_RELEASE", o.async_release, true);
  row("ITYR_MIGRATION", o.migration, true);
  row("ITYR_MIGRATION_INTERVAL", o.placement_interval, 0.005);
  row("ITYR_MIGRATION_MIN_BYTES", o.migration_min_bytes, std::uint64_t{8192});
  row("ITYR_MIGRATION_SHARE", o.migration_share, 0.75);
  row("ITYR_MIGRATION_POOL_BLOCKS", o.migration_pool_blocks, std::size_t{32});
  row("ITYR_REPLICATION", o.replication, true);
  row("ITYR_REPLICATION_MIN_BYTES", o.replication_min_bytes, std::uint64_t{16384});
  row("ITYR_REPLICATION_MIN_READERS", o.replication_min_readers, 3);
  row("ITYR_REPLICATION_POOL_BLOCKS", o.replication_pool_blocks, std::size_t{64});
  row("ITYR_HOT_BLOCKS_TOPN", o.hot_blocks_topn, std::size_t{20});
  row("ITYR_ULT_STACK_SIZE", o.ult_stack_size, 64 * KiB);
  row("ITYR_SERVE", o.serve, true);
  row("ITYR_SERVE_ARRIVAL_RATE", o.serve_arrival_rate, 250.5);
  row("ITYR_SERVE_JOBS", o.serve_jobs, std::size_t{32});
  row("ITYR_STEAL_FAIRNESS", o.steal_fairness, steal_fairness_kind::job_weighted);
  row("ITYR_DETERMINISTIC", o.deterministic, true);
  row("ITYR_NET_INTER_LATENCY", o.net.inter_latency, 2.5e-6);
  row("ITYR_NET_INTER_BANDWIDTH", o.net.inter_bandwidth, 1.0e10);
  row("ITYR_NET_INTRA_LATENCY", o.net.intra_latency, 0.3e-6);
  row("ITYR_NET_INTRA_BANDWIDTH", o.net.intra_bandwidth, 2.4e10);
  row("ITYR_TRACE", o.trace_path, std::string("trace.json"));
  row("ITYR_TRACE_CAP", o.trace_cap, std::size_t{4096});
  row("ITYR_STATS_JSON", o.stats_json_path, std::string("stats.json"));
  row("ITYR_METRICS_SAMPLE_INTERVAL", o.metrics_sample_interval, 0.0025);
  row("ITYR_TRACE_FLOW_SAMPLE", o.trace_flow_sample, std::uint64_t{8});
  row("ITYR_CRITPATH", o.critpath, true);
  row("ITYR_SEED", o.seed, std::uint64_t{999});
}

/// Check the cache-geometry invariants the block/interval arithmetic relies
/// on: both sizes are nonzero powers of two and the sub-block (remote-fetch
/// granularity) fits inside a block. Throws common::error with the offending
/// value otherwise — a garbage ITYR_BLOCK_SIZE must fail loudly at startup,
/// not corrupt interval math later. Called by options::from_env() and by the
/// cache system's constructor (covering programmatically built options).
void validate_cache_geometry(std::size_t block_size, std::size_t sub_block_size);

/// Check the simulator-core knobs: ULT stacks must hold at least a few
/// frames (>= 16 KiB) or the guard page fires on the first fork. Throws
/// common::error with the offending value otherwise. Called by
/// options::from_env() and the engine constructor (covering programmatically
/// built options).
void validate_sim_core(std::size_t ult_stack_size);

/// Check the dynamic-data-placement knobs (ITYR_MIGRATION* /
/// ITYR_REPLICATION* / ITYR_HOT_BLOCKS_TOPN): the pass interval must be
/// positive, the dominance share must land in (0, 1], enabled features need
/// nonzero pools, replication needs >= 2 reader nodes, and the hot-block
/// export count must be a sane list length. Throws common::error with the
/// offending value otherwise. Called by options::from_env() and the
/// placement engine's constructor (covering programmatically built options).
void validate_placement(bool migration, bool replication, double placement_interval,
                        double migration_share, std::size_t migration_pool_blocks,
                        std::size_t replication_pool_blocks, int replication_min_readers,
                        std::size_t hot_blocks_topn);

/// Check the multi-job serving knobs (ITYR_SERVE / ITYR_SERVE_ARRIVAL_RATE /
/// ITYR_SERVE_JOBS): the arrival rate must be a positive number of jobs per
/// virtual second (an open-loop process with rate 0 never admits anything),
/// and serving needs a job count of at least one. Throws common::error with
/// the offending value otherwise. Called by options::from_env() and the
/// scheduler (covering programmatically built options).
void validate_serving(bool serve, double serve_arrival_rate, std::size_t serve_jobs);

}  // namespace ityr::common
