#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ctime>
#include <optional>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace perfbench {

namespace ic = ityr::common;
namespace apps = ityr::apps;

// ---- cilksort: paper Fig. 1 on 4x8 ranks ----
// 2 x 16 MiB of data against 32 x 512 KiB of cache, so blocks are evicted
// and written back; the fine cutoff makes ~10^4 leaf checkouts and many
// binary-search gets. One sort's makespan differs by ~6% (IQR/median)
// between victim-selection seeds, so the measured region is three sorts.
constexpr int kSortNodes = 4, kSortRpn = 8;
constexpr std::size_t kSortN = std::size_t{1} << 22;
constexpr std::size_t kSortCutoff = 2048;
constexpr std::size_t kSortCache = 512 * ic::KiB;
constexpr std::size_t kSortGrain = 16384;  ///< input generation / validation chunk
constexpr std::size_t kSorts = 3;          ///< sorts (each its own input) per iteration

// ---- uts_mem: paper Fig. 10 on 4x8 ranks ----
// A forest of geometric trees under one root, built in set-up. Tree sizes
// are heavy-tailed (CV ~1.5 per root seed), so trees are drawn from the
// seed until the forest holds kForestNodes nodes, skipping trees outside
// [kTreeMin, kTreeMax]: every seed gets the same node count to within 0.5%
// and no tree is big enough to set the traversal's tail. The measured region
// is kTraversals read-only traversals.
constexpr int kUtsNodes = 4, kUtsRpn = 8;
constexpr int kUtsGenMx = 8;
constexpr std::uint64_t kTreeMin = 500, kTreeMax = 2000;
constexpr std::uint64_t kForestNodes = 400000;
constexpr int kTraversals = 3;

// ---- serve: open-loop job stream on 128x8 ranks, fat_tree:4,4 ----
// Small jobs without global memory: binary spawn trees and UTS counts, half
// each, in seeded order. UTS jobs count trees from a seeded pool of
// size-banded trees, so the work per job varies little between seeds. The
// latency stream arrives at 8k jobs/s, ~55% of the saturated throughput
// (~15k jobs/s). Its tail is the admission driver's backlog: at ~70% load
// the p95 over 2048 jobs differed by 14% (IQR/median) between seeds, at
// ~55% by 7%. The throughput stream has every job due at once.
constexpr int kServeNodes = 128, kServeRpn = 8;
constexpr std::size_t kLatencyJobs = 2048;
constexpr std::size_t kThroughputJobs = 1024;
constexpr double kServeRate = 8000.0;    ///< jobs per virtual second
constexpr double kSaturatedRate = 1.0e9;  ///< every job due at once
constexpr int kSpawnDepth = 8;            ///< 256 empty leaves
constexpr int kJobUtsGenMx = 8;
constexpr std::uint64_t kJobUtsMin = 400, kJobUtsMax = 800;
constexpr std::size_t kJobUtsPool = 64;

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

namespace {

ic::options base_opts(int nodes, int rpn, std::uint64_t seed, bool traced) {
  ic::options o;
  o.n_nodes = nodes;
  o.ranks_per_node = rpn;
  o.block_size = 64 * ic::KiB;
  o.sub_block_size = 4 * ic::KiB;
  o.cache_size = 4 * ic::MiB;
  o.coll_heap_per_rank = 4 * ic::MiB;
  o.noncoll_heap_per_rank = 4 * ic::MiB;
  o.default_dist = ic::dist_policy::block_cyclic;
  o.policy = ic::cache_policy::write_back_lazy;
  o.deterministic = true;
  o.critpath = traced;
  o.seed = seed;
  return o;
}

/// Independent stream of the run seed for one purpose.
std::uint64_t derive(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return ic::splitmix64(s);
}

/// Metering of one measured region, driven by rank 0 between the barriers
/// that bound it. Registry snapshots are taken outside the timed window.
class region_probe {
public:
  region_probe(ityr::runtime& rt, host_split* split) : rt_(rt), split_(split) {}

  void begin() {
    setup_end_ = cpu_seconds();
    base_ = ityr::collect_metrics(rt_);
    ::getrusage(RUSAGE_SELF, &ru0_);
    cpu0_ = cpu_seconds();
    if (split_ != nullptr) m0_ = split_->mark();
    v0_ = rt_.eng().now();
  }

  void end() {
    v1_ = rt_.eng().now();
    if (split_ != nullptr) m1_ = split_->mark();
    cpu1_ = cpu_seconds();
    ::getrusage(RUSAGE_SELF, &ru1_);
    delta_ = ityr::collect_metrics(rt_).delta(base_);
  }

  double setup_end() const { return setup_end_; }
  double virtual_s() const { return v1_ - v0_; }
  double region_start_virtual() const { return v0_; }

  /// Fold this region's host readings and registry growth into `it`.
  void add_to(iteration& it) const {
    it.host_s += cpu1_ - cpu0_;
    it.minor_faults += static_cast<double>(ru1_.ru_minflt - ru0_.ru_minflt);
    it.sys_s += tv(ru1_.ru_stime) - tv(ru0_.ru_stime);
    if (split_ != nullptr) {
      it.split.add(host_split::diff(m0_, m1_));
      it.wrapper_seen = split_->wrapper_seen();
    }
    for (const auto& s : delta_.all()) {
      series_value& v = it.series[s.name];
      v.integral = s.integral;
      v.total += s.total();
    }
  }

private:
  static double tv(const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  }

  ityr::runtime& rt_;
  host_split* split_;
  ityr::metrics_snapshot base_, delta_;
  rusage ru0_{}, ru1_{};
  split_mark m0_, m1_;
  double setup_end_ = 0, cpu0_ = 0, cpu1_ = 0, v0_ = 0, v1_ = 0;
};

// ---- uts_mem forest ----

struct forest {
  std::vector<apps::uts_params> trees;
  std::uint64_t nodes = 0;  ///< serial count of all trees
};

apps::uts_params geometric(int gen_mx, std::uint64_t root_seed) {
  apps::uts_params p;
  p.kind = apps::uts_params::tree_kind::geometric;
  p.b0 = 4.0;
  p.gen_mx = gen_mx;
  p.root_seed = static_cast<int>(root_seed & 0x7fffffff);
  return p;
}

/// Nodes of `p`'s tree, counting stops past `cap`: rejecting a tree must
/// not cost a walk of the whole heavy tail.
std::uint64_t count_capped(const apps::uts_params& p, std::uint64_t cap) {
  struct frame {
    apps::uts_node_id id;
    int depth;
  };
  std::vector<frame> stack{{apps::uts_root(p), 0}};
  std::uint64_t n = 0;
  while (!stack.empty() && n <= cap) {
    const frame f = stack.back();
    stack.pop_back();
    n++;
    const int k = apps::uts_num_children(p, f.id, f.depth);
    for (int i = 0; i < k; i++) stack.push_back({apps::uts_child(f.id, i), f.depth + 1});
  }
  return n;
}

/// Draw a tree whose node count lies in [lo, hi]. `count` is the serial
/// count (the walk of apps::uts_count_serial, complete for an accepted
/// tree), the reference the parallel results must match.
apps::uts_params draw_tree(ic::xoshiro256ss& rng, int gen_mx, std::uint64_t lo, std::uint64_t hi,
                           std::uint64_t* count) {
  while (true) {
    apps::uts_params p = geometric(gen_mx, rng());
    const std::uint64_t c = count_capped(p, hi);
    if (c >= lo && c <= hi) {
      *count = c;
      return p;
    }
  }
}

forest pick_forest(std::uint64_t seed) {
  ic::xoshiro256ss rng(derive(seed, 1));
  forest f;
  while (f.nodes < kForestNodes) {
    std::uint64_t c = 0;
    f.trees.push_back(draw_tree(rng, kUtsGenMx, kTreeMin, kTreeMax, &c));
    f.nodes += c;
  }
  return f;
}

using node_ptr = ityr::global_ptr<apps::uts_mem_node>;

ityr::global_ptr<node_ptr> child_slot(node_ptr node, std::size_t i) {
  return ityr::global_ptr<node_ptr>(node.raw() + offsetof(apps::uts_mem_node, children)) +
         static_cast<std::ptrdiff_t>(i);
}

/// Build trees [lo, hi) of `f` in parallel and link each under `root`.
std::uint64_t build_trees(const forest* f, node_ptr root, std::size_t lo, std::size_t hi) {
  if (hi - lo == 1) {
    const apps::uts_mem_tree t = apps::uts_mem_build(f->trees[lo]);
    ityr::put(child_slot(root, lo), t.root);
    return t.n_nodes;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  auto [a, b] = ityr::parallel_invoke([=] { return build_trees(f, root, lo, mid); },
                                      [=] { return build_trees(f, root, mid, hi); });
  return a + b;
}

// ---- serve job plan ----

struct job_plan {
  std::vector<apps::uts_params> pool;
  std::vector<std::uint64_t> pool_count;  ///< serial count of each pool tree
  std::vector<int> tree;                  ///< per job: pool index, -1 = spawn tree
};

job_plan plan_jobs(std::uint64_t seed) {
  ic::xoshiro256ss rng(seed);
  job_plan p;
  p.pool.resize(kJobUtsPool);
  p.pool_count.resize(kJobUtsPool);
  for (std::size_t t = 0; t < kJobUtsPool; t++) {
    p.pool[t] = draw_tree(rng, kJobUtsGenMx, kJobUtsMin, kJobUtsMax, &p.pool_count[t]);
  }
  p.tree.assign(kLatencyJobs, -1);
  for (std::size_t i = 0; i < kLatencyJobs / 2; i++) {
    p.tree[i] = static_cast<int>(rng.below(kJobUtsPool));
  }
  for (std::size_t i = kLatencyJobs - 1; i > 0; i--) {  // seeded Fisher-Yates
    std::swap(p.tree[i], p.tree[static_cast<std::size_t>(rng.below(i + 1))]);
  }
  return p;
}

void spawn_tree(int depth) {
  if (depth == 0) return;
  ityr::parallel_invoke([=] { spawn_tree(depth - 1); }, [=] { spawn_tree(depth - 1); });
}

std::uint64_t spawn_tree_serial(int depth) {
  return depth == 0 ? 1 : spawn_tree_serial(depth - 1) + spawn_tree_serial(depth - 1);
}

struct stream_result {
  std::vector<double> latency;   ///< complete - due
  std::vector<double> lateness;  ///< admit - due
  double makespan = 0;           ///< last completion - first due
};

/// One served stream of `plan` in a fresh runtime; folds its region into
/// `it`. `cpu0` is when this stream's set-up began.
stream_result run_stream(const run_config& c, const job_plan& plan, std::size_t n_jobs,
                         std::uint64_t stream_seed, double rate, double cpu0, iteration& it) {
  auto o = base_opts(kServeNodes, kServeRpn, stream_seed, c.traced);
  o.topology = ic::topology_spec::parse("fat_tree:4,4");
  o.cache_size = 256 * ic::KiB;
  o.coll_heap_per_rank = 256 * ic::KiB;
  o.noncoll_heap_per_rank = 256 * ic::KiB;
  o.ult_stack_size = 64 * ic::KiB;
  o.serve = true;
  o.serve_arrival_rate = rate;
  o.serve_jobs = n_jobs;

  ityr::runtime rt(o);
  std::optional<host_split> split;
  if (c.traced) split.emplace(rt);
  region_probe probe(rt, split ? &*split : nullptr);
  std::vector<std::uint64_t> counts(n_jobs, 0);
  auto* counts_p = &counts;
  const job_plan* plan_p = &plan;

  rt.spmd([&] {
    std::vector<ityr::sched::job_spec> jobs;
    jobs.reserve(n_jobs);
    for (std::size_t j = 0; j < n_jobs; j++) {
      if (const int t = plan_p->tree[j]; t >= 0) {
        jobs.push_back(
            {"uts", [=] {
               (*counts_p)[j] = apps::uts_count_parallel(plan_p->pool[static_cast<std::size_t>(t)]);
             }});
      } else {
        jobs.push_back({"spawn", [] { spawn_tree(kSpawnDepth); }});
      }
    }
    ityr::barrier();
    if (ityr::my_rank() == 0) probe.begin();
    ityr::serve(std::move(jobs));
    ityr::barrier();
    if (ityr::my_rank() == 0) probe.end();
  });
  it.setup_s += probe.setup_end() - cpu0;
  probe.add_to(it);

  // Due times: the job manager's arrival stream, reproduced from the run
  // seed (same PRNG, same draws, same accumulation order as
  // job_manager::drive). The generator starts inside the region after
  // root_exec's entry barrier, at an instant not visible from outside; it
  // is anchored at the latest start consistent with every admission, which
  // must not precede the region itself.
  const auto& recs = rt.jobs().records();
  it.check(recs.size() == n_jobs, "serve: every job admitted");
  ic::xoshiro256ss arrivals(o.seed ^ 0x6a09e667f3bcc908ULL);
  std::vector<double> offset(recs.size());
  double t = 0;
  for (std::size_t i = 0; i < recs.size(); i++) {
    const double u = arrivals.uniform();
    t += -std::log1p(-u) / rate;
    offset[i] = t;
  }
  double anchor = INFINITY;
  for (std::size_t i = 0; i < recs.size(); i++) anchor = std::min(anchor, recs[i].t_admit - offset[i]);
  it.check(anchor >= probe.region_start_virtual() - 1e-12,
           "serve: no job admitted before its reconstructed due time");

  stream_result sr;
  double first_due = INFINITY, last_done = 0;
  for (std::size_t i = 0; i < recs.size(); i++) {
    const auto& r = recs[i];
    const double due = anchor + offset[i];
    bool ok = r.done;
    if (const int t = plan.tree[i]; t >= 0) {
      ok = ok && counts[i] == plan.pool_count[static_cast<std::size_t>(t)];
    }
    it.check(ok, "serve: job " + std::to_string(i) + " completed with the serial result");
    sr.latency.push_back(r.t_complete - due);
    sr.lateness.push_back(r.t_admit - due);
    first_due = std::min(first_due, due);
    last_done = std::max(last_done, r.t_complete);
  }
  sr.makespan = last_done - first_due;
  return sr;
}

}  // namespace

// ---------------------------------------------------------------------------
// public
// ---------------------------------------------------------------------------

double cpu_seconds() {
  timespec ts{};
  ::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

void iteration::check(bool ok, const std::string& what) {
  attempted++;
  if (!ok) {
    failed++;
    failures.push_back(what);
  }
}

/// A batch workload is a closed sequence of jobs (sorts or traversals),
/// each job's latency its makespan.
static void batch_jobs(iteration& it, const std::vector<double>& makespans) {
  it.virtual_s = 0;
  for (const double m : makespans) it.virtual_s += m;
  it.jobs_per_s = static_cast<double>(makespans.size()) / it.virtual_s;
  it.latency_p50_s = quantile(makespans, 0.50);
  it.latency_p95_s = quantile(makespans, 0.95);
}

iteration run_cilksort(const run_config& c) {
  iteration it;
  const double cpu0 = cpu_seconds();
  auto o = base_opts(kSortNodes, kSortRpn, derive(c.seed, 5), c.traced);
  o.cache_size = kSortCache;
  o.coll_heap_per_rank = 3 * kSortN * sizeof(std::uint32_t) / (kSortNodes * kSortRpn) + 4 * ic::MiB;

  ityr::runtime rt(o);
  std::optional<host_split> split;
  if (c.traced) split.emplace(rt);
  std::vector<region_probe> probes(kSorts, region_probe(rt, split ? &*split : nullptr));
  std::vector<int> sorted(kSorts, 0);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(kSortN);
    auto b = ityr::coll_new<std::uint32_t>(kSortN);
    for (std::size_t k = 0; k < kSorts; k++) {
      // Each sort gets its own input, generated outside the measured region.
      const std::uint64_t input_seed = derive(c.seed, 4 + 16 * k);
      ityr::root_exec([=] { apps::cilksort_generate(a, kSortN, input_seed, kSortGrain); });
      ityr::barrier();
      if (ityr::my_rank() == 0) probes[k].begin();
      ityr::root_exec([=] {
        apps::cilksort(ityr::global_span<std::uint32_t>(a, kSortN),
                       ityr::global_span<std::uint32_t>(b, kSortN), kSortCutoff);
      });
      ityr::barrier();
      if (ityr::my_rank() == 0) probes[k].end();
      const bool ok = ityr::root_exec(
          [=] { return apps::cilksort_validate(a, kSortN, input_seed, kSortGrain); });
      if (ityr::my_rank() == 0) sorted[k] = ok;
    }
    ityr::coll_delete(a, kSortN);
    ityr::coll_delete(b, kSortN);
  });
  it.setup_s = probes.front().setup_end() - cpu0;
  std::vector<double> makespans;
  for (std::size_t k = 0; k < kSorts; k++) {
    probes[k].add_to(it);
    makespans.push_back(probes[k].virtual_s());
    it.check(sorted[k] != 0, "cilksort: output sorted with the input's checksum");
  }
  batch_jobs(it, makespans);
  return it;
}

iteration run_uts_mem(const run_config& c) {
  iteration it;
  const double cpu0 = cpu_seconds();
  const forest f = pick_forest(c.seed);
  auto o = base_opts(kUtsNodes, kUtsRpn, derive(c.seed, 6), c.traced);
  // Nodes are allocated wherever stealing runs the build; leave room for a
  // skewed placement.
  o.noncoll_heap_per_rank = 16 * ic::MiB;

  ityr::runtime rt(o);
  std::optional<host_split> split;
  if (c.traced) split.emplace(rt);
  region_probe probe(rt, split ? &*split : nullptr);
  std::uint64_t built = 0;
  std::vector<std::uint64_t> traversed;
  std::vector<double> makespans;
  const forest* fp = &f;
  rt.spmd([&] {
    const auto tree = ityr::root_exec([fp] {
      const std::size_t k = fp->trees.size();
      auto raw = ityr::noncoll_new<std::byte>(apps::uts_mem_node::alloc_size(
          static_cast<std::uint32_t>(k)));
      ityr::with_checkout(raw, offsetof(apps::uts_mem_node, children), ityr::access_mode::write,
                          [&](std::byte* bytes) {
                            auto* h = reinterpret_cast<apps::uts_mem_node*>(bytes);
                            h->n_children = static_cast<std::uint32_t>(k);
                            h->depth = 0;
                            h->state = {};
                          });
      const node_ptr root = raw.cast<apps::uts_mem_node>();
      return apps::uts_mem_tree{root, 1 + build_trees(fp, root, 0, k)};
    });
    ityr::barrier();
    if (ityr::my_rank() == 0) {
      built = tree.n_nodes;
      probe.begin();
    }
    // Passes differ in their steal schedules; each starts from caches
    // invalidated by the previous region's closing acquire.
    for (int pass = 0; pass < kTraversals; pass++) {
      const double t0 = rt.eng().now();
      const auto count =
          ityr::root_exec([root = tree.root] { return apps::uts_mem_traverse(root); });
      ityr::barrier();
      if (ityr::my_rank() == 0) {
        traversed.push_back(count);
        makespans.push_back(rt.eng().now() - t0);
      }
    }
    if (ityr::my_rank() == 0) probe.end();
  });
  it.setup_s = probe.setup_end() - cpu0;
  probe.add_to(it);
  batch_jobs(it, makespans);
  it.check(built == f.nodes + 1, "uts_mem: built node count equals the serial count");
  for (const std::uint64_t n : traversed) {
    it.check(n == f.nodes + 1, "uts_mem: traversal count equals the serial count");
  }
  return it;
}

iteration run_serve(const run_config& c) {
  iteration it;
  // Both streams serve the same jobs; their arrival streams differ.
  const double cpu0 = cpu_seconds();
  const job_plan plan = plan_jobs(derive(c.seed, 2));
  const stream_result fixed =
      run_stream(c, plan, kLatencyJobs, derive(c.seed, 7), kServeRate, cpu0, it);
  const stream_result sat =
      run_stream(c, plan, kThroughputJobs, derive(c.seed, 8), kSaturatedRate, cpu_seconds(), it);
  it.latency_p50_s = quantile(fixed.latency, 0.50);
  it.latency_p95_s = quantile(fixed.latency, 0.95);
  it.lateness_p95_s = quantile(fixed.lateness, 0.95);
  it.virtual_s = sat.makespan;
  it.jobs_per_s = static_cast<double>(sat.latency.size()) / sat.makespan;
  return it;
}

// ---------------------------------------------------------------------------
// runtime-elided serial baselines (apps.serial_s)
// ---------------------------------------------------------------------------

double serial_cilksort(std::uint64_t seed) {
  std::vector<std::uint32_t> a(kSortN), b(kSortN);
  struct rec {
    static void sort(std::uint32_t* a, std::uint32_t* b, std::size_t n) {
      if (n < std::max<std::size_t>(kSortCutoff, 4)) {
        apps::detail::quicksort_serial(a, n);
        return;
      }
      const std::size_t q1 = n / 4, q2 = n / 2, q3 = q1 + n / 2;
      sort(a, b, q1);
      sort(a + q1, b + q1, q2 - q1);
      sort(a + q2, b + q2, q3 - q2);
      sort(a + q3, b + q3, n - q3);
      apps::detail::merge_serial(a, q1, a + q1, q2 - q1, b);
      apps::detail::merge_serial(a + q2, q3 - q2, a + q3, n - q3, b + q2);
      apps::detail::merge_serial(b, q2, b + q2, n - q2, a);
    }
  };
  double t = 0;
  for (std::size_t k = 0; k < kSorts; k++) {
    const std::uint64_t input_seed = derive(seed, 4 + 16 * k);
    for (std::size_t i = 0; i < kSortN; i++) a[i] = apps::cilksort_input(i, input_seed);
    const double t0 = cpu_seconds();
    rec::sort(a.data(), b.data(), kSortN);
    t += cpu_seconds() - t0;
    ITYR_CHECK(std::is_sorted(a.begin(), a.end()));
  }
  return t;
}

double serial_uts_mem(std::uint64_t seed) {
  const forest f = pick_forest(seed);
  const double t0 = cpu_seconds();
  for (int pass = 0; pass < kTraversals; pass++) {
    std::uint64_t n = 0;
    for (const auto& p : f.trees) n += apps::uts_count_serial(p);
    ITYR_CHECK(n == f.nodes);
  }
  return cpu_seconds() - t0;
}

double serial_serve(std::uint64_t seed) {
  const job_plan plan = plan_jobs(derive(seed, 2));
  const double t0 = cpu_seconds();
  std::uint64_t n = 0;
  for (const std::size_t n_jobs : {kLatencyJobs, kThroughputJobs}) {
    for (std::size_t j = 0; j < n_jobs; j++) {
      const int t = plan.tree[j];
      n += t >= 0 ? apps::uts_count_serial(plan.pool[static_cast<std::size_t>(t)])
                  : spawn_tree_serial(kSpawnDepth);
    }
  }
  const double t = cpu_seconds() - t0;
  ITYR_CHECK(n > 0);
  return t;
}

}  // namespace perfbench
