#include "bench_common.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace ityr::bench {

namespace {

double real_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

run_metrics collect(runtime& rt, double time, bool ok) {
  run_metrics m;
  m.time = time;
  m.ok = ok;
  m.steals = rt.sched().get_stats().steals;
  const auto cst = rt.pgas().aggregate_stats();
  m.fetched_bytes = cst.fetched_bytes;
  m.written_back_bytes = cst.written_back_bytes + cst.write_through_bytes;
  m.messages = rt.rma().net().total_messages();
  m.bytes = rt.rma().net().total_bytes();
  m.stats = collect_metrics(rt);
  return m;
}

}  // namespace

common::options cluster_opts(int n_nodes, int ranks_per_node) {
  common::options o;
  o.n_nodes = n_nodes;
  o.ranks_per_node = ranks_per_node;
  o.block_size = 64 * common::KiB;
  o.sub_block_size = 4 * common::KiB;
  o.cache_size = 4 * common::MiB;  // scaled from the paper's 128 MB
  o.coll_heap_per_rank = 32 * common::MiB;
  o.noncoll_heap_per_rank = 32 * common::MiB;
  o.default_dist = common::dist_policy::block_cyclic;
  o.policy = common::cache_policy::write_back_lazy;
  o.deterministic = false;  // measured compute time
  return o;
}

// ---------------------------------------------------------------------------
// Cilksort
// ---------------------------------------------------------------------------

run_metrics run_cilksort(const common::options& opt, std::size_t n, std::size_t cutoff) {
  return run_cilksort_with_stats(opt, n, cutoff, nullptr);
}

run_metrics run_cilksort_with_stats(const common::options& opt, std::size_t n, std::size_t cutoff,
                                    pgas::cache_system::stats* cache_stats_out) {
  auto o = opt;
  o.coll_heap_per_rank =
      std::max(o.coll_heap_per_rank,
               3 * n * sizeof(std::uint32_t) / static_cast<std::size_t>(o.n_ranks()) +
                   4 * common::MiB);
  runtime rt(o);
  double elapsed = 0;
  bool ok = false;
  rt.spmd([&] {
    auto a = coll_new<std::uint32_t>(n);
    auto b = coll_new<std::uint32_t>(n);
    root_exec([=] { apps::cilksort_generate(a, n, 42, 16384); });
    barrier();
    const double t0 = rt.eng().now();
    root_exec([=] {
      apps::cilksort(global_span<std::uint32_t>(a, n), global_span<std::uint32_t>(b, n), cutoff);
    });
    barrier();
    const double t1 = rt.eng().now();
    bool sorted = root_exec([=] { return apps::cilksort_validate(a, n, 42, 16384); });
    if (my_rank() == 0) {
      elapsed = t1 - t0;
      ok = sorted;
    }
    coll_delete(a, n);
    coll_delete(b, n);
  });
  if (cache_stats_out != nullptr) *cache_stats_out = rt.pgas().aggregate_stats();
  return collect(rt, elapsed, ok);
}

double run_cilksort_serial(std::size_t n) {
  std::vector<std::uint32_t> a(n);
  for (std::size_t i = 0; i < n; i++) a[i] = apps::cilksort_input(i, 42);
  std::vector<std::uint32_t> b(n);
  const auto t0 = std::chrono::steady_clock::now();
  // Same algorithm, runtime elided: 4-way recursive mergesort on local
  // memory with the same serial kernels.
  struct rec {
    static void sort(std::uint32_t* a, std::uint32_t* b, std::size_t n, std::size_t cutoff) {
      if (n < std::max<std::size_t>(cutoff, 4)) {
        apps::detail::quicksort_serial(a, n);
        return;
      }
      const std::size_t q1 = n / 4, q2 = n / 2, q3 = q1 + (n / 2);
      sort(a, b, q1, cutoff);
      sort(a + q1, b + q1, q2 - q1, cutoff);
      sort(a + q2, b + q2, q3 - q2, cutoff);
      sort(a + q3, b + q3, n - q3, cutoff);
      apps::detail::merge_serial(a, q1, a + q1, q2 - q1, b);
      apps::detail::merge_serial(a + q2, q3 - q2, a + q3, n - q3, b + q2);
      apps::detail::merge_serial(b, q2, b + q2, n - q2, a);
    }
  };
  rec::sort(a.data(), b.data(), n, 16384);
  const double t = real_seconds_since(t0);
  ITYR_CHECK(std::is_sorted(a.begin(), a.end()));
  return t;
}

// ---------------------------------------------------------------------------
// UTS-Mem
// ---------------------------------------------------------------------------

uts_metrics run_uts_mem(const common::options& opt, const apps::uts_params& p) {
  runtime rt(opt);
  uts_metrics um;
  double traverse_time = 0;
  std::uint64_t built = 0, traversed = 0;
  std::uint64_t fetched_after_build = 0;
  rt.spmd([&] {
    auto tree = root_exec([p] { return apps::uts_mem_build(p); });
    barrier();
    const double t1 = rt.eng().now();
    if (my_rank() == 0) fetched_after_build = rt.pgas().aggregate_stats().fetched_bytes;
    auto count = root_exec([tree] { return apps::uts_mem_traverse(tree.root); });
    barrier();
    const double t2 = rt.eng().now();
    if (my_rank() == 0) {
      traverse_time = t2 - t1;
      built = tree.n_nodes;
      traversed = count;
    }
  });
  um.traverse = collect(rt, traverse_time, built == traversed);
  um.traverse.fetched_bytes -= fetched_after_build;  // traversal-only traffic
  um.n_nodes = traversed;
  um.throughput = static_cast<double>(traversed) / traverse_time;
  return um;
}

// ---------------------------------------------------------------------------
// FMM
// ---------------------------------------------------------------------------

fmm_metrics run_fmm(const common::options& opt, std::size_t n_bodies,
                    const apps::fmm::fmm_config& cfg, bool static_baseline, bool check) {
  namespace f = apps::fmm;
  auto o = opt;
  o.coll_heap_per_rank = std::max(
      o.coll_heap_per_rank,
      n_bodies * 640 / static_cast<std::size_t>(o.n_ranks()) + 8 * common::MiB);
  runtime rt(o);
  fmm_metrics fm;
  double elapsed = 0;
  f::fmm_error err{};
  rt.spmd([&] {
    auto bodies = coll_new<f::body>(n_bodies);
    root_exec([=] { f::fmm_generate_bodies(bodies, n_bodies, 42, 8192); });
    f::fmm_tree t = f::fmm_build_tree(bodies, n_bodies, cfg);
    barrier();
    if (static_baseline) {
      auto res = f::fmm_solve_static(t);
      barrier();
      if (my_rank() == 0) {
        elapsed = res.makespan;
        if (check) err = f::fmm_check(t, 64);
      }
      barrier();
    } else {
      const double t0 = rt.eng().now();
      root_exec([=] { f::fmm_solve(t); });
      barrier();
      const double t1 = rt.eng().now();
      if (check) err = root_exec([=] { return f::fmm_check(t, 64); });
      if (my_rank() == 0) elapsed = t1 - t0;
    }
    f::fmm_destroy_tree(t);
    coll_delete(bodies, n_bodies);
  });
  fm.solve = collect(rt, elapsed, !check || err.pot < 0.05);
  fm.err = err;
  if (static_baseline) {
    // The static solve records its phases into the scheduler's timeline
    // (fmm_solve_static); read idleness from that single source of truth
    // instead of recomputing it by hand.
    const auto& tl = rt.sched().timeline();
    fm.idleness = tl.idleness();
    fm.timeline_busy_s = tl.total_busy();
    fm.timeline_idle_s = tl.total_idle();
  }
  return fm;
}

run_metrics run_fmm_serial(std::size_t n_bodies, const apps::fmm::fmm_config& cfg) {
  // Caching on (all memory is home-local on one rank, so accesses are
  // direct), nspawn = infinity so no tasks are forked.
  auto c = cfg;
  c.nspawn = ~std::uint32_t{0};
  return run_fmm(cluster_opts(1, 1), n_bodies, c, false, false).solve;
}

// ---------------------------------------------------------------------------
// profiled cilksort (Fig. 9)
// ---------------------------------------------------------------------------

metrics_snapshot run_cilksort_profiled(const common::options& opt, std::size_t n,
                                       std::size_t cutoff) {
  auto o = opt;
  o.coll_heap_per_rank =
      std::max(o.coll_heap_per_rank,
               3 * n * sizeof(std::uint32_t) / static_cast<std::size_t>(o.n_ranks()) +
                   4 * common::MiB);
  runtime rt(o);
  rt.prof().set_enabled(true);
  rt.spmd([&] {
    auto a = coll_new<std::uint32_t>(n);
    auto b = coll_new<std::uint32_t>(n);
    root_exec([=] { apps::cilksort_generate(a, n, 42, 16384); });
    barrier();
    rt.prof().reset();  // attribute only the sort region (generate excluded)
    root_exec([=] {
      apps::cilksort(global_span<std::uint32_t>(a, n), global_span<std::uint32_t>(b, n), cutoff);
    });
    barrier();
    coll_delete(a, n);
    coll_delete(b, n);
  });
  return collect_metrics(rt);
}

// ---------------------------------------------------------------------------
// result table
// ---------------------------------------------------------------------------

result_table::result_table(std::string title, std::vector<std::string> header)
    : title_(std::move(title)), header_(std::move(header)) {}

void result_table::add_row(std::vector<std::string> row) { rows_.push_back(std::move(row)); }

std::string result_table::fmt(double v, int prec) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", prec, v);
  return buf;
}

void result_table::print() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); c++) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size() && c < widths.size(); c++) {
      widths[c] = std::max(widths[c], r[c].size());
    }
  }
  std::printf("\n=== %s ===\n", title_.c_str());
  for (std::size_t c = 0; c < header_.size(); c++) {
    std::printf("%-*s  ", static_cast<int>(widths[c]), header_[c].c_str());
  }
  std::printf("\n");
  for (std::size_t c = 0; c < header_.size(); c++) {
    std::printf("%s  ", std::string(widths[c], '-').c_str());
  }
  std::printf("\n");
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); c++) {
      std::printf("%-*s  ", static_cast<int>(widths[c]), r[c].c_str());
    }
    std::printf("\n");
  }
  std::fflush(stdout);
}

}  // namespace ityr::bench
