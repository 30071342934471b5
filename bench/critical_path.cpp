/// Critical-path profiler sweep, emitted as BENCH_critpath.json: cilksort
/// and UTS-Mem run with ITYR_CRITPATH at two grain sizes each, reporting
/// work/span/parallelism, the per-bucket span breakdown (compute /
/// fetch_stall / release_stall / steal_wait / acquire_fence), the what-if
/// network-free projection, and p50/p90/p99 of the task-execution, steal-
/// latency and fence-time histograms, and the run's steal count — plus a
/// what-if contrast section running the same workload under flat vs
/// fat_tree topologies.
///
/// All runs are deterministic, so the emitted numbers are reproducible and
/// CI guards them with tools/stats_diff against bench/baseline_critpath.json
/// (rows are addressed by their "name" member).
///
/// Usage: ./build/bench/critical_path [--smoke] [output.json]

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/apps/uts.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"
#include "itoyori/core/runtime.hpp"
#include "support/bench_common.hpp"

namespace ib = ityr::bench;

namespace {

struct cp_row {
  std::string name;
  std::string workload;
  bool ok = false;
  double virtual_s = 0;
  double work_s = 0;
  double span_s = 0;
  double parallelism = 0;
  double steals = 0;  ///< sched.steals of the whole run
  double bucket[ityr::sched::n_cp_buckets] = {};
  double net_free_span_s = 0;
  double net_free_speedup = 0;
  double task_p50 = 0, task_p90 = 0, task_p99 = 0;
  double steal_p50 = 0, steal_p90 = 0, steal_p99 = 0;
  double fence_p50 = 0, fence_p90 = 0, fence_p99 = 0;
};

double pct(const ityr::metrics_snapshot& m, const char* hist, double p) {
  const ityr::metric_histogram* h = m.find_histogram(hist);
  return h != nullptr ? h->hist.percentile(p) : 0.0;
}

/// Read everything the row reports out of the runtime's metrics registry.
void fill_from_metrics(const ityr::metrics_snapshot& m, cp_row& row) {
  row.work_s = m.total("critpath.work_s");
  row.span_s = m.total("critpath.span_s");
  row.parallelism = m.total("critpath.parallelism");
  row.steals = m.total("sched.steals");
  for (int b = 0; b < ityr::sched::n_cp_buckets; b++) {
    const auto k = static_cast<ityr::sched::cp_bucket>(b);
    row.bucket[b] = m.total(std::string("critpath.span.") + ityr::sched::to_string(k) + "_s");
  }
  row.net_free_span_s = m.total("critpath.whatif.network_free_span_s");
  row.net_free_speedup = m.total("critpath.whatif.network_free_speedup");
  row.task_p50 = pct(m, "hist.task_exec_s", 50);
  row.task_p90 = pct(m, "hist.task_exec_s", 90);
  row.task_p99 = pct(m, "hist.task_exec_s", 99);
  row.steal_p50 = pct(m, "hist.steal_latency_s", 50);
  row.steal_p90 = pct(m, "hist.steal_latency_s", 90);
  row.steal_p99 = pct(m, "hist.steal_latency_s", 99);
  row.fence_p50 = pct(m, "hist.fence_s", 50);
  row.fence_p90 = pct(m, "hist.fence_s", 90);
  row.fence_p99 = pct(m, "hist.fence_s", 99);
}

cp_row run_cilksort_cp(ityr::common::options o, const std::string& name, std::size_t n,
                       std::size_t cutoff) {
  o.critpath = true;
  o.deterministic = true;
  cp_row row;
  row.name = name;
  row.workload = "cilksort n=" + std::to_string(n) + " cutoff=" + std::to_string(cutoff);
  ityr::runtime rt(o);
  bool sorted = false;
  double elapsed = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    auto b = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n, 42, 16384); });
    ityr::barrier();
    const double t0 = rt.eng().now();
    ityr::root_exec([=] {
      ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                           ityr::global_span<std::uint32_t>(b, n), cutoff);
    });
    ityr::barrier();
    if (ityr::my_rank() == 0) elapsed = rt.eng().now() - t0;
    sorted = ityr::root_exec([=] { return ityr::apps::cilksort_validate(a, n, 42, 16384); });
    ityr::coll_delete(a, n);
    ityr::coll_delete(b, n);
  });
  row.ok = sorted;
  row.virtual_s = elapsed;
  fill_from_metrics(rt.metrics(), row);
  return row;
}

cp_row run_uts_cp(ityr::common::options o, const std::string& name,
                  const ityr::apps::uts_params& p) {
  o.critpath = true;
  o.deterministic = true;
  cp_row row;
  row.name = name;
  row.workload = "uts_mem gen_mx=" + std::to_string(p.gen_mx);
  const std::uint64_t expect = ityr::apps::uts_count_serial(p);
  ityr::runtime rt(o);
  std::uint64_t counted = 0;
  double elapsed = 0;
  rt.spmd([&] {
    auto tree = ityr::root_exec([=] { return ityr::apps::uts_mem_build(p); });
    ityr::barrier();
    const double t0 = rt.eng().now();
    counted = ityr::root_exec([=] { return ityr::apps::uts_mem_traverse(tree.root); });
    ityr::barrier();
    if (ityr::my_rank() == 0) elapsed = rt.eng().now() - t0;
    ityr::root_exec([=] { ityr::apps::uts_mem_destroy(tree.root); });
  });
  row.ok = counted == expect;
  row.virtual_s = elapsed;
  fill_from_metrics(rt.metrics(), row);
  return row;
}

void emit_row(std::FILE* f, const cp_row& r, bool last) {
  std::fprintf(f,
               "    {\"name\": \"%s\", \"workload\": \"%s\", \"ok\": %s,\n"
               "     \"virtual_s\": %.9f, \"work_s\": %.9f, \"span_s\": %.9f, "
               "\"parallelism\": %.6f, \"steals\": %.0f,\n"
               "     \"span_breakdown\": {",
               r.name.c_str(), r.workload.c_str(), r.ok ? "true" : "false", r.virtual_s,
               r.work_s, r.span_s, r.parallelism, r.steals);
  for (int b = 0; b < ityr::sched::n_cp_buckets; b++) {
    const auto k = static_cast<ityr::sched::cp_bucket>(b);
    std::fprintf(f, "%s\"%s_s\": %.9f", b > 0 ? ", " : "", ityr::sched::to_string(k),
                 r.bucket[b]);
  }
  std::fprintf(f,
               "},\n"
               "     \"whatif\": {\"network_free_span_s\": %.9f, "
               "\"network_free_speedup\": %.6f},\n"
               "     \"task_exec_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g},\n"
               "     \"steal_latency_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g},\n"
               "     \"fence_s\": {\"p50\": %.9g, \"p90\": %.9g, \"p99\": %.9g}}%s\n",
               r.net_free_span_s, r.net_free_speedup, r.task_p50, r.task_p90, r.task_p99,
               r.steal_p50, r.steal_p90, r.steal_p99, r.fence_p50, r.fence_p90, r.fence_p99,
               last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_critpath.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      out_path = argv[i];
    }
  }

  // ---- grain-size sweep: cilksort and UTS-Mem, two grains each ----
  const std::size_t sort_n = smoke ? (1 << 16) : (1 << 18);
  const std::vector<std::size_t> cutoffs = smoke ? std::vector<std::size_t>{2048, 8192}
                                                 : std::vector<std::size_t>{2048, 16384};
  const std::vector<int> gen_mxs = smoke ? std::vector<int>{7, 9} : std::vector<int>{9, 11};

  std::vector<cp_row> rows;
  for (const std::size_t cutoff : cutoffs) {
    const std::string name = "cilksort_g" + std::to_string(cutoff);
    std::printf("running %s ...\n", name.c_str());
    rows.push_back(run_cilksort_cp(ib::cluster_opts(2, 4), name, sort_n, cutoff));
  }
  for (const int gm : gen_mxs) {
    ityr::apps::uts_params p;
    p.gen_mx = gm;
    const std::string name = "uts_g" + std::to_string(gm);
    std::printf("running %s ...\n", name.c_str());
    rows.push_back(run_uts_cp(ib::cluster_opts(2, 4), name, p));
  }

  // ---- what-if contrast: the same workload on two interconnect shapes.
  //      The projector must report *distinct* burdened spans and network-free
  //      speedups: the fat tree prices cross-core traffic higher, and the
  //      distance-classed net[] attribution is what resolves that.
  std::vector<cp_row> topo_rows;
  {
    auto flat = ib::cluster_opts(4, 2);
    flat.topology = ityr::common::topology_spec::parse("flat");
    topo_rows.push_back(
        run_cilksort_cp(flat, "whatif_flat", sort_n, cutoffs.front()));
    auto fat = ib::cluster_opts(4, 2);
    fat.topology = ityr::common::topology_spec::parse("fat_tree:2,2");
    topo_rows.push_back(
        run_cilksort_cp(fat, "whatif_fat_tree", sort_n, cutoffs.front()));
  }

  // ---- validation before writing ----
  bool ok = true;
  for (const cp_row& r : rows) {
    if (!r.ok) {
      std::fprintf(stderr, "FAIL: %s: workload validation failed\n", r.name.c_str());
      ok = false;
    }
    if (!(r.span_s > 0) || !(r.work_s >= r.span_s * 0.999)) {
      std::fprintf(stderr, "FAIL: %s: degenerate work/span (work=%.9f span=%.9f)\n",
                   r.name.c_str(), r.work_s, r.span_s);
      ok = false;
    }
    double bsum = 0;
    for (const double b : r.bucket) bsum += b;
    if (!(bsum > r.span_s * 0.999 && bsum < r.span_s * 1.001)) {
      std::fprintf(stderr, "FAIL: %s: buckets sum %.9f != span %.9f\n", r.name.c_str(), bsum,
                   r.span_s);
      ok = false;
    }
  }
  const bool topo_distinct =
      topo_rows.size() == 2 && topo_rows[0].ok && topo_rows[1].ok &&
      topo_rows[0].span_s != topo_rows[1].span_s &&
      topo_rows[0].net_free_speedup != topo_rows[1].net_free_speedup;
  if (!topo_distinct) {
    std::fprintf(stderr, "FAIL: flat vs fat_tree what-if projections are not distinct\n");
    ok = false;
  }

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"critical_path\",\n"
               "  \"smoke\": %s,\n"
               "  \"config\": \"2x4 ranks deterministic critpath=1 (what-if rows: 4x2)\",\n"
               "  \"rows\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < rows.size(); i++) emit_row(f, rows[i], i + 1 == rows.size());
  std::fprintf(f, "  ],\n  \"whatif_topology\": [\n");
  for (std::size_t i = 0; i < topo_rows.size(); i++) {
    emit_row(f, topo_rows[i], i + 1 == topo_rows.size());
  }
  std::fprintf(f, "  ],\n  \"whatif_topology_distinct\": %s\n}\n",
               topo_distinct ? "true" : "false");
  std::fclose(f);

  std::printf("wrote %s\n", out_path);
  for (const cp_row& r : rows) {
    std::printf("  %-16s T1=%.6fs Tinf=%.6fs parallelism=%.2f net-free speedup=%.3fx\n",
                r.name.c_str(), r.work_s, r.span_s, r.parallelism, r.net_free_speedup);
  }
  for (const cp_row& r : topo_rows) {
    std::printf("  %-16s span=%.6fs net-free=%.6fs speedup=%.3fx\n", r.name.c_str(), r.span_s,
                r.net_free_span_s, r.net_free_speedup);
  }
  return ok ? 0 : 1;
}
