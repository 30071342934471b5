/// Ablation (extension beyond the paper): the two steal protocols
/// (ITYR_STEAL_POLICY) on the steal-heavy workloads (UTS-Mem traversal and
/// fig8-style cilksort) — the paper's uniformly random victim selection vs
/// the hierarchical escalation ladder with adaptive per-victim backoff.
///
/// Runs both protocols at 16 nodes x 8 ranks (flat and fat_tree) and at
/// 128 nodes x 8 ranks (1024 ranks, fat_tree:4,4, the paper-scale point),
/// and emits BENCH_steal.json. All runs are deterministic (fixed resume
/// cost) with ITYR_CRITPATH on, so probe counts, migrated bytes, and the
/// steal_wait span share are bit-stable and comparable across configs.
///
/// Self-checks (exit nonzero on failure):
///  * every run passes application validation, and both protocols at one
///    UTS scale agree on the traversed node count (same tree, same answer);
///  * at 1024 ranks on the fat tree, hierarchical must beat uniform by
///    >= 20% on probes per successful steal aggregated over both workloads,
///    and per workload must be strictly lower on probes/steal, inter-node
///    steal bytes, and the critical path's steal_wait share.
///
/// Usage: ./build/bench/ablation_steal [--smoke] [output.json]
///   --smoke: 32 nodes x 8 ranks; written JSON is compared against
///   bench/baseline_steal.json by the perf guard (bench/perf_guard.sh:
///   stats_diff --check, keys steals/inter_bytes).

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "support/bench_common.hpp"

namespace ib = ityr::bench;
using ityr::common::steal_policy;

namespace {

struct steal_cfg {
  const char* name;
  steal_policy sp;
};

/// Row names key bench/baseline_steal.json; `uniform_b1` (random victims,
/// one entry per steal) is kept so stats_diff can compare runs across
/// commits.
const steal_cfg kUniform = {"uniform_b1", steal_policy::random};
const steal_cfg kHier = {"hierarchical", steal_policy::hierarchical};
const steal_cfg kCfgs[] = {kUniform, kHier};

struct sweep_point {
  std::string name;  ///< "<ranks>/<topology>/<config>/<workload>"
  std::string scale, topology, policy, workload;
  ib::run_metrics m;
  std::uint64_t uts_nodes = 0;  ///< traversed tree size (uts_mem only)
};

ib::result_table g_table("Ablation: steal protocol",
                         {"scale", "topo", "config", "workload", "time[s]", "steals",
                          "probes/steal", "intra%", "steal[MB]", "steal_wait%"});

double probes_per_steal(const ib::run_metrics& m) {
  return m.steals > 0 ? static_cast<double>(m.steal_attempts) / static_cast<double>(m.steals)
                      : 0.0;
}

double steal_wait_share(const ib::run_metrics& m) {
  return m.span_s > 0 ? m.steal_wait_s / m.span_s : 0.0;
}

ityr::common::options make_opts(int n_nodes, int rpn, const char* topo, const steal_cfg& c) {
  auto opt = ib::cluster_opts(n_nodes, rpn);
  opt.topology = ityr::common::topology_spec::parse(topo);
  opt.steal = c.sp;
  opt.critpath = true;       // span / steal_wait attribution (schedule-neutral)
  opt.deterministic = true;  // bit-stable counters for the self-checks and CI guard
  return opt;
}

void record(std::vector<sweep_point>& out, int n_ranks, const char* topo, const steal_cfg& c,
            const char* workload, const ib::run_metrics& m, std::uint64_t uts_nodes = 0) {
  sweep_point p;
  p.scale = std::to_string(n_ranks);
  p.topology = topo;
  p.policy = c.name;
  p.workload = workload;
  p.name = p.scale + "/" + p.topology + "/" + p.policy + "/" + p.workload;
  p.m = m;
  p.uts_nodes = uts_nodes;
  g_table.add_row({p.scale, p.topology, p.policy, p.workload, ib::result_table::fmt(m.time),
                   std::to_string(m.steals), ib::result_table::fmt(probes_per_steal(m), 2),
                   ib::result_table::fmt(m.steals > 0 ? 100.0 *
                                                            static_cast<double>(m.intra_node_steals) /
                                                            static_cast<double>(m.steals)
                                                      : 0.0, 1),
                   ib::result_table::fmt(static_cast<double>(m.inter_steal_bytes) / 1e6, 2),
                   ib::result_table::fmt(100.0 * steal_wait_share(m), 1)});
  out.push_back(std::move(p));
}

void run_scale(std::vector<sweep_point>& points, int n_nodes, int rpn, const char* topo,
               std::size_t sort_n, std::size_t sort_cutoff, const ityr::apps::uts_params& uts) {
  for (const steal_cfg& c : kCfgs) {
    std::printf("== %dx%d %s %s ==\n", n_nodes, rpn, topo, c.name);
    {
      auto opt = make_opts(n_nodes, rpn, topo, c);
      record(points, n_nodes * rpn, topo, c, "cilksort",
             ib::run_cilksort(opt, sort_n, sort_cutoff));
    }
    {
      auto opt = make_opts(n_nodes, rpn, topo, c);
      // Same per-node tree budget as fig10: the UTS heap is allocated where
      // stealing places the work, so size it for the whole cluster.
      opt.noncoll_heap_per_rank =
          192 * ityr::common::MiB / static_cast<std::size_t>(n_nodes * rpn) * 4;
      auto um = ib::run_uts_mem(opt, uts);
      record(points, n_nodes * rpn, topo, c, "uts_mem", um.traverse, um.n_nodes);
    }
  }
}

const sweep_point* find(const std::vector<sweep_point>& points, const std::string& scale,
                        const char* policy, const char* workload) {
  for (const sweep_point& p : points)
    if (p.scale == scale && p.policy == policy && p.workload == workload) return &p;
  return nullptr;
}

void emit_json(const char* out_path, const std::vector<sweep_point>& points, bool smoke) {
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"steal_ablation\",\n"
               "  \"smoke\": %s,\n"
               "  \"workload\": \"cilksort + uts-mem geometric trees, deterministic=1, "
               "critpath=1\",\n"
               "  \"runs\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); i++) {
    const sweep_point& p = points[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"policy\": \"%s\",\n"
                 "      \"virtual_time_s\": %.9f,\n"
                 "      \"steals\": %llu,\n"
                 "      \"steal_attempts\": %llu,\n"
                 "      \"probes_per_steal\": %.4f,\n"
                 "      \"intra_node_steals\": %llu,\n"
                 "      \"inter_bytes\": %llu,\n"
                 "      \"inter_steal_stack_bytes\": %llu,\n"
                 "      \"failed_probe_s\": %.9f,\n"
                 "      \"span_s\": %.9f,\n"
                 "      \"steal_wait_share\": %.4f,\n"
                 "      \"ok\": %s\n"
                 "    }%s\n",
                 p.name.c_str(), p.policy.c_str(), p.m.time,
                 static_cast<unsigned long long>(p.m.steals),
                 static_cast<unsigned long long>(p.m.steal_attempts), probes_per_steal(p.m),
                 static_cast<unsigned long long>(p.m.intra_node_steals),
                 static_cast<unsigned long long>(p.m.inter_bytes),
                 static_cast<unsigned long long>(p.m.inter_steal_bytes), p.m.failed_probe_s,
                 p.m.span_s, steal_wait_share(p.m), p.m.ok ? "true" : "false",
                 i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_steal.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }

  ityr::apps::uts_params uts_small;  // ~1.8e5 nodes (fig10's T1L analog)
  uts_small.b0 = 4.0;
  uts_small.gen_mx = 13;
  uts_small.root_seed = 19;
  ityr::apps::uts_params uts_large = uts_small;  // ~6.9e5 nodes (T1XL analog)
  uts_large.gen_mx = 15;

  std::vector<sweep_point> points;
  int rc = 0;

  if (smoke) {
    // CI guard point: one mid-size fat tree.
    run_scale(points, 32, 8, "fat_tree:4,3", 1 << 20, 4096, uts_small);
  } else {
    for (const char* topo : {"flat", "fat_tree:4,2"})
      run_scale(points, 16, 8, topo, 1 << 21, 4096, uts_small);
    run_scale(points, 128, 8, "fat_tree:4,4", 1 << 22, 2048, uts_large);
  }

  g_table.print();
  emit_json(out_path, points, smoke);

  // ---- self-checks ----
  for (const sweep_point& p : points) {
    if (!p.m.ok) {
      std::fprintf(stderr, "FAIL: %s failed application validation\n", p.name.c_str());
      rc = 1;
    }
  }
  // Same tree => same traversed node count, regardless of steal config.
  for (const sweep_point& p : points) {
    if (p.workload != "uts_mem") continue;
    const sweep_point* ref = find(points, p.scale, points.front().policy.c_str(), "uts_mem");
    // (first config of each scale is uniform by construction)
    if (ref != nullptr && ref->topology == p.topology && p.uts_nodes != ref->uts_nodes) {
      std::fprintf(stderr, "FAIL: %s traversed %llu nodes, %s traversed %llu\n", p.name.c_str(),
                   static_cast<unsigned long long>(p.uts_nodes), ref->name.c_str(),
                   static_cast<unsigned long long>(ref->uts_nodes));
      rc = 1;
    }
  }
  // The acceptance gate, at the paper-scale 1024-rank fat-tree point. The
  // >= 20% probes-per-steal bar applies to the aggregate over both workloads
  // (total probes / total successful steals); per workload every metric must
  // still be strictly better than uniform.
  const char* gate_scale = smoke ? "256" : "1024";
  double agg_probes[2] = {0, 0}, agg_steals[2] = {0, 0};  // [0]=uniform, [1]=treatment
  for (const char* wl : {"cilksort", "uts_mem"}) {
    const sweep_point* u = find(points, gate_scale, kUniform.name, wl);
    const sweep_point* h = find(points, gate_scale, kHier.name, wl);
    if (u == nullptr || h == nullptr) continue;
    agg_probes[0] += static_cast<double>(u->m.steal_attempts);
    agg_steals[0] += static_cast<double>(u->m.steals);
    agg_probes[1] += static_cast<double>(h->m.steal_attempts);
    agg_steals[1] += static_cast<double>(h->m.steals);
    const double pu = probes_per_steal(u->m), ph = probes_per_steal(h->m);
    // Smoke runs are a drift guard, not the acceptance gate: require
    // no-worse probe cost instead of the full gate (the margin shrinks with
    // rank count, and the critpath share is noisy at 256 ranks).
    if (!(ph <= pu)) {
      std::fprintf(stderr, "FAIL: %s probes/steal %.2f not below uniform %.2f\n", wl, ph, pu);
      rc = 1;
    }
    if (!smoke && !(h->m.inter_steal_bytes < u->m.inter_steal_bytes)) {
      std::fprintf(stderr, "FAIL: %s inter-node steal bytes %llu not below uniform %llu\n", wl,
                   static_cast<unsigned long long>(h->m.inter_steal_bytes),
                   static_cast<unsigned long long>(u->m.inter_steal_bytes));
      rc = 1;
    }
    if (!smoke && !(steal_wait_share(h->m) < steal_wait_share(u->m))) {
      std::fprintf(stderr, "FAIL: %s steal_wait share %.4f not below uniform %.4f\n", wl,
                   steal_wait_share(h->m), steal_wait_share(u->m));
      rc = 1;
    }
  }
  if (!smoke && agg_steals[0] > 0 && agg_steals[1] > 0) {
    const double pu = agg_probes[0] / agg_steals[0];
    const double ph = agg_probes[1] / agg_steals[1];
    if (!(ph <= 0.8 * pu)) {
      std::fprintf(stderr, "FAIL: aggregate probes/steal %.2f vs uniform %.2f (bar 0.80x)\n", ph,
                   pu);
      rc = 1;
    } else {
      std::printf("gate: aggregate probes/steal %.2f vs uniform %.2f (%.2fx)\n", ph, pu,
                  ph / pu);
    }
  }
  if (rc == 0) std::printf("self-check ok (%zu runs)\n", points.size());
  return rc;
}
