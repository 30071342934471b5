/// The paper's evaluation (Section 6: Tables 1-2, Figs. 7-11) and three
/// design ablations, as one table of points:
///
///   ./build/bench/paper [--figure NAME]... [OUT.json]
///
/// A point is one row (figure, parameters) of that table. It runs through
/// the support/bench_common.hpp runners and yields one result, which makes
/// both a row of its figure's paper-style table on stdout and a record in
/// the name-keyed `points` array of OUT.json (default BENCH_paper.json):
///
///   {"name": "fig7/cutoff:64/policy:none", "figure": "fig7", "cutoff": 64,
///    "policy": "none", "virtual_s": ..., "ok": true, ..., "stats": {...}}
///
/// `stats` is the run's collect_metrics() JSON (with no series for the
/// host-timed serial sort), so tools/stats_diff diffs two such files.
/// virtual_s and the time columns cover the measured region only; the count
/// values (bar UTS-Mem's traversal-only fetched_bytes) and `stats` cover the
/// whole run, input generation and validation included.
///
/// Each point prints one stderr line: its name, virtual seconds and host
/// CPU seconds. The exit status is nonzero when any point throws or fails
/// its validation, and stderr names that point.
///
/// `--figure NAME` (repeatable) selects figures; by default all run, in the
/// order of the paper's evaluation: table1 fig7 fig8 fig9 fig10 fig11
/// table2 ablation_subblock ablation_cache ablation_dist.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "itoyori/core/ityr.hpp"
#include "support/bench_common.hpp"

namespace ib = ityr::bench;
using ityr::common::cache_policy;
using ityr::common::dist_policy;

namespace {

/// One member of a record: a number, a string or a flag.
struct member {
  std::string key;
  std::variant<double, std::string, bool> value;
};

template <typename T>
member num(std::string key, T v) {
  return {std::move(key), static_cast<double>(v)};
}
member text(std::string key, std::string v) { return {std::move(key), std::move(v)}; }
member flag(std::string key, bool v) { return {std::move(key), v}; }

/// What a point yields: its values, virtual_s and ok first, and the
/// registry snapshot of its run.
struct result {
  std::vector<member> values;
  ityr::metrics_snapshot stats;
};

struct point {
  std::string name;  ///< "<figure>/<parameters>", e.g. "fig7/cutoff:64/policy:none"
  std::vector<member> params;
  std::function<result()> run;
};

/// A point that ran: name, parameters and values, and its snapshot.
struct record {
  std::string name;
  std::vector<member> members;
  ityr::metrics_snapshot stats;

  const member* find(const std::string& key) const {
    for (const member& m : members) {
      if (m.key == key) return &m;
    }
    return nullptr;
  }
  double number(const std::string& key) const { return std::get<double>(find(key)->value); }
};

/// A table column: the record member it shows. A number prints divided by
/// `div` with `prec` decimals; a missing member prints "-".
struct column {
  const char* header;
  const char* key;
  int prec = 0;
  double div = 1;
};

struct figure;
void print_columns(const figure& f, const std::vector<record>& recs);

struct figure {
  using printer = void (*)(const figure&, const std::vector<record>&);

  figure(std::string name, std::string title, std::vector<column> columns,
         printer print = print_columns)
      : name(std::move(name)), title(std::move(title)), columns(std::move(columns)), print(print) {}

  std::string name;  ///< --figure NAME, and the first part of every point name
  std::string title;
  std::vector<column> columns;
  printer print;
  std::vector<point> points;

  void add(const std::string& params_name, std::vector<member> params,
           std::function<result()> run) {
    // tools/stats_diff joins path parts with '.', so a name must not hold one.
    if (params_name.find('.') != std::string::npos) {
      throw std::logic_error("point name with '.': " + params_name);
    }
    params.insert(params.begin(), text("figure", name));
    points.push_back({name + "/" + params_name, std::move(params), std::move(run)});
  }
};

std::string cell(const record& r, const column& c) {
  const member* m = r.find(c.key);
  if (m == nullptr) return "-";
  if (const auto* s = std::get_if<std::string>(&m->value)) return *s;
  if (const auto* b = std::get_if<bool>(&m->value)) return *b ? "yes" : "NO";
  return ib::result_table::fmt(std::get<double>(m->value) / c.div, c.prec);
}

void print_columns(const figure& f, const std::vector<record>& recs) {
  std::vector<std::string> header;
  for (const column& c : f.columns) header.push_back(c.header);
  ib::result_table t(f.title, header);
  for (const record& r : recs) {
    std::vector<std::string> row;
    for (const column& c : f.columns) row.push_back(cell(r, c));
    t.add_row(std::move(row));
  }
  t.print();
}

std::string json_value(const member& m) {
  if (const auto* s = std::get_if<std::string>(&m.value)) return '"' + *s + '"';
  if (const auto* b = std::get_if<bool>(&m.value)) return *b ? "true" : "false";
  const double v = std::get<double>(m.value);
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_record(const record& r) {
  std::string out = "{\"name\": \"" + r.name + "\"";
  for (const member& m : r.members) out += ", \"" + m.key + "\": " + json_value(m);
  return out + ", \"stats\": " + r.stats.to_json() + "}";
}

/// virtual_s, ok and the run-wide counts of a simulated run, then the
/// point's own values.
result from_run(ib::run_metrics m, std::vector<member> extra = {}) {
  std::vector<member> v = {num("virtual_s", m.time), flag("ok", m.ok), num("steals", m.steals),
                           num("fetched_bytes", m.fetched_bytes),
                           num("written_back_bytes", m.written_back_bytes),
                           num("messages", m.messages)};
  for (member& e : extra) v.push_back(std::move(e));
  return {std::move(v), std::move(m.stats)};
}

// ---------------------------------------------------------------------------
// The points, figure by figure. Scaled setups and the claims each figure
// reproduces are in EXPERIMENTS.md.
// ---------------------------------------------------------------------------

struct topo {
  int nodes, rpn;
  int ranks() const { return nodes * rpn; }
};
const topo kTopos[] = {{1, 4}, {2, 4}, {6, 4}, {12, 4}};

const cache_policy kAllPolicies[] = {cache_policy::none, cache_policy::write_through,
                                     cache_policy::write_back, cache_policy::write_back_lazy};
const cache_policy kNoneOrLazy[] = {cache_policy::none, cache_policy::write_back_lazy};

ityr::common::options cluster(const topo& t, cache_policy policy) {
  auto o = ib::cluster_opts(t.nodes, t.rpn);
  o.policy = policy;
  return o;
}

std::string str(std::size_t v) { return std::to_string(v); }

/// The paper's FMM parameters except theta, whose MAC convention differs.
ityr::apps::fmm::fmm_config fmm_cfg() {
  ityr::apps::fmm::fmm_config c;
  c.theta = 0.5;
  c.ncrit = 32;
  c.nspawn = 1000;
  return c;
}

/// Geometric UTS trees: gen_mx 13 has ~1.8e5 nodes, 15 has ~6.9e5.
ityr::apps::uts_params uts_tree(int gen_mx) {
  ityr::apps::uts_params p;
  p.gen_mx = gen_mx;
  return p;
}

void print_table1(const figure& f, const std::vector<record>& recs) {
  const auto opt = ib::cluster_opts(12, 4);
  const auto fmt = [](double v, int prec) { return ib::result_table::fmt(v, prec); };
  ib::result_table env("Table 1 analog: simulated experimental environment", {"item", "value"});
  env.add_row({"Cluster", std::to_string(opt.n_nodes) + " nodes x " +
                              std::to_string(opt.ranks_per_node) + " ranks/node (paper: 36 x 48)"});
  env.add_row({"Process model", "1 MPI-like process per core (uni-address tasking)"});
  env.add_row({"Communication", "simulated RDMA one-sided (MPI-3 RMA semantics)"});
  env.add_row({"Inter-node latency", fmt(opt.net.inter_latency * 1e6, 2) + " us"});
  env.add_row({"Inter-node bandwidth", fmt(opt.net.inter_bandwidth / 1e9, 1) + " GB/s"});
  env.add_row({"Intra-node latency", fmt(opt.net.intra_latency * 1e6, 2) + " us"});
  env.add_row({"Intra-node bandwidth", fmt(opt.net.intra_bandwidth / 1e9, 1) + " GB/s"});
  env.add_row({"Remote atomic latency", fmt(opt.net.atomic_latency * 1e6, 2) + " us"});
  env.add_row({"Memory block size", str(opt.block_size / 1024) + " KiB (paper: 64 KiB)"});
  env.add_row({"Sub-block size", str(opt.sub_block_size / 1024) + " KiB (paper: 4 KiB)"});
  env.add_row({"Cache size / rank", str(opt.cache_size / (1024 * 1024)) + " MiB (paper: 128 MiB)"});
  env.add_row({"Distribution", "block-cyclic (collective allocations)"});
  env.add_row({"Expansion order P", std::to_string(ityr::apps::fmm::kP)});
  env.print();

  // Seconds per operation, printed in the unit that suits each.
  const struct {
    const char* key;
    const char* label;
    double scale;
    int prec;
    const char* unit;
  } costs[] = {{"get_8b_s", "8B remote GET", 1e6, 2, " us"},
               {"get_64kib_s", "64KiB remote GET", 1e6, 2, " us"},
               {"checkout_hit_s", "checkout/checkin hit (64B)", 1e9, 0, " ns"},
               {"fork_join_s", "fork+join fast path", 1e9, 0, " ns"}};
  ib::result_table meas(f.title, {"primitive", "cost"});
  for (const record& r : recs) {
    for (const auto& c : costs) {
      if (r.find(c.key) != nullptr) {
        meas.add_row({c.label, fmt(r.number(c.key) * c.scale, c.prec) + c.unit});
      }
    }
  }
  meas.print();
}

figure table1() {
  figure f{"table1", "Measured primitive costs (virtual time)", {}, print_table1};
  f.add("rma", {}, [] {
    const auto opt = ib::cluster_opts(2, 1);
    const std::size_t bs = opt.block_size;
    ityr::runtime rt(opt);
    double t_begin = 0, t_end = 0, get_8b = 0, get_64kib = 0, hit = 0;
    rt.spmd([&] {
      auto a = ityr::coll_new<std::byte>(4 * bs);
      if (ityr::my_rank() == 0) {
        auto& eng = rt.eng();
        const auto remote = a.raw() + bs;
        // 8-byte remote read (uncached GET).
        double t0 = t_begin = eng.now();
        std::byte buf[8];
        for (int i = 0; i < 100; i++) rt.pgas().get(remote, buf, 8);
        get_8b = (eng.now() - t0) / 100;
        // 64 KiB remote read.
        std::vector<std::byte> big(bs);
        t0 = eng.now();
        for (int i = 0; i < 100; i++) rt.pgas().get(remote, big.data(), big.size());
        get_64kib = (eng.now() - t0) / 100;
        // Cached checkout hit. Hits never yield, so use the precise clock
        // (which includes measured-but-uncommitted host compute).
        rt.pgas().checkout(remote, 64, ityr::access_mode::read);
        rt.pgas().checkin(remote, 64, ityr::access_mode::read);
        t0 = eng.now_precise();
        for (int i = 0; i < 1000; i++) {
          rt.pgas().checkout(remote, 64, ityr::access_mode::read);
          rt.pgas().checkin(remote, 64, ityr::access_mode::read);
        }
        t_end = eng.now_precise();
        hit = (t_end - t0) / 1000;
      }
      ityr::barrier();
      ityr::coll_delete(a, 4 * bs);
    });
    return result{{num("virtual_s", t_end - t_begin), flag("ok", true), num("get_8b_s", get_8b),
                   num("get_64kib_s", get_64kib), num("checkout_hit_s", hit)},
                  ityr::collect_metrics(rt)};
  });
  f.add("fork_join", {}, [] {
    ityr::runtime rt(ib::cluster_opts(1, 1));
    double elapsed = 0;
    rt.spmd([&] {
      elapsed = ityr::root_exec([] {
        auto& eng = ityr::rt().eng();
        const double t0 = eng.now();
        for (int i = 0; i < 2000; i++) ityr::parallel_invoke([] {}, [] {});
        return eng.now() - t0;
      });
    });
    return result{{num("virtual_s", elapsed), flag("ok", true), num("fork_join_s", elapsed / 4000)},
                  ityr::collect_metrics(rt)};
  });
  return f;
}

figure fig7() {
  figure f{"fig7", "Fig. 7 analog: Cilksort cutoff sweep, 12 nodes x 4 ranks, 2^20 elements",
           {{"cutoff", "cutoff"}, {"policy", "policy"}, {"time[s]", "virtual_s", 4},
            {"steals", "steals"}, {"fetch[MB]", "fetched_bytes", 1, 1e6},
            {"wb[MB]", "written_back_bytes", 1, 1e6}, {"ok", "ok"}}};
  for (std::size_t cutoff : {64, 256, 1024, 4096, 16384, 65536}) {
    for (cache_policy policy : kAllPolicies) {
      const std::string p = ityr::common::to_string(policy);
      f.add("cutoff:" + str(cutoff) + "/policy:" + p, {num("cutoff", cutoff), text("policy", p)},
            [=] { return from_run(ib::run_cilksort(cluster({12, 4}, policy), 1 << 20, cutoff)); });
    }
  }
  return f;
}

figure fig8() {
  figure f{"fig8", "Fig. 8 analog: Cilksort strong scaling (cutoff 16Ki)",
           {{"elements", "elements"}, {"ranks", "ranks"}, {"policy", "policy"},
            {"time[s]", "virtual_s", 4}, {"speedup-vs-serial", "speedup", 2},
            {"steals", "steals"}, {"ok", "ok"}}};
  for (std::size_t n : {1 << 20, 1 << 23}) {
    // The runtime-elided baseline runs first; the other points of its size
    // divide it by their time.
    auto serial = std::make_shared<double>(0);
    f.add("serial/n:" + str(n),
          {num("elements", n), text("ranks", "serial"), text("policy", "elided")}, [=] {
            *serial = ib::run_cilksort_serial(n);
            return result{{num("virtual_s", *serial), flag("ok", true), num("speedup", 1),
                           num("steals", 0)},
                          {}};
          });
    for (const topo& t : kTopos) {
      for (cache_policy policy : kNoneOrLazy) {
        const std::string p = ityr::common::to_string(policy);
        f.add("n:" + str(n) + "/ranks:" + str(t.ranks()) + "/policy:" + p,
              {num("elements", n), num("ranks", t.ranks()), text("policy", p)}, [=] {
                auto m = ib::run_cilksort(cluster(t, policy), n, 16384);
                const double speedup = *serial > 0 ? *serial / m.time : 0;
                return from_run(std::move(m), {num("speedup", speedup)});
              });
      }
    }
  }
  return f;
}

// Fig. 9's categories are the profiler's self-time series. "Others"
// (scheduling, steals, idle waiting) is the rest of the capacity: every
// rank's busy + steal + idle seconds on the phase timeline.
const std::pair<const char*, const char*> kFig9Categories[] = {
    {"prof.Get.self_s", "Get"},           {"prof.Put.self_s", "Put"},
    {"prof.Checkout.self_s", "Checkout"}, {"prof.Checkin.self_s", "Checkin"},
    {"prof.Release.self_s", "Release"},   {"prof.Lazy Release.self_s", "Lazy Release"},
    {"prof.Acquire.self_s", "Acquire"},   {"prof.Serial B.self_s", "Serial Merge"},
    {"prof.Serial A.self_s", "Serial Quicksort"},
};

double capacity(const ityr::metrics_snapshot& s) {
  return s.total("timeline.busy_s") + s.total("timeline.steal_s") + s.total("timeline.idle_s");
}

void print_fig9(const figure& f, const std::vector<record>& recs) {
  const auto fmt = [](double v, int prec) { return ib::result_table::fmt(v, prec); };
  ib::result_table t(f.title, {"elements", "ranks", "category", "sum[s]", "share-of-max-total"});
  for (const record& r : recs) {
    // Shares are of the largest total among the points of the same size.
    double max_total = 0;
    for (const record& o : recs) {
      if (o.number("elements") == r.number("elements")) {
        max_total = std::max(max_total, o.number("capacity_s"));
      }
    }
    std::vector<std::pair<std::string, double>> sums;
    double categorized = 0;
    for (const auto& [series, category] : kFig9Categories) {
      sums.emplace_back(category, r.stats.total(series));
      categorized += sums.back().second;
    }
    sums.insert(sums.begin(), {"Others", std::max(0.0, r.number("capacity_s") - categorized)});
    for (const auto& [category, s] : sums) {
      t.add_row({fmt(r.number("elements"), 0), fmt(r.number("ranks"), 0), category, fmt(s, 4),
                 fmt(s / max_total, 3)});
    }
  }
  t.print();
}

figure fig9() {
  figure f{"fig9",
           "Fig. 9 analog: Cilksort accumulated-time breakdown, Write-Back (Lazy), cutoff 16Ki",
           {}, print_fig9};
  for (std::size_t n : {1 << 20, 1 << 22}) {
    for (const topo& t : kTopos) {
      f.add("n:" + str(n) + "/ranks:" + str(t.ranks()),
            {num("elements", n), num("ranks", t.ranks())}, [=] {
              auto s = ib::run_cilksort_profiled(ib::cluster_opts(t.nodes, t.rpn), n, 16384);
              const double cap = capacity(s);
              return result{
                  {num("virtual_s", cap / t.ranks()), flag("ok", true), num("capacity_s", cap)},
                  std::move(s)};
            });
    }
  }
  return f;
}

figure fig10() {
  figure f{"fig10", "Fig. 10 analog: UTS-Mem traversal throughput",
           {{"tree", "tree"}, {"n_tree_nodes", "n_tree_nodes"}, {"ranks", "ranks"},
            {"policy", "policy"}, {"traverse[s]", "virtual_s", 4},
            {"throughput[nodes/s]", "throughput"}, {"fetch[MB]", "fetched_bytes", 1, 1e6},
            {"ok", "ok"}}};
  const struct {
    const char* name;
    int gen_mx;
  } trees[] = {{"T1L-analog", 13}, {"T1XL-analog", 15}};
  for (const auto& tree : trees) {
    for (const topo& t : kTopos) {
      for (cache_policy policy : kNoneOrLazy) {
        const std::string p = ityr::common::to_string(policy);
        f.add(std::string(tree.name) + "/ranks:" + str(t.ranks()) + "/policy:" + p,
              {text("tree", tree.name), num("ranks", t.ranks()), text("policy", p)}, [=] {
                auto o = cluster(t, policy);
                o.noncoll_heap_per_rank =
                    192 * ityr::common::MiB / static_cast<std::size_t>(t.ranks()) * 4;
                auto m = ib::run_uts_mem(o, uts_tree(tree.gen_mx));
                return from_run(std::move(m.traverse), {num("n_tree_nodes", m.n_nodes),
                                                        num("throughput", m.throughput)});
              });
      }
    }
  }
  return f;
}

figure fig11() {
  figure f{"fig11", "Fig. 11 analog: FMM strong scaling (theta=0.5, ncrit=32, P=4)",
           {{"bodies", "bodies"}, {"ranks", "ranks"}, {"variant", "variant"},
            {"time[s]", "virtual_s", 4}, {"speedup-vs-serial", "speedup", 2},
            {"pot-err", "pot_err", 6}, {"idleness", "idleness", 3}, {"ok", "ok"}}};
  for (std::size_t n : {10000, 50000}) {
    auto serial = std::make_shared<double>(0);
    f.add("serial/n:" + str(n),
          {num("bodies", n), text("ranks", "serial"), text("variant", "elided")}, [=] {
            auto m = ib::run_fmm_serial(n, fmm_cfg());
            *serial = m.time;
            return from_run(std::move(m), {num("speedup", 1)});
          });
    for (const topo& t : kTopos) {
      const std::string at = "n:" + str(n) + "/ranks:" + str(t.ranks());
      for (cache_policy policy : kAllPolicies) {
        const std::string p = ityr::common::to_string(policy);
        f.add(at + "/policy:" + p,
              {num("bodies", n), num("ranks", t.ranks()), text("variant", p)}, [=] {
                auto m = ib::run_fmm(cluster(t, policy), n, fmm_cfg(), /*static_baseline=*/false);
                const double speedup = *serial > 0 ? *serial / m.solve.time : 0;
                return from_run(std::move(m.solve),
                                {num("speedup", speedup), num("pot_err", m.err.pot)});
              });
      }
      // The static "MPI" baseline (write-back-lazy cache, no work stealing).
      f.add(at + "/variant:mpi_static",
            {num("bodies", n), num("ranks", t.ranks()), text("variant", "mpi_static")}, [=] {
              auto m = ib::run_fmm(ib::cluster_opts(t.nodes, t.rpn), n, fmm_cfg(),
                                   /*static_baseline=*/true);
              const double speedup = *serial > 0 ? *serial / m.solve.time : 0;
              return from_run(std::move(m.solve),
                              {num("speedup", speedup), num("pot_err", m.err.pot),
                               num("idleness", m.idleness)});
            });
    }
  }
  return f;
}

figure table2() {
  figure f{"table2", "Table 2 analog: load balance of static (MPI-style) FMM, 5e4 bodies",
           {{"nodes", "nodes"}, {"ranks", "ranks"}, {"makespan[s]", "virtual_s", 4},
            {"busy[s]", "busy_s", 4}, {"idle[s]", "idle_s", 4}, {"idleness", "idleness", 3},
            {"pot-err", "pot_err", 6}}};
  for (const topo& t : kTopos) {
    f.add("nodes:" + str(t.nodes), {num("nodes", t.nodes), num("ranks", t.ranks())}, [=] {
      auto m = ib::run_fmm(ib::cluster_opts(t.nodes, t.rpn), 50000, fmm_cfg(),
                           /*static_baseline=*/true);
      return from_run(std::move(m.solve),
                      {num("busy_s", m.timeline_busy_s), num("idle_s", m.timeline_idle_s),
                       num("idleness", m.idleness), num("pot_err", m.err.pot)});
    });
  }
  return f;
}

figure ablation_subblock() {
  figure f{"ablation_subblock", "Ablation: sub-block (fetch granularity) size, 6 nodes x 4 ranks",
           {{"sub-block[B]", "sub_block"}, {"workload", "workload"}, {"time[s]", "virtual_s", 4},
            {"fetch[MB]", "fetched_bytes", 1, 1e6}, {"messages", "messages"}}};
  for (std::size_t sb : {256, 1024, 4096, 16384, 65536}) {
    auto o = ib::cluster_opts(6, 4);
    o.sub_block_size = sb;
    f.add("uts/sb:" + str(sb), {num("sub_block", sb), text("workload", "uts-mem")},
          [=] { return from_run(ib::run_uts_mem(o, uts_tree(13)).traverse); });
    f.add("cilksort/sb:" + str(sb), {num("sub_block", sb), text("workload", "cilksort")},
          [=] { return from_run(ib::run_cilksort(o, 1 << 20, 16384)); });
  }
  return f;
}

figure ablation_cache() {
  figure f{"ablation_cache", "Ablation: per-rank cache capacity, Cilksort 2^22 elements, 6x4 ranks",
           {{"cache[MiB]", "cache_mib"}, {"time[s]", "virtual_s", 4},
            {"fetch[MB]", "fetched_bytes", 1, 1e6}, {"wb[MB]", "written_back_bytes", 1, 1e6},
            {"evictions", "evictions"}}};
  for (std::size_t mib : {1, 2, 4, 8, 16}) {
    auto o = ib::cluster_opts(6, 4);
    o.cache_size = mib * ityr::common::MiB;
    f.add("MiB:" + str(mib), {num("cache_mib", mib)}, [=] {
      auto m = ib::run_cilksort(o, 1 << 22, 16384);
      const double evictions = m.stats.total("cache.cache_evictions");
      return from_run(std::move(m), {num("evictions", evictions)});
    });
  }
  return f;
}

figure ablation_dist() {
  figure f{"ablation_dist", "Ablation: collective memory distribution, 6 nodes x 4 ranks",
           {{"distribution", "distribution"}, {"workload", "workload"},
            {"time[s]", "virtual_s", 4}, {"fetch[MB]", "fetched_bytes", 1, 1e6}}};
  for (dist_policy dist : {dist_policy::block, dist_policy::block_cyclic}) {
    const std::string d = ityr::common::to_string(dist);
    auto o = ib::cluster_opts(6, 4);
    o.default_dist = dist;
    f.add("cilksort/" + d, {text("distribution", d), text("workload", "cilksort")},
          [=] { return from_run(ib::run_cilksort(o, 1 << 21, 16384)); });
    f.add("fmm/" + d, {text("distribution", d), text("workload", "fmm")},
          [=] { return from_run(ib::run_fmm(o, 20000, fmm_cfg(), false).solve); });
  }
  return f;
}

int usage(const std::vector<figure>& figures) {
  std::fprintf(stderr, "usage: paper [--figure NAME]... [OUT.json]\nfigures:");
  for (const figure& f : figures) std::fprintf(stderr, " %s", f.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<figure> figures = {table1(), fig7(),  fig8(),   fig9(),
                                       fig10(),  fig11(), table2(), ablation_subblock(),
                                       ablation_cache(),   ablation_dist()};
  const auto known = [&](const std::string& name) {
    return std::any_of(figures.begin(), figures.end(),
                       [&](const figure& f) { return f.name == name; });
  };
  std::vector<std::string> wanted;
  std::string out_path;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--figure" && i + 1 < argc && known(argv[i + 1])) {
      wanted.emplace_back(argv[++i]);
    } else if (arg.rfind("--", 0) != 0 && out_path.empty()) {
      out_path = arg;
    } else {
      return usage(figures);
    }
  }
  if (out_path.empty()) out_path = "BENCH_paper.json";

  std::string json;
  int n_points = 0, n_failed = 0;
  for (const figure& f : figures) {
    if (!wanted.empty() && std::find(wanted.begin(), wanted.end(), f.name) == wanted.end()) {
      continue;
    }
    std::vector<record> recs;
    for (const point& p : f.points) {
      n_points++;
      const std::clock_t c0 = std::clock();
      result r;
      try {
        r = p.run();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[%s] FAILED: %s\n", p.name.c_str(), e.what());
        n_failed++;
        continue;
      }
      record rec{p.name, p.params, std::move(r.stats)};
      for (member& v : r.values) rec.members.push_back(std::move(v));
      std::fprintf(stderr, "%s: virtual %.6f s, host cpu %.2f s\n", p.name.c_str(),
                   rec.number("virtual_s"),
                   static_cast<double>(std::clock() - c0) / CLOCKS_PER_SEC);
      if (!std::get<bool>(rec.find("ok")->value)) {
        std::fprintf(stderr, "[%s] FAILED: validation\n", p.name.c_str());
        n_failed++;
      }
      recs.push_back(std::move(rec));
    }
    f.print(f, recs);
    for (const record& r : recs) json += (json.empty() ? "" : ",\n") + json_record(r);
  }
  json = "{\"points\": [\n" + json + "\n]}\n";

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  bool written = out != nullptr && std::fwrite(json.data(), 1, json.size(), out) == json.size();
  if (out != nullptr) written &= std::fclose(out) == 0;
  if (!written) {
    std::fprintf(stderr, "paper: cannot write '%s'\n", out_path.c_str());
    return 1;
  }
  if (n_failed > 0) {
    std::fprintf(stderr, "paper: %d of %d points failed\n", n_failed, n_points);
    return 1;
  }
  return 0;
}
