/// Multi-tenant serving (extension beyond the paper, ROADMAP "millions of
/// users"): an open-loop stream of independent fork-join jobs — cilksort,
/// UTS, and an empty-task "taskbench" spawn tree (the Task Bench regime from
/// PAPERS.md) — admitted into ONE scheduler region via ITYR_SERVE.
///
/// Sweeps offered load (arrival rate) vs sustained jobs/sec and p50/p99 job
/// latency at 4x8 and 16x8 ranks, then runs the fairness experiment: a mixed
/// small (cilksort) + large (UTS) stream at equal offered load with
/// ITYR_STEAL_FAIRNESS off vs job_weighted. All runs are deterministic
/// (fixed resume cost), so latencies and throughput are bit-stable and
/// comparable against the committed baseline. Emits BENCH_serving.json.
///
/// Self-checks (exit nonzero on failure):
///  * every cilksort job validates (sorted + checksum) and every UTS job
///    traverses the same node count as the serial oracle;
///  * fairness gate (the PR acceptance bar): under the mixed stream,
///    job_weighted yields strictly lower p99 small-job latency than
///    fairness-off, losing no more than 5% sustained jobs/sec.
///
/// Usage: ./build/bench/serving [--smoke] [output.json]
///   --smoke: 32x8 ranks (256, the CI guard point), reduced sweep; the
///   written JSON is compared against bench/baseline_serving.json by the
///   `serving` row of bench/perf_guard.sh (CI's perf-guard job: stats_diff
///   --check, keys jobs_per_s, latency_p99_s and steals, 10% tolerance).
///   The smoke also writes the full stats JSON (docs/observability.md,
///   per-job rows included) of its 256/gate/rate50000/off run to
///   BENCH_serving_jobs.json, for diffing per-job cache rows between trees.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"
#include "support/bench_common.hpp"

namespace ib = ityr::bench;

namespace {

// ---- per-class workload bodies ----

/// Small job: sort a private 32 Ki-element slice (one block-cyclic stripe of
/// the shared arrays), validated after the stream drains.
constexpr std::size_t kSortN = 1 << 15;
constexpr std::size_t kSortCutoff = 2048;

/// Large job: UTS count over a geometric tree (~8-40x a cilksort job's work,
/// seed-dependent) — no global memory, pure stealing pressure.
ityr::apps::uts_params uts_of(std::size_t job_idx, int gen_mx) {
  ityr::apps::uts_params p;
  p.b0 = 4.0;
  p.gen_mx = gen_mx;
  p.root_seed = static_cast<int>(100 + job_idx);
  return p;
}

/// Taskbench: a binary spawn tree of empty leaves — pure runtime overhead at
/// a fixed dependency pattern, the Task Bench "how cheap is a task" probe.
void taskbench(int depth) {
  if (depth == 0) return;
  ityr::parallel_invoke([=] { taskbench(depth - 1); }, [=] { taskbench(depth - 1); });
}
constexpr int kTaskbenchDepth = 10;  // 1024 leaves
constexpr int kUtsGenMx = 10;
/// The fairness gate's hog: deep enough (~1.8e5 nodes) that one UTS subtree
/// floods every deque it lands on for many small-job lifetimes.
constexpr int kUtsGateGenMx = 13;

/// A job mix: workload names ("cilksort", "uts", "taskbench") with positive
/// integer weights.
using job_mix = std::vector<std::pair<std::string, int>>;

/// Workload names for `n_jobs` jobs, each drawn from `mix` in proportion to
/// its weight; reproducible from `seed`.
std::vector<std::string> assign_mix(const job_mix& mix, std::size_t n_jobs, std::uint64_t seed) {
  std::uint64_t total = 0;
  for (const auto& w : mix) total += static_cast<std::uint64_t>(w.second);
  ityr::common::xoshiro256ss rng(seed ^ 0xbb67ae8584caa73bULL);
  std::vector<std::string> out;
  out.reserve(n_jobs);
  for (std::size_t i = 0; i < n_jobs; i++) {
    std::uint64_t draw = rng.below(total);
    for (const auto& w : mix) {
      if (draw < static_cast<std::uint64_t>(w.second)) {
        out.push_back(w.first);
        break;
      }
      draw -= static_cast<std::uint64_t>(w.second);
    }
  }
  return out;
}

// ---- one served stream ----

struct stream_result {
  double jobs_per_s = 0;
  double p50 = 0, p99 = 0;
  double p99_small = 0;  ///< p99 over the cilksort-class jobs only
  std::size_t n_jobs = 0, n_small = 0;
  std::uint64_t steals = 0, fairness_redirects = 0;
  bool ok = true;
};

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// `stats_json`, when set, receives the run's full stats JSON.
stream_result run_stream(int n_nodes, int rpn, double rate, std::size_t n_jobs,
                         const job_mix& mix, ityr::common::steal_fairness_kind fairness,
                         int uts_gen_mx = kUtsGenMx, const char* stats_json = nullptr) {
  auto o = ib::cluster_opts(n_nodes, rpn);
  o.deterministic = true;  // bit-stable latencies for the CI guard
  o.critpath = true;       // per-job span in the records
  o.serve = true;
  o.serve_arrival_rate = rate;
  o.serve_jobs = n_jobs;
  o.steal_fairness = fairness;
  ityr::runtime rt(o);

  // The workload of each admitted job, drawn deterministically from the mix.
  const auto names = assign_mix(mix, n_jobs, o.seed);
  std::vector<std::uint64_t> uts_counts(n_jobs, 0);
  auto* counts = &uts_counts;

  stream_result r;
  r.n_jobs = n_jobs;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n_jobs * kSortN);
    auto b = ityr::coll_new<std::uint32_t>(n_jobs * kSortN);
    ityr::root_exec([=] {
      for (std::size_t j = 0; j < n_jobs; j++) {
        ityr::apps::cilksort_generate(a + static_cast<std::ptrdiff_t>(j * kSortN), kSortN,
                                      /*seed=*/j, /*grain=*/4096);
      }
    });
    ityr::barrier();

    std::vector<ityr::sched::job_spec> jobs;
    for (std::size_t j = 0; j < n_jobs; j++) {
      const std::string& w = names[j];
      if (w == "cilksort") {
        jobs.push_back({w, [=] {
                          const auto off = static_cast<std::ptrdiff_t>(j * kSortN);
                          ityr::apps::cilksort(
                              ityr::global_span<std::uint32_t>(a + off, kSortN),
                              ityr::global_span<std::uint32_t>(b + off, kSortN), kSortCutoff);
                        }});
      } else if (w == "uts") {
        jobs.push_back(
            {w, [=] { (*counts)[j] = ityr::apps::uts_count_parallel(uts_of(j, uts_gen_mx)); }});
      } else {  // taskbench
        jobs.push_back({w, [=] { taskbench(kTaskbenchDepth); }});
      }
    }
    ityr::serve(std::move(jobs));

    if (ityr::my_rank() == 0) {
      for (std::size_t j = 0; j < n_jobs; j++) {
        if (names[j] != "cilksort") continue;
        if (!ityr::apps::cilksort_validate(a + static_cast<std::ptrdiff_t>(j * kSortN), kSortN,
                                           /*seed=*/j, /*grain=*/4096)) {
          r.ok = false;
        }
      }
    }
    ityr::barrier();
    ityr::coll_delete(a, n_jobs * kSortN);
    ityr::coll_delete(b, n_jobs * kSortN);
  });

  // The same tree counted serially: a UTS job that lost nodes to a scheduler
  // bug would report a different total.
  for (std::size_t j = 0; j < n_jobs; j++) {
    if (names[j] != "uts") continue;
    if (uts_counts[j] != ityr::apps::uts_count_serial(uts_of(j, uts_gen_mx))) r.ok = false;
  }

  r.jobs_per_s = rt.jobs().jobs_per_s();
  r.p50 = rt.jobs().latency_quantile(0.50);
  r.p99 = rt.jobs().latency_quantile(0.99);
  std::vector<double> small;
  for (const auto& jr : rt.jobs().records()) {
    if (!jr.done) r.ok = false;
    if (jr.name == "cilksort") small.push_back(jr.latency());
  }
  r.n_small = small.size();
  r.p99_small = quantile(std::move(small), 0.99);
  const auto sst = rt.sched().get_stats();
  r.steals = sst.steals;
  r.fairness_redirects = sst.fairness_redirects;
  if (stats_json != nullptr) {
    if (!ityr::collect_metrics(rt).write_json(stats_json)) std::exit(1);  // it says why
    std::printf("wrote %s\n", stats_json);
  }
  return r;
}

// ---- sweep bookkeeping ----

struct sweep_point {
  std::string name;  ///< "<ranks>/<mix-tag>/rate<rate>/<fairness>"
  double rate = 0;
  std::string fairness;
  stream_result r;
};

ib::result_table g_table("Serving: offered load vs throughput and latency",
                         {"ranks", "mix", "rate[/s]", "fairness", "jobs/s", "p50[ms]", "p99[ms]",
                          "p99 small[ms]", "ok"});

void record(std::vector<sweep_point>& out, int n_ranks, const char* mix_tag, double rate,
            ityr::common::steal_fairness_kind fk, const stream_result& r) {
  sweep_point p;
  p.rate = rate;
  p.fairness = ityr::common::to_string(fk);
  char rate_s[32];
  std::snprintf(rate_s, sizeof rate_s, "rate%g", rate);
  p.name = std::to_string(n_ranks) + "/" + mix_tag + "/" + rate_s + "/" + p.fairness;
  p.r = r;
  g_table.add_row({std::to_string(n_ranks), mix_tag, ib::result_table::fmt(rate, 0), p.fairness,
                   ib::result_table::fmt(r.jobs_per_s, 1), ib::result_table::fmt(r.p50 * 1e3, 3),
                   ib::result_table::fmt(r.p99 * 1e3, 3),
                   ib::result_table::fmt(r.p99_small * 1e3, 3), r.ok ? "yes" : "NO"});
  out.push_back(std::move(p));
}

void emit_json(const char* out_path, const std::vector<sweep_point>& points, bool smoke) {
  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    std::exit(1);
  }
  std::fprintf(f,
               "{\n"
               "  \"benchmark\": \"serving\",\n"
               "  \"smoke\": %s,\n"
               "  \"workload\": \"open-loop job stream (cilksort/uts/taskbench), "
               "deterministic=1, critpath=1\",\n"
               "  \"runs\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < points.size(); i++) {
    const sweep_point& p = points[i];
    std::fprintf(f,
                 "    {\n"
                 "      \"name\": \"%s\",\n"
                 "      \"fairness\": \"%s\",\n"
                 "      \"offered_rate\": %.6f,\n"
                 "      \"n_jobs\": %zu,\n"
                 "      \"jobs_per_s\": %.6f,\n"
                 "      \"latency_p50_s\": %.9f,\n"
                 "      \"latency_p99_s\": %.9f,\n"
                 "      \"latency_p99_small_s\": %.9f,\n"
                 "      \"steals\": %llu,\n"
                 "      \"fairness_redirects\": %llu,\n"
                 "      \"ok\": %s\n"
                 "    }%s\n",
                 p.name.c_str(), p.fairness.c_str(), p.rate, p.r.n_jobs, p.r.jobs_per_s,
                 p.r.p50, p.r.p99, p.r.p99_small, static_cast<unsigned long long>(p.r.steals),
                 static_cast<unsigned long long>(p.r.fairness_redirects),
                 p.r.ok ? "true" : "false", i + 1 == points.size() ? "" : ",");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  const char* out_path = "BENCH_serving.json";
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0)
      smoke = true;
    else
      out_path = argv[i];
  }

  using fk = ityr::common::steal_fairness_kind;
  // Even three-way mix for the load sweep; small+large only for the
  // fairness gate (taskbench jobs are neither latency-probe nor hog).
  const job_mix kSweepMix = {{"cilksort", 1}, {"uts", 1}, {"taskbench", 1}};
  const job_mix kGateMix = {{"cilksort", 3}, {"uts", 1}};

  std::vector<sweep_point> points;
  const sweep_point* gate_off = nullptr;
  const sweep_point* gate_fair = nullptr;

  auto run_gate = [&](int n_nodes, int rpn, double rate, std::size_t n_jobs,
                      const char* off_stats_json) {
    // Burst admission of small sorts behind deep UTS hogs: the regime where
    // an unfair claim buries the latency-sensitive class.
    std::printf("== %dx%d fairness gate (rate %g) ==\n", n_nodes, rpn, rate);
    record(points, n_nodes * rpn, "gate", rate, fk::off,
           run_stream(n_nodes, rpn, rate, n_jobs, kGateMix, fk::off, kUtsGateGenMx,
                      off_stats_json));
    record(points, n_nodes * rpn, "gate", rate, fk::job_weighted,
           run_stream(n_nodes, rpn, rate, n_jobs, kGateMix, fk::job_weighted, kUtsGateGenMx));
    gate_off = &points[points.size() - 2];
    gate_fair = &points[points.size() - 1];
  };

  if (smoke) {
    // CI guard point: 256 ranks, one load point per mode + the gate pair.
    std::printf("== 32x8 sweep ==\n");
    record(points, 256, "sweep", 2000.0, fk::off,
           run_stream(32, 8, 2000.0, 12, kSweepMix, fk::off));
    run_gate(32, 8, 50000.0, 16, "BENCH_serving_jobs.json");
  } else {
    for (const auto& [n_nodes, rpn] : {std::pair{4, 8}, std::pair{16, 8}}) {
      for (const double rate : {250.0, 1000.0, 4000.0, 16000.0}) {
        std::printf("== %dx%d sweep rate %g ==\n", n_nodes, rpn, rate);
        record(points, n_nodes * rpn, "sweep", rate, fk::off,
               run_stream(n_nodes, rpn, rate, 24, kSweepMix, fk::off));
      }
    }
    run_gate(16, 8, 50000.0, 24, nullptr);
  }

  g_table.print();
  emit_json(out_path, points, smoke);

  // ---- self-checks ----
  int rc = 0;
  for (const sweep_point& p : points) {
    if (!p.r.ok) {
      std::fprintf(stderr, "FAIL: %s failed application validation\n", p.name.c_str());
      rc = 1;
    }
  }
  // The fairness acceptance gate: strictly lower p99 small-job latency, at
  // most 5% sustained-throughput loss, and the scan actually engaged.
  if (gate_off != nullptr && gate_fair != nullptr) {
    const stream_result& off = gate_off->r;
    const stream_result& fair = gate_fair->r;
    if (!(fair.p99_small < off.p99_small)) {
      std::fprintf(stderr, "FAIL: gate p99 small-job latency %.6fs (job_weighted) not below "
                           "%.6fs (off)\n", fair.p99_small, off.p99_small);
      rc = 1;
    }
    if (!(fair.jobs_per_s >= 0.95 * off.jobs_per_s)) {
      std::fprintf(stderr, "FAIL: gate jobs/s %.2f (job_weighted) below 95%% of %.2f (off)\n",
                   fair.jobs_per_s, off.jobs_per_s);
      rc = 1;
    }
    if (fair.fairness_redirects == 0) {
      std::fprintf(stderr, "FAIL: gate job_weighted run never exercised the fairness hunt\n");
      rc = 1;
    }
    if (rc == 0) {
      std::printf("gate: p99 small %.6fs -> %.6fs, jobs/s %.2f -> %.2f (%.1f%%)\n",
                  off.p99_small, fair.p99_small, off.jobs_per_s, fair.jobs_per_s,
                  100.0 * fair.jobs_per_s / off.jobs_per_s);
    }
  }
  if (rc == 0) std::printf("self-check ok (%zu runs)\n", points.size());
  return rc;
}
