/// perfbench: one workload of the repository benchmark per process.
///
/// Usage: perfbench --workload cilksort|uts_mem|serve --seed N --seconds S
///                  --trace 0|1
///
/// Runs fresh-runtime iterations of the workload until about S seconds have
/// passed. --trace 0 prints the end-to-end metrics: virtual-time figures
/// (identical in every iteration of one seed) and medians of the host
/// figures. --trace 1 alternates untraced and traced iterations and prints
/// the per-layer metrics from the traced ones. The last stdout line is one
/// JSON object {"correct", "attempted", "failed", "metrics"}; the exit code
/// is nonzero when any output check or self-check failed.

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace pb = perfbench;

namespace {

struct metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> xs) { return pb::quantile(std::move(xs), 0.5); }

double series(const pb::iteration& it, const std::string& name) {
  const auto f = it.series.find(name);
  return f == it.series.end() ? 0.0 : f->second.total;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Everything that must repeat bit for bit between two iterations of one
/// seed, whether traced or not: virtual-time results and every registry
/// count. Profiler and critical-path series exist only when traced.
bool same_deterministic(const pb::iteration& a, const pb::iteration& b, std::string* why) {
  const struct {
    const char* name;
    double a, b;
  } scalars[] = {
      {"virtual_s", a.virtual_s, b.virtual_s},
      {"jobs_per_s", a.jobs_per_s, b.jobs_per_s},
      {"latency_p50_s", a.latency_p50_s, b.latency_p50_s},
      {"latency_p95_s", a.latency_p95_s, b.latency_p95_s},
      {"job_lateness_p95_s", a.lateness_p95_s, b.lateness_p95_s},
  };
  for (const auto& s : scalars) {
    if (s.a != s.b) {
      *why = s.name;
      return false;
    }
  }
  for (const auto& [name, v] : a.series) {
    if (!v.integral || name.rfind("prof.", 0) == 0 || name.rfind("critpath.", 0) == 0) continue;
    if (v.total != series(b, name)) {
      *why = name;
      return false;
    }
  }
  return true;
}

double peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<metric> end_to_end(const std::vector<pb::iteration>& its, double rss_mib) {
  const pb::iteration& it = its.front();
  std::vector<double> host, setup;
  for (const auto& i : its) {
    host.push_back(i.host_s);
    setup.push_back(i.setup_s);
  }
  return {
      {"virtual_s", it.virtual_s, "s"},
      {"jobs_per_s", it.jobs_per_s, "1/s"},
      {"latency_p50_s", it.latency_p50_s, "s"},
      {"latency_p95_s", it.latency_p95_s, "s"},
      {"host_s", median(host), "s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mib", rss_mib, "MiB"},
  };
}

/// Per-layer metrics of one traced iteration (see perfbench/METRICS.md).
std::vector<metric> per_layer(const pb::iteration& it, double serial_s) {
  const auto& sp = it.split;
  const auto layer = [&](pb::scope_layer l) { return sp.layer_s[static_cast<int>(l)]; };
  const double resumes = series(it, "engine.resumes");
  const double steals = series(it, "sched.steals");
  const double attempts = series(it, "sched.steal_attempts");
  const double busy = series(it, "timeline.busy_s"), steal_t = series(it, "timeline.steal_s"),
               idle = series(it, "timeline.idle_s");
  const double span = series(it, "critpath.span_s");
  const double checkouts = series(it, "cache.checkouts");
  return {
      {"sim.resumes", resumes, "count"},
      {"sim.ns_per_resume", 1e9 * ratio(sp.loop_s, resumes), "ns"},
      {"sim.loop_s", sp.loop_s, "s"},
      {"sim.stacks_created", series(it, "engine.fiber_pool_created"), "count"},
      {"sched.forks", series(it, "sched.forks"), "count"},
      {"sched.steals", steals, "count"},
      {"sched.steal_attempts", attempts, "count"},
      {"sched.steal_success_ratio", ratio(steals, attempts), "1"},
      {"sched.steal_host_s", layer(pb::scope_layer::steal), "s"},
      {"sched.other_host_s", sp.other_s, "s"},
      {"sched.failed_probe_s", series(it, "sched.steal.failed_probe_s"), "s"},
      {"sched.idle_share", ratio(idle, busy + steal_t + idle), "1"},
      {"sched.span_s", span, "s"},
      {"sched.parallelism", ratio(series(it, "critpath.work_s"), span), "1"},
      {"sched.span_steal_share", ratio(series(it, "critpath.span.steal_wait_s"), span), "1"},
      {"sched.jobs", series(it, "sched.job.completed"), "count"},
      {"sched.job_lateness_p95_s", it.lateness_p95_s, "s"},
      {"pgas.checkouts", checkouts, "count"},
      {"pgas.block_hit_ratio",
       ratio(series(it, "cache.block_hits"), series(it, "cache.block_visits")), "1"},
      {"pgas.fast_path_ratio", ratio(series(it, "cache.fast_path_hits"), checkouts), "1"},
      {"pgas.access_host_s", layer(pb::scope_layer::access), "s"},
      {"pgas.ns_per_access", 1e9 * ratio(layer(pb::scope_layer::access), checkouts), "ns"},
      {"pgas.fetched_bytes", series(it, "cache.fetched_bytes"), "B"},
      {"pgas.fetch_stall_s", series(it, "cache.fetch_stall_s"), "s"},
      {"pgas.span_fetch_share", ratio(series(it, "critpath.span.fetch_stall_s"), span), "1"},
      {"pgas.evictions", series(it, "cache.cache_evictions"), "count"},
      {"pgas.written_back_bytes",
       series(it, "cache.written_back_bytes") + series(it, "cache.write_through_bytes"), "B"},
      {"pgas.release_stall_s", series(it, "cache.release_stall_s"), "s"},
      {"pgas.fence_host_s", layer(pb::scope_layer::fence), "s"},
      {"pgas.span_release_share", ratio(series(it, "critpath.span.release_stall_s"), span), "1"},
      {"pgas.span_fence_share", ratio(series(it, "critpath.span.acquire_fence_s"), span), "1"},
      {"rma.messages", series(it, "net.messages.intra") + series(it, "net.messages.inter"),
       "count"},
      {"rma.bytes", series(it, "net.bytes.intra") + series(it, "net.bytes.inter"), "B"},
      {"rma.inter_bytes", series(it, "net.bytes.inter"), "B"},
      {"rma.coalesced_messages", series(it, "cache.coalesced_messages"), "count"},
      {"vm.map_calls", series(it, "vm.map_calls"), "count"},
      {"vm.minor_faults", it.minor_faults, "count"},
      {"vm.sys_s", it.sys_s, "s"},
      {"apps.kernel_host_s", layer(pb::scope_layer::kernel), "s"},
      {"apps.serial_s", serial_s, "s"},
      {"apps.span_compute_share", ratio(series(it, "critpath.span.compute_s"), span), "1"},
  };
}

/// Self-checks of one traced iteration against the untraced reference.
void check_traced(pb::iteration& t, const pb::iteration& ref) {
  std::string why;
  t.check(same_deterministic(t, ref, &why),
          "trace: traced run reproduces the untraced run (first mismatch: " + why + ")");
  double buckets = 0;
  for (const char* b : {"compute", "fetch_stall", "release_stall", "steal_wait", "acquire_fence"}) {
    buckets += series(t, std::string("critpath.span.") + b + "_s");
  }
  const double span = series(t, "critpath.span_s");
  t.check(span > 0 && std::fabs(buckets - span) <= 1e-9 * span,
          "trace: critical-path buckets sum to sched.span_s");
  const auto& sp = t.split;
  // Scopes left open across a region boundary (barrier waits) move a little
  // time between neighbouring parts; a negative part beyond that is a
  // double count.
  const double tol = 0.005 * sp.region_s;
  bool nonneg = sp.loop_s >= -tol && sp.other_s >= -tol;
  for (const double v : sp.layer_s) nonneg = nonneg && v >= -tol;
  t.check(nonneg, "trace: host-split parts are nonnegative");
  t.check(std::fabs(sp.parts_sum() - sp.region_s) <= 1e-6 * sp.region_s,
          "trace: host-split parts sum to the traced region's host time");
  t.check(t.wrapper_seen, "trace: slice boundaries observed through the fiber_switch wrapper");
}

void print_json(bool correct, int attempted, int failed, const std::vector<metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); i++) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                ms[i].name.c_str(), ms[i].value, ms[i].unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cilksort|uts_mem|serve --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") workload = v;
    else if (k == "--seed") seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") trace = v == "1";
    else return usage();
  }
  std::function<pb::iteration(const pb::run_config&)> run;
  std::function<double(std::uint64_t)> serial;
  if (workload == "cilksort") {
    run = pb::run_cilksort;
    serial = pb::serial_cilksort;
  } else if (workload == "uts_mem") {
    run = pb::run_uts_mem;
    serial = pb::serial_uts_mem;
  } else if (workload == "serve") {
    run = pb::run_serve;
    serial = pb::serial_serve;
  } else {
    return usage();
  }

  // Untraced iterations give the end-to-end medians; with --trace 1 traced
  // ones alternate with them. Stop when another iteration would overrun.
  constexpr std::size_t kMinUntraced = 2;
  std::vector<pb::iteration> plain, traced;
  double rss_mib = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int k = 0;; k++) {
    const bool traced_turn = trace && k % 2 == 1;
    pb::iteration it = run({seed, traced_turn});
    if (traced_turn) {
      check_traced(it, plain.front());
      traced.push_back(std::move(it));
    } else {
      std::string why;
      if (!plain.empty()) {
        it.check(same_deterministic(it, plain.front(), &why),
                 "repeat: iteration reproduces the first one (first mismatch: " + why + ")");
      }
      plain.push_back(std::move(it));
      // Allocator retention grows the high-water mark with every iteration,
      // so the figure is the first iteration's peak, whatever the count.
      if (plain.size() == 1) rss_mib = peak_rss_mib();
    }
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    const bool enough = trace ? !traced.empty() : plain.size() >= kMinUntraced;
    if (enough && elapsed * (k + 2) / (k + 1) > seconds) break;
  }

  int attempted = 0, failed = 0;
  for (const auto* v : {&plain, &traced}) {
    for (const auto& it : *v) {
      attempted += it.attempted;
      failed += it.failed;
      for (const auto& f : it.failures) std::fprintf(stderr, "perfbench %s: FAILED %s\n",
                                                    workload.c_str(), f.c_str());
    }
  }

  std::vector<metric> ms;
  if (!trace) {
    ms = end_to_end(plain, rss_mib);
  } else {
    std::vector<std::vector<metric>> rows;
    const double serial_s = serial(seed);
    for (const auto& it : traced) rows.push_back(per_layer(it, serial_s));
    ms = rows.front();
    for (std::size_t m = 0; m < ms.size(); m++) {
      std::vector<double> xs;
      for (const auto& r : rows) xs.push_back(r[m].value);
      ms[m].value = median(std::move(xs));
    }
    std::vector<double> th, ph;
    for (const auto& it : traced) th.push_back(it.host_s);
    for (const auto& it : plain) ph.push_back(it.host_s);
    ms.push_back({"common.trace_overhead_ratio", median(th) / median(ph), "1"});
  }

  std::printf("perfbench %s seed=%llu iterations: %zu untraced, %zu traced\n", workload.c_str(),
              static_cast<unsigned long long>(seed), plain.size(), traced.size());
  for (const auto& m : ms) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  %-28s %.6g %s\n", "failed_ratio",
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, "1");
  print_json(failed == 0, attempted, failed, ms);
  return failed == 0 ? 0 : 1;
}
