/// trace_lint: validates Chrome/Perfetto trace_events JSON against the
/// invariants the itoyori tracer promises (parseable JSON, balanced and
/// name-matched B/E spans per (pid,tid), non-decreasing timestamps, every
/// flow id has both its start and finish half, and — when the trace is
/// complete, i.e. no ring-buffer eviction — every "prefetch" issue flow is
/// terminated by exactly one "prefetch consume" or "prefetch evict" instant).
///
/// With a file argument it lints that file:
///
///   ./build/tools/trace_lint out.json
///
/// Without arguments it is a self-check (registered as the `trace_lint`
/// ctest): it runs a small deterministic cilksort with tracing and counter
/// sampling enabled, dumps the trace, and lints the result, additionally
/// requiring that spans, flows, and counter samples are all present.
///
/// With `--self-check-prefetch` (the `trace_lint_prefetch` ctest) it runs the
/// same workload with ITYR_PREFETCH enabled and additionally requires at
/// least one prefetch issue flow with matched terminators.
///
/// With `--self-check-release` (the `trace_lint_release` ctest) it runs the
/// same workload with ITYR_ASYNC_RELEASE enabled and additionally requires at
/// least one "Write Back (async)" span, each paired with exactly one
/// "writeback" completion flow; the generic finish>=start flow check then
/// guarantees no "wb acquire" flow lands before the releaser's round was
/// ready.
///
/// With `--self-check-flow-sample` (the `trace_lint_flow_sample` ctest) it
/// runs with ITYR_TRACE_FLOW_SAMPLE > 1: per-message "rma" flows are
/// subsampled, and the lint confirms a sampled trace still satisfies every
/// flow invariant (both halves of a flow are emitted by one tracer call, so
/// sampling can never strand half an arrow).
///
/// With `--self-check-serving` (the `trace_lint_serving` ctest) it serves a
/// small multi-job stream with ITYR_SERVE + job-weighted steal fairness and
/// requires job lifecycle instants and job-annotated steal flows; the
/// generic job checks in validate_trace_json then verify every admitted job
/// has exactly one start and one complete in admit -> start -> complete
/// order, and that every job-annotated span/flow/instant timestamp nests
/// inside its job's admit -> complete window.
///
/// All subsystem-specific invariants live in the two rule tables below —
/// adding a lifecycle or presence check for a new tracer feature means
/// adding a table row, not a new code path.

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "itoyori/apps/cilksort.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/runtime.hpp"

namespace {

using trace_result = ityr::common::trace_check_result;
using counter_fn = std::size_t (*)(const trace_result&);

/// Which self-check mode enforces a presence rule (file lints enforce none).
enum lint_mode : unsigned {
  kContent = 1u << 0,   ///< plain self-check: generic content must exist
  kPrefetch = 1u << 1,  ///< --self-check-prefetch
  kRelease = 1u << 2,   ///< --self-check-release
  kServing = 1u << 3,   ///< --self-check-serving
};

/// Lifecycle pairing: every issued event must be retired by exactly one
/// terminator. Only checkable when the ring buffers evicted nothing (an
/// incomplete trace can be missing either half). Enforced on every lint,
/// including plain files.
struct pairing_rule {
  const char* issued_what;
  counter_fn issued;
  const char* terminator_what;
  counter_fn terminators;
};

constexpr pairing_rule kPairingRules[] = {
    // Prefetch lifecycle: each issued prefetch segment gets exactly one
    // terminator — a "prefetch consume" instant at first read-touch or a
    // "prefetch evict" instant when overwritten, evicted, or invalidated.
    {"prefetch issue flows", [](const trace_result& r) { return r.n_prefetch_flows; },
     "consume/evict terminators",
     [](const trace_result& r) { return r.n_prefetch_consumes + r.n_prefetch_evicts; }},
    // Async-release lifecycle: every "Write Back (async)" round span must be
    // matched by exactly one "writeback" completion flow (issue -> modelled
    // completion).
    {"async write-back spans", [](const trace_result& r) { return r.n_wb_async_spans; },
     "writeback completion flows", [](const trace_result& r) { return r.n_writeback_flows; }},
    // Serving lifecycle: every admitted job starts and completes exactly
    // once (validate_trace_json additionally enforces per-job ordering and
    // that job-annotated events nest inside the admit -> complete window).
    {"job admit instants", [](const trace_result& r) { return r.n_job_admits; },
     "job start instants", [](const trace_result& r) { return r.n_job_starts; }},
    {"job admit instants", [](const trace_result& r) { return r.n_job_admits; },
     "job complete instants", [](const trace_result& r) { return r.n_job_completes; }},
};

/// "Expected at least one X" requirements of the self-check modes; rules
/// with `needs_complete` additionally demand a trace with no dropped events
/// (counting against a truncated trace would be meaningless).
struct presence_rule {
  unsigned modes;  ///< lint_mode bitmask this rule applies to
  bool needs_complete;
  const char* what;
  counter_fn count;
};

constexpr presence_rule kPresenceRules[] = {
    {kContent, false, "span", [](const trace_result& r) { return r.n_spans; }},
    {kContent, false, "steal/RMA flow", [](const trace_result& r) { return r.n_flows; }},
    {kContent, false, "counter sample", [](const trace_result& r) { return r.n_counters; }},
    {kPrefetch, true, "prefetch issue flow",
     [](const trace_result& r) { return r.n_prefetch_flows; }},
    {kRelease, true, "async write-back span",
     [](const trace_result& r) { return r.n_wb_async_spans; }},
    {kServing, true, "job admit instant",
     [](const trace_result& r) { return r.n_job_admits; }},
    // Vacuous window check otherwise: fairness steals must have produced at
    // least one job-tagged flow for the nesting rule to bite on.
    {kServing, true, "job-annotated event",
     [](const trace_result& r) { return r.n_job_annotated; }},
};

int lint(const std::string& json, const char* what, unsigned modes) {
  const trace_result r = ityr::common::validate_trace_json(json);
  if (!r.ok) {
    std::fprintf(stderr, "trace_lint: %s: INVALID: %s\n", what, r.error.c_str());
    return 1;
  }
  std::printf("trace_lint: %s: OK (%zu events: %zu spans, %zu flows, %zu counter samples, "
              "%zu prefetch flows, %zu async wb spans, %zu wb acquire flows)\n",
              what, r.n_events, r.n_spans, r.n_flows, r.n_counters, r.n_prefetch_flows,
              r.n_wb_async_spans, r.n_wb_acquire_flows);

  if (r.dropped_events != 0) {
    // Non-fatal: an evicted ring is a valid (truncated) trace, but pairing
    // rules are skipped below and analyses on it will be partial. The same
    // number is exported as the trace.dropped_events metric.
    std::fprintf(stderr,
                 "trace_lint: %s: WARNING: %llu events were dropped by the ring buffer; "
                 "raise ITYR_TRACE_CAP for a complete trace\n",
                 what, static_cast<unsigned long long>(r.dropped_events));
  }

  if (r.dropped_events == 0) {
    for (const pairing_rule& p : kPairingRules) {
      if (p.issued(r) != p.terminators(r)) {
        std::fprintf(stderr, "trace_lint: %s: %zu %s but %zu %s\n", what, p.issued(r),
                     p.issued_what, p.terminators(r), p.terminator_what);
        return 1;
      }
    }
  }

  for (const presence_rule& p : kPresenceRules) {
    if ((p.modes & modes) == 0) continue;
    if (p.needs_complete && r.dropped_events != 0) {
      std::fprintf(stderr, "trace_lint: %s: trace dropped %llu events; enlarge the cap\n", what,
                   static_cast<unsigned long long>(r.dropped_events));
      return 1;
    }
    if (p.count(r) == 0) {
      std::fprintf(stderr, "trace_lint: %s: expected at least one %s\n", what, p.what);
      return 1;
    }
  }
  return 0;
}

int self_check(bool with_prefetch, bool with_async_release = false,
               std::uint64_t flow_sample = 1) {
  ityr::common::options o;
  o.n_nodes = 2;
  o.ranks_per_node = 2;
  o.deterministic = true;
  o.block_size = 4 * ityr::common::KiB;
  o.sub_block_size = 1 * ityr::common::KiB;
  o.cache_size = 64 * ityr::common::KiB;
  o.coll_heap_per_rank = 1 * ityr::common::MiB;
  o.noncoll_heap_per_rank = 256 * ityr::common::KiB;
  o.metrics_sample_interval = 1.0e-5;
  if (with_prefetch) o.prefetch = true;
  if (with_async_release) o.async_release = true;
  o.trace_flow_sample = flow_sample;

  constexpr std::size_t n = 1 << 16;
  std::string json;
  {
    ityr::runtime rt(o);
    rt.trace().set_enabled(true);
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint32_t>(n);
      auto b = ityr::coll_new<std::uint32_t>(n);
      ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n, 7, 4096); });
      ityr::barrier();
      ityr::root_exec([=] {
        ityr::apps::cilksort(ityr::global_span<std::uint32_t>(a, n),
                             ityr::global_span<std::uint32_t>(b, n), 2048);
      });
      ityr::barrier();
      ityr::coll_delete(a, n);
      ityr::coll_delete(b, n);
    });
    json = rt.trace().to_json();
  }
  const unsigned modes =
      kContent | (with_prefetch ? kPrefetch : 0u) | (with_async_release ? kRelease : 0u);
  return lint(json,
              flow_sample > 1      ? "self-check (traced cilksort, sampled flows)"
              : with_async_release ? "self-check (traced cilksort, async release)"
              : with_prefetch    ? "self-check (traced cilksort, prefetch)"
                                 : "self-check (traced cilksort)",
              modes);
}

int self_check_serving() {
  ityr::common::options o;
  o.n_nodes = 2;
  o.ranks_per_node = 2;
  o.deterministic = true;
  o.block_size = 4 * ityr::common::KiB;
  o.sub_block_size = 1 * ityr::common::KiB;
  o.cache_size = 64 * ityr::common::KiB;
  o.coll_heap_per_rank = 1 * ityr::common::MiB;
  o.noncoll_heap_per_rank = 256 * ityr::common::KiB;
  o.metrics_sample_interval = 1.0e-5;
  o.serve = true;
  // Arrivals fast enough that the stream overlaps (fairness steals get
  // job-tagged flows to lint) but the driver still idles between some jobs.
  o.serve_arrival_rate = 2.0e4;
  o.steal_fairness = ityr::common::steal_fairness_kind::job_weighted;

  constexpr std::size_t n = 1 << 14;       // elements per job
  constexpr std::size_t n_jobs = 4;
  std::string json;
  {
    ityr::runtime rt(o);
    rt.trace().set_enabled(true);
    rt.spmd([&] {
      auto a = ityr::coll_new<std::uint32_t>(n * n_jobs);
      auto b = ityr::coll_new<std::uint32_t>(n * n_jobs);
      ityr::root_exec([=] { ityr::apps::cilksort_generate(a, n * n_jobs, 7, 4096); });
      ityr::barrier();
      std::vector<ityr::sched::job_spec> jobs;
      for (std::size_t j = 0; j < n_jobs; j++) {
        jobs.push_back({"cilksort", [=] {
                          ityr::apps::cilksort(
                              ityr::global_span<std::uint32_t>(a + j * n, n),
                              ityr::global_span<std::uint32_t>(b + j * n, n), 512);
                        }});
      }
      ityr::serve(std::move(jobs));
      ityr::barrier();
      ityr::coll_delete(a, n * n_jobs);
      ityr::coll_delete(b, n * n_jobs);
    });
    json = rt.trace().to_json();
  }
  return lint(json, "self-check (traced serving, 4 cilksort jobs)", kContent | kServing);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return self_check(/*with_prefetch=*/false);
  if (argc == 2 && std::strcmp(argv[1], "--self-check-prefetch") == 0) {
    return self_check(/*with_prefetch=*/true);
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-check-release") == 0) {
    return self_check(/*with_prefetch=*/false, /*with_async_release=*/true);
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-check-flow-sample") == 0) {
    return self_check(/*with_prefetch=*/false, /*with_async_release=*/false,
                      /*flow_sample=*/7);
  }
  if (argc == 2 && std::strcmp(argv[1], "--self-check-serving") == 0) {
    return self_check_serving();
  }

  int rc = 0;
  for (int i = 1; i < argc; i++) {
    std::ifstream in(argv[i], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "trace_lint: cannot open %s\n", argv[i]);
      rc = 1;
      continue;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    rc |= lint(ss.str(), argv[i], /*modes=*/0);
  }
  return rc;
}
