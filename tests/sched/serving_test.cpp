// Multi-job serving (ITYR_SERVE): differential off-path pinning, the
// root_exec re-entry regression, and serving-mode correctness.
//
//  * OFF-PATH: with ITYR_SERVE off, every serving knob (arrival rate, job
//    count, steal fairness) must be inert — a run with wild-but-valid
//    settings is bit-identical to a defaults run on per-rank virtual
//    clocks, scheduler counters, and the final heap state. This is
//    the in-repo half of the "single-job mode unchanged" guarantee (the
//    bench baselines pin the cross-PR half).
//
//  * RE-ENTRY: two back-to-back root_exec regions with the critical-path
//    profiler on must keep extending one work/span accumulation; region 1's
//    root frame and phase-timeline state must not leak into region 2.
//
//  * SERVING: an admitted job stream must run every job exactly once
//    (admit <= start <= complete, dense ids, correct heap contents), under
//    job-weighted fairness too, and the per-job cache accounting must
//    attribute all traffic.
//
//  * SPARSE ROWS: a rank holds a per-job cache row only for a job that moved
//    cache traffic on it, and the aggregated rows keep their pinned values.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "../support/fixture.hpp"
#include "itoyori/core/ityr.hpp"
#include "itoyori/core/metrics.hpp"

namespace {

constexpr std::uint32_t mutate(std::uint32_t x, std::uint32_t salt, std::uint32_t idx) {
  return x * 1664525u + salt + idx * 1013904223u;
}

// Recursive fork-join mutate over [lo, hi): enough forks that serving-mode
// jobs overlap and steal from each other at 4 ranks.
void mutate_range(ityr::global_ptr<std::uint32_t> a, std::size_t lo, std::size_t hi,
                  std::uint32_t salt) {
  if (hi - lo <= 256) {
    ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), hi - lo,
                        ityr::access_mode::read_write, [&](std::uint32_t* p) {
                          for (std::size_t i = 0; i < hi - lo; i++) {
                            p[i] = mutate(p[i], salt, static_cast<std::uint32_t>(lo + i));
                          }
                        });
    return;
  }
  const std::size_t mid = lo + (hi - lo) / 2;
  ityr::parallel_invoke([=] { mutate_range(a, lo, mid, salt); },
                        [=] { mutate_range(a, mid, hi, salt); });
}

void mutate_serial(std::vector<std::uint32_t>& a, std::size_t lo, std::size_t hi,
                   std::uint32_t salt) {
  for (std::size_t i = lo; i < hi; i++) {
    a[i] = mutate(a[i], salt, static_cast<std::uint32_t>(i));
  }
}

/// Job j's body: several rounds over its own block-aligned slice, salts
/// derived from the job index so every job's effect is distinguishable.
ityr::sched::job_spec slice_job(ityr::global_ptr<std::uint32_t> a, std::size_t j,
                                std::size_t n_per_job, int rounds = 2) {
  return {"job_slice", [=] {
            for (int r = 0; r < rounds; r++) {
              mutate_range(a, j * n_per_job, (j + 1) * n_per_job,
                           static_cast<std::uint32_t>(j * 16 + r + 1));
            }
          }};
}

void slice_oracle(std::vector<std::uint32_t>& a, std::size_t j, std::size_t n_per_job,
                  int rounds = 2) {
  for (int r = 0; r < rounds; r++) {
    mutate_serial(a, j * n_per_job, (j + 1) * n_per_job,
                  static_cast<std::uint32_t>(j * 16 + r + 1));
  }
}

// ---------------------------------------------------------------------------
// Off-path differential: serving knobs are inert with ITYR_SERVE off.
// ---------------------------------------------------------------------------

struct fingerprint {
  std::vector<double> clocks;
  std::vector<std::uint32_t> final_state;
  ityr::sched::scheduler::stats st;
};

fingerprint run_fp(unsigned seed, const std::function<void(ityr::common::options&)>& tweak) {
  constexpr std::size_t n = 8 * 1024;
  fingerprint fp;
  auto o = ityr::test::tiny_opts(2, 2);
  o.seed = seed;
  tweak(o);
  ityr::runtime rt(o);
  fp.clocks.assign(4, 0.0);
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] {
      ityr::parallel_fill(a, n, 64, std::uint32_t{0});
      mutate_range(a, 0, n, 7);
      mutate_range(a, 0, n, 13);
    });
    if (ityr::my_rank() == 0) {
      fp.final_state.resize(n);
      ityr::with_checkout(a, n, ityr::access_mode::read, [&](const std::uint32_t* got) {
        for (std::size_t i = 0; i < n; i++) fp.final_state[i] = got[i];
      });
    }
    ityr::barrier();
    fp.clocks[static_cast<std::size_t>(ityr::my_rank())] = rt.eng().now();
    ityr::coll_delete(a, n);
  });
  fp.st = rt.sched().get_stats();
  return fp;
}

class ServingOffDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(ServingOffDifferential, ServingKnobsAreInertWhenServeIsOff) {
  const unsigned seed = GetParam();
  const fingerprint defaults = run_fp(seed, [](ityr::common::options&) {});
  // Wild but valid settings for every serving knob, with ITYR_SERVE itself
  // off: not a single probe, clock tick, or cache decision may move.
  const fingerprint tweaked = run_fp(seed, [](ityr::common::options& o) {
    o.serve_arrival_rate = 3.0;
    o.serve_jobs = 5;
    o.steal_fairness = ityr::common::steal_fairness_kind::job_weighted;
  });
  ASSERT_EQ(defaults.clocks.size(), tweaked.clocks.size());
  for (std::size_t r = 0; r < defaults.clocks.size(); r++) {
    // Exact double equality on purpose: any divergence in RNG consumption or
    // advance() sequencing shows up here first.
    EXPECT_EQ(defaults.clocks[r], tweaked.clocks[r]) << "rank " << r << " clock diverged";
  }
  EXPECT_EQ(defaults.st.forks, tweaked.st.forks);
  EXPECT_EQ(defaults.st.steal_attempts, tweaked.st.steal_attempts);
  EXPECT_EQ(defaults.st.steals, tweaked.st.steals);
  EXPECT_EQ(defaults.st.local_pops, tweaked.st.local_pops);
  EXPECT_EQ(defaults.st.fairness_mid_claims, 0u);
  EXPECT_EQ(tweaked.st.fairness_mid_claims, 0u);
  EXPECT_EQ(defaults.st.fairness_redirects, 0u);
  EXPECT_EQ(tweaked.st.fairness_redirects, 0u);
  EXPECT_EQ(defaults.final_state, tweaked.final_state);
}

INSTANTIATE_TEST_SUITE_P(RandomSchedules, ServingOffDifferential,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 7u, 11u, 13u, 23u, 42u),
                         [](const ::testing::TestParamInfo<unsigned>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// ---------------------------------------------------------------------------
// root_exec re-entry with the critical-path profiler on.
// ---------------------------------------------------------------------------

TEST(RootExecReentry, BackToBackRegionsExtendOneCriticalPath) {
  constexpr std::size_t n = 4 * 1024;
  auto o = ityr::test::tiny_opts(2, 2);
  o.critpath = true;
  ityr::runtime rt(o);
  double work_after_first = 0, span_after_first = 0;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] {
      ityr::parallel_fill(a, n, 64, std::uint32_t{0});
      mutate_range(a, 0, n, 3);
    });
    if (ityr::my_rank() == 0) {
      work_after_first = rt.sched().cp_work();
      span_after_first = rt.sched().cp_span().total();
    }
    ityr::barrier();
    // Region 2 immediately after region 1: a stale root frame, resume note,
    // or open critpath segment from region 1 would crash or misattribute
    // this region's first resume.
    ityr::root_exec([=] { mutate_range(a, 0, n, 5); });
    if (ityr::my_rank() == 0) {
      std::vector<std::uint32_t> oracle(n, 0);
      mutate_serial(oracle, 0, n, 3);
      mutate_serial(oracle, 0, n, 5);
      ityr::with_checkout(a, n, ityr::access_mode::read, [&](const std::uint32_t* got) {
        for (std::size_t i = 0; i < n; i++) {
          ASSERT_EQ(got[i], oracle[i]) << "heap diverged at " << i;
        }
      });
    }
    ityr::barrier();
    ityr::coll_delete(a, n);
  });
  EXPECT_GT(work_after_first, 0.0);
  EXPECT_GT(span_after_first, 0.0);
  // Sequential regions extend the same accumulated path.
  EXPECT_GT(rt.sched().cp_work(), work_after_first);
  EXPECT_GT(rt.sched().cp_span().total(), span_after_first);
  EXPECT_GE(rt.sched().cp_work(), rt.sched().cp_span().total());
}

// ---------------------------------------------------------------------------
// Serving mode.
// ---------------------------------------------------------------------------

struct serve_run {
  std::vector<ityr::sched::job_record> records;
  std::vector<std::uint32_t> final_state;
  std::vector<ityr::pgas::job_cache_stats> job_cache;
  /// Each rank's own per-job rows, indexed by rank.
  std::vector<std::unordered_map<ityr::common::job_id_t, ityr::pgas::job_cache_stats>> rank_rows;
  ityr::pgas::cache_system::stats cache;
  ityr::sched::scheduler::stats sched;
  double jobs_per_s = 0;
  double p50 = 0, p99 = 0;
  std::vector<double> clocks;      ///< per-rank virtual clocks at the end
  double resumes = 0;              ///< engine.resumes over the serve() call
  double inline_resumes = 0;       ///< engine.inline_resumes over the serve() call
  double missed_in_place = 0;      ///< sched.steal.missed_in_place over the serve() call
  std::uint64_t steal_scopes = 0;  ///< profiler steal scopes (0 unless enabled)
};

/// `observe` runs on the runtime before the stream, e.g. to switch the
/// profiler or tracer on.
serve_run run_serve(std::size_t n_jobs, std::size_t n_per_job,
                    const std::function<void(ityr::common::options&)>& tweak,
                    const std::function<void(ityr::runtime&)>& observe = nullptr) {
  serve_run out;
  auto o = ityr::test::tiny_opts(2, 2);
  o.serve = true;
  o.serve_arrival_rate = 2.0e4;  // arrivals overlap: jobs compete for ranks
  tweak(o);
  ityr::runtime rt(o);
  if (observe) observe(rt);
  const std::size_t n = n_jobs * n_per_job;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::parallel_fill(a, n, 64, std::uint32_t{0}); });
    ityr::barrier();
    std::vector<ityr::sched::job_spec> jobs;
    for (std::size_t j = 0; j < n_jobs; j++) jobs.push_back(slice_job(a, j, n_per_job));
    ityr::metrics_snapshot before;
    if (ityr::my_rank() == 0) before = rt.metrics();
    ityr::serve(std::move(jobs));
    if (ityr::my_rank() == 0) {
      const ityr::metrics_snapshot served = rt.metrics().delta(before);
      out.resumes = served.total("engine.resumes");
      out.inline_resumes = served.total("engine.inline_resumes");
      out.missed_in_place = served.total("sched.steal.missed_in_place");
      out.final_state.resize(n);
      // Chunked readback: some runs shrink the cache below the array size,
      // so a single whole-array checkout would exhaust it with pins.
      constexpr std::size_t chunk = 256;
      for (std::size_t lo = 0; lo < n; lo += chunk) {
        const std::size_t len = std::min(chunk, n - lo);
        ityr::with_checkout(a + static_cast<std::ptrdiff_t>(lo), len, ityr::access_mode::read,
                            [&](const std::uint32_t* got) {
                              for (std::size_t i = 0; i < len; i++) out.final_state[lo + i] = got[i];
                            });
      }
    }
    ityr::barrier();
    ityr::coll_delete(a, n);
  });
  out.records = rt.jobs().records();
  out.job_cache = rt.pgas().aggregate_job_stats();
  for (int r = 0; r < rt.eng().n_ranks(); r++) {
    out.rank_rows.push_back(rt.pgas().cache_of(r).job_accounting().rows);
  }
  out.cache = rt.pgas().aggregate_stats();
  out.sched = rt.sched().get_stats();
  out.jobs_per_s = rt.jobs().jobs_per_s();
  out.p50 = rt.jobs().latency_quantile(0.50);
  out.p99 = rt.jobs().latency_quantile(0.99);
  for (int r = 0; r < rt.eng().n_ranks(); r++) out.clocks.push_back(rt.eng().clock_of(r));
  out.steal_scopes = rt.prof().total_count(ityr::common::prof_event::steal);
  return out;
}

std::vector<std::uint32_t> serve_oracle(std::size_t n_jobs, std::size_t n_per_job) {
  std::vector<std::uint32_t> a(n_jobs * n_per_job, 0);
  for (std::size_t j = 0; j < n_jobs; j++) slice_oracle(a, j, n_per_job);
  return a;
}

TEST(Serving, RunsEveryJobOnceWithOrderedLifecycle) {
  constexpr std::size_t n_jobs = 6, n_per_job = 2048;
  const serve_run r = run_serve(n_jobs, n_per_job, [](ityr::common::options&) {});

  ASSERT_EQ(r.records.size(), n_jobs);
  double prev_admit = -1;
  for (std::size_t i = 0; i < n_jobs; i++) {
    const auto& jr = r.records[i];
    EXPECT_EQ(jr.id, static_cast<ityr::common::job_id_t>(i + 1)) << "ids dense from 1";
    EXPECT_TRUE(jr.done);
    EXPECT_GT(jr.t_admit, prev_admit) << "admissions strictly ordered";
    prev_admit = jr.t_admit;
    EXPECT_GE(jr.t_start, jr.t_admit);
    EXPECT_GE(jr.t_complete, jr.t_start);
    EXPECT_GT(jr.latency(), 0.0);
    EXPECT_GT(jr.busy_s, 0.0) << "job " << jr.id << " accrued no busy time";
  }
  EXPECT_GT(r.jobs_per_s, 0.0);
  EXPECT_LE(r.p50, r.p99);
  EXPECT_EQ(r.final_state, serve_oracle(n_jobs, n_per_job));
}

TEST(Serving, ServeTwiceKeepsGrowingJobIds) {
  constexpr std::size_t n_jobs = 3, n_per_job = 1024;
  auto o = ityr::test::tiny_opts(2, 2);
  o.serve = true;
  o.serve_arrival_rate = 2.0e4;
  ityr::runtime rt(o);
  const std::size_t n = n_jobs * n_per_job;
  rt.spmd([&] {
    auto a = ityr::coll_new<std::uint32_t>(n);
    ityr::root_exec([=] { ityr::parallel_fill(a, n, 64, std::uint32_t{0}); });
    ityr::barrier();
    for (int round = 0; round < 2; round++) {
      std::vector<ityr::sched::job_spec> jobs;
      for (std::size_t j = 0; j < n_jobs; j++) jobs.push_back(slice_job(a, j, n_per_job));
      ityr::serve(std::move(jobs));
      ityr::barrier();
    }
    ityr::coll_delete(a, n);
  });
  const auto& recs = rt.jobs().records();
  ASSERT_EQ(recs.size(), 2 * n_jobs);
  for (std::size_t i = 0; i < recs.size(); i++) {
    EXPECT_EQ(recs[i].id, static_cast<ityr::common::job_id_t>(i + 1));
    EXPECT_TRUE(recs[i].done);
  }
}

TEST(Serving, JobWeightedFairnessPreservesResults) {
  constexpr std::size_t n_jobs = 6, n_per_job = 2048;
  const serve_run off = run_serve(n_jobs, n_per_job, [](ityr::common::options& o) {
    o.steal_fairness = ityr::common::steal_fairness_kind::off;
  });
  const serve_run fair = run_serve(n_jobs, n_per_job, [](ityr::common::options& o) {
    o.steal_fairness = ityr::common::steal_fairness_kind::job_weighted;
  });
  // Fairness reshuffles the steal schedule; DAG consistency is
  // schedule-independent, so the heap must not care.
  EXPECT_EQ(off.final_state, fair.final_state);
  for (const auto& jr : fair.records) EXPECT_TRUE(jr.done);
  // The off run must never pay the fairness scan.
  EXPECT_EQ(off.sched.fairness_mid_claims, 0u);
  EXPECT_EQ(off.sched.fairness_redirects, 0u);
  // Fairness hunts run their probes as inline steps too.
  EXPECT_GT(fair.inline_resumes, 0.0);
}

TEST(Serving, PerJobCacheAccountingAttributesAllTraffic) {
  constexpr std::size_t n_jobs = 4, n_per_job = 4096;
  const serve_run r = run_serve(n_jobs, n_per_job, [](ityr::common::options&) {});

  ASSERT_GE(r.job_cache.size(), n_jobs + 1) << "one row per job id plus row 0";
  // Conservation: every fetched/written-back byte and every miss lands on
  // exactly one row (row 0 = untagged SPMD/driver traffic).
  std::uint64_t fetched = 0, written = 0, misses = 0;
  for (const auto& row : r.job_cache) {
    fetched += row.fetched_bytes;
    written += row.written_back_bytes;
    misses += row.block_fetches;
  }
  EXPECT_EQ(fetched, r.cache.fetched_bytes);
  EXPECT_EQ(written, r.cache.written_back_bytes + r.cache.write_through_bytes);
  EXPECT_EQ(misses, r.cache.block_misses);
  // Every job moved data: its slice is remote for at least some ranks.
  for (std::size_t j = 1; j <= n_jobs; j++) {
    EXPECT_GT(r.job_cache[j].fetched_bytes + r.job_cache[j].written_back_bytes, 0u)
        << "job " << j << " attributed no cache traffic";
  }
  // Footprint peaks charge the allocator (the block tag sticks until
  // eviction), so a job re-reading blocks the fill phase cached can
  // legitimately show peak 0 — assert the charge exists in aggregate.
  std::uint64_t peak_total = 0;
  for (const auto& row : r.job_cache) peak_total += row.cached_bytes_peak;
  EXPECT_GT(peak_total, 0u);
}

// ---------------------------------------------------------------------------
// Idle steal rounds as inline steps (sim::engine::park). In a stream of
// small jobs on a wide cluster most ranks are idle thieves most of the time,
// so the inline path carries most resumes; these tests keep it from
// silently switching off.
// ---------------------------------------------------------------------------

constexpr std::size_t kWideJobs = 32, kWidePerJob = 512;

void wide_cluster(ityr::common::options& o) {
  o.n_nodes = 8;
  o.ranks_per_node = 8;
  o.serve_arrival_rate = 1.0e4;
  // Barrier waits and the admission driver spin on the fiber path once per
  // poll_interval. This stream is short, so at the default 0.5 us those
  // spins rival the idle rounds; perfbench's 1024-rank `serve` stream runs
  // ~89% of its resumes inline at the default.
  o.poll_interval = 4.0e-6;
  o.steal_fairness = ityr::common::steal_fairness_kind::off;
}

TEST(IdleSteps, CarryMostResumesOfAWideServingRun) {
  const serve_run r = run_serve(kWideJobs, kWidePerJob, wide_cluster);
  EXPECT_EQ(r.final_state, serve_oracle(kWideJobs, kWidePerJob));
  EXPECT_GT(2 * r.inline_resumes, r.resumes);
}

TEST(IdleSteps, ObservabilityDoesNotMoveThem) {
  const serve_run plain = run_serve(kWideJobs, kWidePerJob, wide_cluster);
  const serve_run observed = run_serve(
      kWideJobs, kWidePerJob,
      [](ityr::common::options& o) {
        wide_cluster(o);
        o.critpath = true;
      },
      [](ityr::runtime& rt) {
        rt.prof().set_enabled(true);
        rt.trace().set_enabled(true);
      });
  // Whether a round runs inline depends on its state only, never on an
  // option: observing it must not move a single resume or clock tick.
  EXPECT_GT(plain.inline_resumes, 0.0);
  EXPECT_EQ(plain.inline_resumes, observed.inline_resumes);
  EXPECT_EQ(plain.resumes, observed.resumes);
  EXPECT_EQ(plain.missed_in_place, observed.missed_in_place);
  EXPECT_EQ(plain.clocks, observed.clocks);
  EXPECT_EQ(plain.sched.forks, observed.sched.forks);
  EXPECT_EQ(plain.sched.steal_attempts, observed.sched.steal_attempts);
  EXPECT_EQ(plain.sched.steals, observed.sched.steals);
  EXPECT_EQ(plain.sched.local_pops, observed.sched.local_pops);
  EXPECT_EQ(plain.sched.join_suspends, observed.sched.join_suspends);
  EXPECT_EQ(plain.sched.migrations, observed.sched.migrations);
  EXPECT_EQ(plain.sched.failed_probe_s, observed.sched.failed_probe_s);
  EXPECT_EQ(plain.final_state, observed.final_state);
}

TEST(IdleSteps, EveryRoundOpensOneStealScope) {
  // Random victims without a fairness hunt probe once per round, and the
  // round's steal scope spans its steps: one scope per probe, closed in a
  // later step or in the fiber after the claim.
  const serve_run r = run_serve(kWideJobs, kWidePerJob, wide_cluster,
                                [](ityr::runtime& rt) { rt.prof().set_enabled(true); });
  EXPECT_GT(r.sched.steal_attempts, 0u);
  EXPECT_EQ(r.steal_scopes, r.sched.steal_attempts);
}

// Golden schedule of the wide run, and of the same run under job-weighted
// fairness, whose hunt re-issues a probe within one round. How the DES
// steps an idle thief's rounds is host-side work: it must leave every
// clock, count and job instant as it is. A probe that lands in place saves
// exactly the resume that would have landed it, so the pinned count is
// resumes plus in-place misses. Each release protocol has its own set, as
// in the Determinism goldens; async release keeps two resumes per miss.

struct wide_fingerprint {
  std::vector<double> clocks;
  std::uint64_t steal_attempts = 0;
  std::uint64_t steals = 0;
  std::uint64_t failed_probe_bits = 0;  ///< sched failed_probe_s, bit for bit
  std::vector<double> job_times;        ///< t_admit, t_complete of each job
  double resumes = 0;  ///< engine.resumes + in-place misses over the serve() call
};

void expect_golden(const serve_run& r, const wide_fingerprint& want) {
  EXPECT_EQ(r.clocks, want.clocks);
  EXPECT_EQ(r.sched.steal_attempts, want.steal_attempts);
  EXPECT_EQ(r.sched.steals, want.steals);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.sched.failed_probe_s), want.failed_probe_bits);
  std::vector<double> times;
  for (const auto& jr : r.records) {
    times.push_back(jr.t_admit);
    times.push_back(jr.t_complete);
  }
  EXPECT_EQ(times, want.job_times);
  EXPECT_EQ(r.resumes + r.missed_in_place, want.resumes);
  if (ityr::test::tiny_opts().async_release) {
    EXPECT_EQ(r.missed_in_place, 0.0);
  } else {
    EXPECT_GT(r.missed_in_place, 0.0);
  }
}

TEST(IdleSteps, WideRunMatchesGolden) {
  const serve_run r = run_serve(kWideJobs, kWidePerJob, wide_cluster);
  EXPECT_EQ(r.final_state, serve_oracle(kWideJobs, kWidePerJob));
  const wide_fingerprint sync_golden{
      {0x1.69c34e7972b81p-9, 0x1.6a01fc598253p-9, 0x1.6a52843152891p-9, 0x1.69dec0eb173b5p-9,
       0x1.69de01139245ap-9, 0x1.6a0c0d547c59dp-9, 0x1.6a0c0d547c59dp-9, 0x1.6a3959bde1783p-9,
       0x1.6a2bedc49419dp-9, 0x1.69dec0eb173b5p-9, 0x1.6a0c0d547c59dp-9, 0x1.69c59677a62a7p-9,
       0x1.6a2f48c2e7717p-9, 0x1.6a4deb5f22eacp-9, 0x1.69e8d1e611422p-9, 0x1.6a01fc598253p-9,
       0x1.69e8d1e611422p-9, 0x1.6a2537c7ed6aap-9, 0x1.69dec0eb173b5p-9, 0x1.6a0c0d547c59cp-9,
       0x1.6a2f48c2e7716p-9, 0x1.6a2537c7ed6abp-9, 0x1.69dec0eb173b5p-9, 0x1.6a2f48c2e7716p-9,
       0x1.6a03cf11c5cb3p-9, 0x1.69dec0eb173b6p-9, 0x1.6a0c0d547c59cp-9, 0x1.69cbf3b10f54ep-9,
       0x1.69c59677a62a7p-9, 0x1.69e8d1e611424p-9, 0x1.6a2568750f271p-9, 0x1.6a2f48c2e7717p-9,
       0x1.69e8d1e611422p-9, 0x1.6a01fc598253p-9, 0x1.6a2537c7ed6aap-9, 0x1.6a0c0d547c59cp-9,
       0x1.6a52843152891p-9, 0x1.69e8d1e611423p-9, 0x1.6a2f48c2e7717p-9, 0x1.69c59677a62a8p-9,
       0x1.6a0c0d547c59cp-9, 0x1.6a01fc598253p-9, 0x1.69dadf59669e9p-9, 0x1.6a021eb59a234p-9,
       0x1.69dec0eb173b6p-9, 0x1.6a3959bde1783p-9, 0x1.6a3498d596117p-9, 0x1.69e8d1e611422p-9,
       0x1.6a2c01cfa1fep-9, 0x1.69dec0eb173b6p-9, 0x1.6a0c0d547c59bp-9, 0x1.6a2f48c2e7717p-9,
       0x1.6a0c0d547c59cp-9, 0x1.69d17470dfb15p-9, 0x1.6a35febf8e209p-9, 0x1.6a2f48c2e7717p-9,
       0x1.6a0c0d547c59cp-9, 0x1.6a0c0d547c59cp-9, 0x1.6a0c0d547c59dp-9, 0x1.6a0c0d547c59dp-9,
       0x1.6a52843152891p-9, 0x1.6a161e4f76608p-9, 0x1.6a2f48c2e7717p-9, 0x1.69bb857cac23bp-9},
      2926, 10, 0x3f72ef332922383fULL,
      {0x1.204707e443393p-12, 0x1.21da7d43e3296p-12, 0x1.26510c8827651p-12, 0x1.27e481e7c7554p-12,
       0x1.83b19505fcd7dp-12, 0x1.85450a659cc8p-12, 0x1.89fd000acff2dp-12, 0x1.8b90756a6fe3p-12,
       0x1.976929a6cd6e1p-12, 0x1.9b157dfa841bfp-12, 0x1.63c2a34f12843p-11, 0x1.648c5dfee27c3p-11,
       0x1.76f5b3e6034c6p-11, 0x1.78cbde0fdea34p-11, 0x1.90f5c86e6c179p-11, 0x1.91bf831e3c0f9p-11,
       0x1.bf8193a11396fp-11, 0x1.c157bdcaeeeddp-11, 0x1.d534e7f869668p-11, 0x1.d5fea2a8395e8p-11,
       0x1.dde381967bf09p-11, 0x1.dfb9abc057477p-11, 0x1.f45e96b391b0ep-11, 0x1.f528516361a8ep-11,
       0x1.04dbb26aff9dfp-10, 0x1.05c6c77fed496p-10, 0x1.134a006e160dfp-10, 0x1.13aeddc5fe09fp-10,
       0x1.41db6b0220026p-10, 0x1.42c680170daddp-10, 0x1.574d422819415p-10, 0x1.57b21f80013d5p-10,
       0x1.5ff40d611ac89p-10, 0x1.61778437a4ec7p-10, 0x1.8207fd406b533p-10, 0x1.8382c628f1837p-10,
       0x1.8e79f2fefa8ap-10, 0x1.8ffd69d584adep-10, 0x1.98a59e3b56a89p-10, 0x1.9a206723dcd8dp-10,
       0x1.ab9f9fa7ff455p-10, 0x1.ad23167e89693p-10, 0x1.aeffd53653ce1p-10, 0x1.b07a9e1ed9fe5p-10,
       0x1.c38ba2358cf89p-10, 0x1.c50f190c171c7p-10, 0x1.da49cc77c4255p-10, 0x1.dbc495604a559p-10,
       0x1.dcf292c997205p-10, 0x1.de7609a021443p-10, 0x1.e90e96c6bfdf2p-10, 0x1.ea895faf460f6p-10,
       0x1.f6084dad3684cp-10, 0x1.f78bc483c0a8ap-10, 0x1.07544f4d594c4p-9, 0x1.0811b3c19c646p-9,
       0x1.2e685f9fdc21cp-9, 0x1.2f2a1b0b2133bp-9, 0x1.3467daaa2b459p-9, 0x1.35253f1e6e5dbp-9,
       0x1.4ae14696b0c52p-9, 0x1.4ba30201f5d71p-9, 0x1.5141bc2c6d652p-9, 0x1.51ff20a0b07d4p-9},
      6118};
  const wide_fingerprint async_golden{
      {0x1.6998fbb41d786p-9, 0x1.6a01fc598253p-9, 0x1.69bb857cac23cp-9, 0x1.69dec0eb173b5p-9,
       0x1.6a05a4a70b3f4p-9, 0x1.6a0c0d547c59dp-9, 0x1.6a0c0d547c59dp-9, 0x1.69a25b093b12dp-9,
       0x1.6a2bedc49419dp-9, 0x1.69dec0eb173b5p-9, 0x1.6a0c0d547c59dp-9, 0x1.69c59677a62a8p-9,
       0x1.6a2f48c2e7717p-9, 0x1.69b6ecaa7c856p-9, 0x1.69e8d1e611422p-9, 0x1.6a01fc598253p-9,
       0x1.69e8d1e611423p-9, 0x1.6a2537c7ed6abp-9, 0x1.69dec0eb173b6p-9, 0x1.6a0c0d547c59dp-9,
       0x1.6a2f48c2e7717p-9, 0x1.6a2537c7ed6abp-9, 0x1.69dec0eb173b6p-9, 0x1.6a2f48c2e7717p-9,
       0x1.69bf50264ce05p-9, 0x1.69dec0eb173b6p-9, 0x1.6a0c0d547c59cp-9, 0x1.69c4f0653311p-9,
       0x1.69c59677a62a8p-9, 0x1.69e8d1e611424p-9, 0x1.69d57581a6226p-9, 0x1.6a2f48c2e7717p-9,
       0x1.69e8d1e611422p-9, 0x1.6a01fc598253p-9, 0x1.6a2537c7ed6aap-9, 0x1.6a0c0d547c59dp-9,
       0x1.69bb857cac23bp-9, 0x1.69e8d1e611423p-9, 0x1.6a2f48c2e7717p-9, 0x1.69c59677a62a8p-9,
       0x1.6a0c0d547c59dp-9, 0x1.6a01fc598253p-9, 0x1.6a2d5f2294191p-9, 0x1.69ad6db6e7b3dp-9,
       0x1.69dec0eb173b6p-9, 0x1.69a25b093b12dp-9, 0x1.699c3713f998fp-9, 0x1.69e8d1e611423p-9,
       0x1.69cbdcc8ff74ap-9, 0x1.69dec0eb173b6p-9, 0x1.6a0c0d547c59cp-9, 0x1.6a2f48c2e7717p-9,
       0x1.6a0c0d547c59dp-9, 0x1.69d05bd61d36ep-9, 0x1.699f000ae7bb4p-9, 0x1.6a2f48c2e7717p-9,
       0x1.6a0c0d547c59dp-9, 0x1.6a0c0d547c59cp-9, 0x1.6a0c0d547c59ep-9, 0x1.6a0c0d547c59dp-9,
       0x1.69bb857cac23cp-9, 0x1.6a161e4f76609p-9, 0x1.69984a0e410c1p-9, 0x1.69bb857cac23bp-9},
      2926, 10, 0x3f72f04d049590fdULL,
      {0x1.1b8f123f100e6p-12, 0x1.1d22879eaffe9p-12, 0x1.219916e2f43a4p-12, 0x1.232c8c42942a7p-12,
       0x1.7ef99f60c9acfp-12, 0x1.808d14c0699d2p-12, 0x1.85450a659cc7fp-12, 0x1.86d87fc53cb82p-12,
       0x1.92b134019a433p-12, 0x1.965d885550f11p-12, 0x1.6166a87c78eedp-11, 0x1.6230632c48e6dp-11,
       0x1.7499b91369b7p-11, 0x1.766fe33d450dep-11, 0x1.8e99cd9bd2823p-11, 0x1.8f63884ba27a3p-11,
       0x1.bd2598ce7a019p-11, 0x1.befbc2f855587p-11, 0x1.d2d8ed25cfd12p-11, 0x1.d3a2a7d59fc92p-11,
       0x1.db8786c3e25b3p-11, 0x1.dd5db0edbdb21p-11, 0x1.f2029be0f81b8p-11, 0x1.f2cc5690c8138p-11,
       0x1.03adb501b2d34p-10, 0x1.0498ca16a07ebp-10, 0x1.121c0304c9434p-10, 0x1.1280e05cb13f4p-10,
       0x1.40ad6d98d337bp-10, 0x1.419882adc0e32p-10, 0x1.561f44becc76ap-10, 0x1.56842216b472ap-10,
       0x1.5ec60ff7cdfdep-10, 0x1.604986ce5821cp-10, 0x1.80d9ffd71e888p-10, 0x1.8254c8bfa4b8cp-10,
       0x1.8d4bf595adbf5p-10, 0x1.8ecf6c6c37e33p-10, 0x1.9777a0d209ddep-10, 0x1.98f269ba900e2p-10,
       0x1.aa71a23eb27aap-10, 0x1.abf519153c9e8p-10, 0x1.add1d7cd07036p-10, 0x1.af4ca0b58d33ap-10,
       0x1.c25da4cc402dep-10, 0x1.c3e11ba2ca51cp-10, 0x1.d91bcf0e775aap-10, 0x1.da9697f6fd8aep-10,
       0x1.dbc495604a55ap-10, 0x1.dd480c36d4798p-10, 0x1.e7e0995d73147p-10, 0x1.e95b6245f944bp-10,
       0x1.f4da5043e9ba1p-10, 0x1.f65dc71a73ddfp-10, 0x1.06bd5098b2e6fp-9, 0x1.077ab50cf5ff1p-9,
       0x1.2dd160eb35bc7p-9, 0x1.2e931c567ace6p-9, 0x1.33d0dbf584e04p-9, 0x1.348e4069c7f86p-9,
       0x1.4a4a47e20a5fdp-9, 0x1.4b0c034d4f71cp-9, 0x1.50aabd77c6ffdp-9, 0x1.516821ec0a17fp-9},
      6162};
  expect_golden(r, ityr::test::tiny_opts().async_release ? async_golden : sync_golden);
}

TEST(IdleSteps, PlacementKeepsTwoResumesPerMiss) {
  // A placement pass writes the owner table from an idle hook, which ranks
  // running before a landing read: no miss may land in place.
  const serve_run r = run_serve(kWideJobs, kWidePerJob, [](ityr::common::options& o) {
    wide_cluster(o);
    o.migration = true;
  });
  EXPECT_EQ(r.final_state, serve_oracle(kWideJobs, kWidePerJob));
  EXPECT_GT(r.sched.steal_attempts, r.sched.steals);
  EXPECT_EQ(r.missed_in_place, 0.0);
}

TEST(IdleSteps, FairnessHuntMatchesGolden) {
  const serve_run r = run_serve(kWideJobs, kWidePerJob, [](ityr::common::options& o) {
    wide_cluster(o);
    o.steal_fairness = ityr::common::steal_fairness_kind::job_weighted;
  });
  EXPECT_EQ(r.final_state, serve_oracle(kWideJobs, kWidePerJob));
  const wide_fingerprint sync_golden{
      {0x1.62c558898419ap-9, 0x1.6337ddbcdf1a1p-9, 0x1.6341eeb7d920cp-9, 0x1.62f166e008eaep-9,
       0x1.635209e302c54p-9, 0x1.6357ebfd169acp-9, 0x1.631eb3496e092p-9, 0x1.63390785ad7cbp-9,
       0x1.63053012bf737p-9, 0x1.632fe9ec5c243p-9, 0x1.62e9730f85f4bp-9, 0x1.62f166e008eabp-9,
       0x1.633e93b985c95p-9, 0x1.62c6961e5c5a1p-9, 0x1.6341eeb7d920dp-9, 0x1.6337c11acb41dp-9,
       0x1.62e24d6791e0bp-9, 0x1.6319d89c10c64p-9, 0x1.62ce2b719dd33p-9, 0x1.635257142e0b6p-9,
       0x1.630080587ff4ep-9, 0x1.62ffa998eb1f4p-9, 0x1.630e79680abe5p-9, 0x1.62d52903761eep-9,
       0x1.632def1dfce3ap-9, 0x1.6341eeb7d920dp-9, 0x1.630e33e6feefep-9, 0x1.62d9e9ebc185ap-9,
       0x1.62ce2b719dd31p-9, 0x1.631eb3496e094p-9, 0x1.634edcb4cf2e1p-9, 0x1.631eb3496e094p-9,
       0x1.62f166e008eacp-9, 0x1.634dad31fcd37p-9, 0x1.6337ddbcdf1ap-9, 0x1.62f9ca5bd945cp-9,
       0x1.62f66f5d85ee3p-9, 0x1.631b584b1ab1ap-9, 0x1.6314a24e74028p-9, 0x1.62e9289d525c3p-9,
       0x1.62d83c6c97d9ep-9, 0x1.6341eeb7d920ep-9, 0x1.62e24d6791e0dp-9, 0x1.6323189179ef2p-9,
       0x1.62c41a76a3cc5p-9, 0x1.62ce2b719dd31p-9, 0x1.6344f0f2eef39p-9, 0x1.62fb77db02f19p-9,
       0x1.62e77b1e28b06p-9, 0x1.6314a24e74026p-9, 0x1.634f8881463fap-9, 0x1.6300cdc716ec7p-9,
       0x1.62c79aae10f05p-9, 0x1.631de2b8485a3p-9, 0x1.62ce2b719dd32p-9, 0x1.62f166e008eacp-9,
       0x1.6314a24e74027p-9, 0x1.62f166e008eacp-9, 0x1.62e24d6791e0bp-9, 0x1.6341eeb7d920dp-9,
       0x1.62e755e50ee3fp-9, 0x1.62c5c7f5cd784p-9, 0x1.6328c44468101p-9, 0x1.6314a24e74027p-9},
      10669, 27, 0x3fa587c7dffe0219ULL,
      {0x1.ab89a0110251p-13, 0x1.aeb08ad042313p-13, 0x1.b79da958caa8dp-13, 0x1.bac494180a89p-13,
       0x1.392f5d2a3ac72p-12, 0x1.3ac2d289dab75p-12, 0x1.3f7ac82f0de22p-12, 0x1.410e3d8eadd25p-12,
       0x1.4ce6f1cb0b5d6p-12, 0x1.5093461ec20b4p-12, 0x1.3e818761317bep-11, 0x1.3f4b42110173ep-11,
       0x1.51b497f822441p-11, 0x1.538ac221fd9afp-11, 0x1.6bb4ac808b0f4p-11, 0x1.6c7e67305b074p-11,
       0x1.9a4077b3328eap-11, 0x1.9c16a1dd0de58p-11, 0x1.aff3cc0a885e3p-11, 0x1.b0bd86ba58563p-11,
       0x1.b8a265a89ae84p-11, 0x1.ba788fd2763f2p-11, 0x1.cf1d7ac5b0a89p-11, 0x1.cfe7357580a09p-11,
       0x1.e47648e81e337p-11, 0x1.e64c7311f98a5p-11, 0x1.008fd90cb251p-10, 0x1.02134fe33c74ep-10,
       0x1.2f3add0b2f7e3p-10, 0x1.30be53e1b9a21p-10, 0x1.44acb43128bd2p-10, 0x1.46277d19aeed6p-10,
       0x1.4d686863112ep-10, 0x1.4eebdf399b51ep-10, 0x1.6f676f497acfp-10, 0x1.70eae62004f2ep-10,
       0x1.7bd965080a05dp-10, 0x1.7d5cdbde9429bp-10, 0x1.8605104466246p-10, 0x1.877fd92cec54ap-10,
       0x1.98f935b670409p-10, 0x1.9a7cac8cfa647p-10, 0x1.9c5f473f6349ep-10, 0x1.9de2be15ed6dcp-10,
       0x1.b0eb143e9c746p-10, 0x1.b26e8b1526984p-10, 0x1.c7a93e80d3a12p-10, 0x1.c924076959d16p-10,
       0x1.ca5204d2a69c2p-10, 0x1.cbd57ba930cp-10, 0x1.d66e08cfcf5afp-10, 0x1.d7e8d1b8558b3p-10,
       0x1.e367bfb646009p-10, 0x1.e4eb368cd0247p-10, 0x1.fc064b48a8bdcp-10, 0x1.fd89c21f32e1ap-10,
       0x1.251a734ce655dp-9, 0x1.25dc2eb82b67cp-9, 0x1.2b1793aeb3038p-9, 0x1.2bd4f822f61bap-9,
       0x1.4190ff9b38831p-9, 0x1.4252bb067d95p-9, 0x1.47f17530f5231p-9, 0x1.48aed9a5383b3p-9},
      13347};
  const wide_fingerprint async_golden{
      {0x1.62c558898419ap-9, 0x1.6337ddbcdf1a1p-9, 0x1.6341eeb7d920cp-9, 0x1.62f166e008eaep-9,
       0x1.63569fd83067ap-9, 0x1.631d7e0c97b6bp-9, 0x1.62d4e16e44824p-9, 0x1.6354db70f6db9p-9,
       0x1.630aea16b7806p-9, 0x1.62ddaedb5e4a4p-9, 0x1.633d9a9dd923p-9, 0x1.62f166e008eabp-9,
       0x1.633e93b985c95p-9, 0x1.62c6961e5c5a1p-9, 0x1.6341eeb7d920dp-9, 0x1.632b14f902d93p-9,
       0x1.62e24d6791e0bp-9, 0x1.630be055622abp-9, 0x1.62ce2b719dd33p-9, 0x1.62f8e80a32312p-9,
       0x1.630080587ff4ep-9, 0x1.6355175f67da1p-9, 0x1.62f166e008eabp-9, 0x1.635b192b4a31bp-9,
       0x1.62dff41bf1234p-9, 0x1.6341eeb7d920dp-9, 0x1.6302bfdf0ed5fp-9, 0x1.633e0d2628842p-9,
       0x1.62ce2b719dd31p-9, 0x1.631eb3496e094p-9, 0x1.62fb0de9b9849p-9, 0x1.631eb3496e094p-9,
       0x1.62f166e008eacp-9, 0x1.634dad31fcd37p-9, 0x1.6337ddbcdf1ap-9, 0x1.631eb3496e093p-9,
       0x1.62f66f5d85ee3p-9, 0x1.630e007c3c9a6p-9, 0x1.6314a24e74028p-9, 0x1.62ec5e628be77p-9,
       0x1.62d83c6c97d9ep-9, 0x1.6341eeb7d920ep-9, 0x1.62e24d6791e0dp-9, 0x1.62d8dfa208f75p-9,
       0x1.62c41a76a3cc5p-9, 0x1.62ce2b719dd31p-9, 0x1.6334ecafd52f6p-9, 0x1.62fb77db02f19p-9,
       0x1.632c7528f6f05p-9, 0x1.6314a24e74026p-9, 0x1.632c7ae2fae86p-9, 0x1.62e755e50ee4p-9,
       0x1.633aac6dd1348p-9, 0x1.62c931b995eacp-9, 0x1.62ce2b719dd32p-9, 0x1.62f166e008eacp-9,
       0x1.6314a24e74027p-9, 0x1.62f166e008eacp-9, 0x1.62e24d6791e0bp-9, 0x1.6341eeb7d920dp-9,
       0x1.62e755e50ee3fp-9, 0x1.62e6f1adc96f3p-9, 0x1.6328c44468101p-9, 0x1.62ec5e628be76p-9},
      10634, 27, 0x3fa575bec8fe0b53ULL,
      {0x1.ab89a0110251p-13, 0x1.aeb08ad042313p-13, 0x1.b79da958caa8dp-13, 0x1.bac494180a89p-13,
       0x1.392f5d2a3ac72p-12, 0x1.3ac2d289dab75p-12, 0x1.3f7ac82f0de22p-12, 0x1.410e3d8eadd25p-12,
       0x1.4ce6f1cb0b5d6p-12, 0x1.5093461ec20b4p-12, 0x1.3e818761317bep-11, 0x1.3f4b42110173ep-11,
       0x1.51b497f822441p-11, 0x1.538ac221fd9afp-11, 0x1.6bb4ac808b0f4p-11, 0x1.6c7e67305b074p-11,
       0x1.9a4077b3328eap-11, 0x1.9c16a1dd0de58p-11, 0x1.aff3cc0a885e3p-11, 0x1.b0bd86ba58563p-11,
       0x1.b8a265a89ae84p-11, 0x1.ba788fd2763f2p-11, 0x1.cf1d7ac5b0a89p-11, 0x1.cfe7357580a09p-11,
       0x1.e47648e81e337p-11, 0x1.e64c7311f98a5p-11, 0x1.008fd90cb251p-10, 0x1.02134fe33c74ep-10,
       0x1.2f3add0b2f7e3p-10, 0x1.30be53e1b9a21p-10, 0x1.44acb43128bd2p-10, 0x1.46277d19aeed6p-10,
       0x1.4d686863112ep-10, 0x1.4eebdf399b51ep-10, 0x1.6f676f497acfp-10, 0x1.70eae62004f2ep-10,
       0x1.7bd965080a05dp-10, 0x1.7d5cdbde9429bp-10, 0x1.8605104466246p-10, 0x1.877fd92cec54ap-10,
       0x1.98ff11b10ec12p-10, 0x1.9a82888798e5p-10, 0x1.9c46efc124e3dp-10, 0x1.9dca6697af07bp-10,
       0x1.b0eb143e9c746p-10, 0x1.b26e8b1526984p-10, 0x1.c7a93e80d3a12p-10, 0x1.c924076959d16p-10,
       0x1.ca5204d2a69c2p-10, 0x1.cbd57ba930cp-10, 0x1.d66e08cfcf5afp-10, 0x1.d7e8d1b8558b3p-10,
       0x1.e367bfb646009p-10, 0x1.e4eb368cd0247p-10, 0x1.fc0810a3c2146p-10, 0x1.fd82d98c4844ap-10,
       0x1.251818a463dfbp-9, 0x1.25d9d40fa8f1ap-9, 0x1.2b1793aeb3038p-9, 0x1.2bd4f822f61bap-9,
       0x1.4190ff9b38831p-9, 0x1.4252bb067d95p-9, 0x1.47f17530f5231p-9, 0x1.48aed9a5383b3p-9},
      13325};

  expect_golden(r, ityr::test::tiny_opts().async_release ? async_golden : sync_golden);
}

// ---------------------------------------------------------------------------
// Sparse per-job rows: a rank's row store grows with the cache traffic it
// ran, not with the number of jobs it ran.
// ---------------------------------------------------------------------------

/// A job that never touches global memory: a binary spawn tree of empty
/// leaves.
void spawn_tree(int depth) {
  if (depth == 0) return;
  ityr::parallel_invoke([=] { spawn_tree(depth - 1); }, [=] { spawn_tree(depth - 1); });
}

TEST(SparseJobRows, MemoryFreeJobsLeaveNoRows) {
  constexpr std::size_t n_jobs = 256;
  auto o = ityr::test::tiny_opts();
  o.serve = true;
  wide_cluster(o);
  ityr::runtime rt(o);
  rt.spmd([&] {
    std::vector<ityr::sched::job_spec> jobs;
    for (std::size_t j = 0; j < n_jobs; j++) jobs.push_back({"spawn", [] { spawn_tree(3); }});
    ityr::serve(std::move(jobs));
  });
  ASSERT_EQ(rt.jobs().records().size(), n_jobs);
  for (const auto& jr : rt.jobs().records()) EXPECT_TRUE(jr.done);
  EXPECT_GT(rt.sched().get_stats().steals, 0u) << "the jobs never spread across ranks";
  for (int r = 0; r < rt.eng().n_ranks(); r++) {
    EXPECT_EQ(rt.pgas().cache_of(r).job_accounting().n_rows(), 0u) << "rank " << r;
  }
  EXPECT_TRUE(rt.pgas().aggregate_job_stats().empty());
}

TEST(SparseJobRows, RowsOnlyWhereTrafficRan) {
  constexpr std::size_t n_jobs = 8, n_per_job = 2048;
  const serve_run r = run_serve(n_jobs, n_per_job, [](ityr::common::options&) {});
  EXPECT_EQ(r.final_state, serve_oracle(n_jobs, n_per_job));
  std::size_t held = 0;
  for (std::size_t rank = 0; rank < r.rank_rows.size(); rank++) {
    for (const auto& [j, row] : r.rank_rows[rank]) {
      held++;
      // cached_bytes never exceeds its peak, so the peak stands for both.
      EXPECT_GT(row.fetched_bytes + row.written_back_bytes + row.block_fetches +
                    row.cached_bytes_peak,
                0u)
          << "rank " << rank << " holds an all-zero row for job " << j;
    }
  }
  EXPECT_GT(held, 0u) << "no rank moved any cache traffic";
}

TEST(SparseJobRows, AggregateRowsMatchGolden) {
  // Four jobs over 32 KiB slices through a 4-block cache: tags, evictions
  // and peaks all move. Values pinned from the dense per-rank store this
  // one replaced. The asynchronous release protocol flushes at other
  // points, so it has its own set.
  constexpr std::size_t n_jobs = 4, n_per_job = 8192;
  const serve_run r = run_serve(n_jobs, n_per_job, [](ityr::common::options& o) {
    o.cache_size = 16 * ityr::common::KiB;
  });
  EXPECT_EQ(r.final_state, serve_oracle(n_jobs, n_per_job));
  using row = ityr::pgas::job_cache_stats;
  // fetched, written back, block fetches, cached, cached peak
  const std::vector<row> sync_rows = {
      {65536, 55296, 64, 20480, 57344},
      {32768, 32768, 32, 8192, 24576},
      {30720, 30720, 30, 20480, 20480},
      {16384, 16384, 16, 16384, 16384},
      {16384, 16384, 16, 0, 16384},
  };
  const std::vector<row> async_rows = {
      {65536, 58368, 64, 20480, 57344},
      {32768, 32768, 32, 0, 8192},
      {32768, 32768, 32, 20480, 20480},
      {16384, 16384, 16, 8192, 16384},
      {40960, 40960, 40, 16384, 32768},
  };
  const std::vector<row>& want = ityr::test::tiny_opts().async_release ? async_rows : sync_rows;
  ASSERT_EQ(r.job_cache.size(), want.size());
  for (std::size_t j = 0; j < want.size(); j++) {
    const row& got = r.job_cache[j];
    EXPECT_EQ(got.fetched_bytes, want[j].fetched_bytes) << "job " << j;
    EXPECT_EQ(got.written_back_bytes, want[j].written_back_bytes) << "job " << j;
    EXPECT_EQ(got.block_fetches, want[j].block_fetches) << "job " << j;
    EXPECT_EQ(got.cached_bytes, want[j].cached_bytes) << "job " << j;
    EXPECT_EQ(got.cached_bytes_peak, want[j].cached_bytes_peak) << "job " << j;
  }
}

}  // namespace
