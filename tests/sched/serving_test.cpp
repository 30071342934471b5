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
