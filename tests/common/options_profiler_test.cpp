#include <gtest/gtest.h>

#include <string>

#include "../support/scoped_env.hpp"
#include "itoyori/common/error.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/profiler.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/fetch_engine.hpp"

namespace ic = ityr::common;
using ityr::test::scoped_env;

TEST(Options, DefaultsAreSane) {
  ic::options o;
  EXPECT_EQ(o.n_ranks(), o.n_nodes * o.ranks_per_node);
  EXPECT_GT(o.block_size, 0u);
  EXPECT_EQ(o.block_size % o.sub_block_size, 0u);
  EXPECT_GE(o.cache_size, o.block_size);
  EXPECT_EQ(o.policy, ic::cache_policy::write_back_lazy);
  // Every optional feature is off by default.
  EXPECT_FALSE(o.prefetch);
  EXPECT_FALSE(o.async_release);
  EXPECT_FALSE(o.migration);
  EXPECT_FALSE(o.replication);
  EXPECT_EQ(o.hot_blocks_topn, 0u);
  EXPECT_FALSE(o.serve);
  EXPECT_EQ(o.steal_fairness, ic::steal_fairness_kind::off);
  EXPECT_FALSE(o.critpath);
  EXPECT_TRUE(o.trace_path.empty());
  EXPECT_TRUE(o.stats_json_path.empty());
  EXPECT_GT(o.trace_cap, 0u);  // ready for when tracing is turned on
  EXPECT_GT(o.metrics_sample_interval, 0.0);
}

TEST(Options, ObservabilityEnvRoundTrip) {
  scoped_env env;
  env.set("ITYR_TRACE", "/tmp/out.json");
  env.set("ITYR_TRACE_CAP", "4096");
  env.set("ITYR_STATS_JSON", "/tmp/stats.json");
  env.set("ITYR_METRICS_SAMPLE_INTERVAL", "0.0025");
  auto o = ic::options::from_env();
  EXPECT_EQ(o.trace_path, "/tmp/out.json");
  EXPECT_EQ(o.trace_cap, 4096u);
  EXPECT_EQ(o.stats_json_path, "/tmp/stats.json");
  EXPECT_DOUBLE_EQ(o.metrics_sample_interval, 0.0025);
}

TEST(Options, ObservabilityEnvDefaults) {
  scoped_env env;
  env.unset("ITYR_TRACE");
  env.unset("ITYR_TRACE_CAP");
  env.unset("ITYR_STATS_JSON");
  env.unset("ITYR_METRICS_SAMPLE_INTERVAL");
  auto o = ic::options::from_env();
  EXPECT_TRUE(o.trace_path.empty());  // tracing off by default
  EXPECT_TRUE(o.stats_json_path.empty());
  EXPECT_GT(o.trace_cap, 0u);
  EXPECT_GT(o.metrics_sample_interval, 0.0);
}

namespace {

/// from_env() must reject `value` with an error that names the variable.
void expect_env_rejected(const char* name, const char* value) {
  scoped_env e(name, value);
  try {
    (void)ic::options::from_env();
    ADD_FAILURE() << name << "=" << value << " was accepted";
  } catch (const ic::error& err) {
    EXPECT_NE(std::string(err.what()).find(name), std::string::npos) << err.what();
  }
}

}  // namespace

TEST(Options, MalformedEnvValuesThrow) {
  // A value must parse whole. Read leniently, these would configure
  // something else silently: a 16-byte cache, a zero network latency, seed
  // 2^64-1, deterministic mode off, and 2^32+2 nodes truncated to 2.
  expect_env_rejected("ITYR_CACHE_SIZE", "16MiB");
  expect_env_rejected("ITYR_NET_INTER_LATENCY", "fast");
  expect_env_rejected("ITYR_SEED", "-1");
  expect_env_rejected("ITYR_DETERMINISTIC", "yes");
  expect_env_rejected("ITYR_N_NODES", "4294967298");
  expect_env_rejected("ITYR_N_NODES", "3 ");
  {
    scoped_env e("ITYR_DETERMINISTIC", "false");
    EXPECT_FALSE(ic::options::from_env().deterministic);
  }
  {
    scoped_env e("ITYR_SEED", "0x10");
    EXPECT_EQ(ic::options::from_env().seed, 16u);
  }
  {
    scoped_env e("ITYR_CACHE_SIZE", "");  // empty still means unset
    EXPECT_EQ(ic::options::from_env().cache_size, ic::options{}.cache_size);
  }
}

TEST(Options, MalformedObservabilityEnvThrows) {
  expect_env_rejected("ITYR_TRACE_CAP", "1e6");
  expect_env_rejected("ITYR_TRACE_CAP", "not-a-number");
  expect_env_rejected("ITYR_METRICS_SAMPLE_INTERVAL", "bogus");

  // Set programmatically, a 0 cap is clamped to min_cap and a 0 sample
  // interval disables sampling.
  ic::tracer t;
  t.configure(1, 1, 0);
  t.set_enabled(true);
  t.set_sample_interval(0.0);
  int fired = 0;
  t.set_sampler([&](int, double) { fired++; });
  for (int i = 0; i < 100; i++) {
    t.instant(0, i * 1.0, "x");
    t.poll_sample(0, i * 1.0);
  }
  EXPECT_EQ(t.n_events(0), ic::tracer::min_cap);  // clamped, ring intact
  EXPECT_EQ(fired, 0);                            // sampling disabled
}

TEST(Options, PrefetchEnvRoundTrip) {
  scoped_env env;
  env.set("ITYR_PREFETCH", "1");
  EXPECT_TRUE(ic::options::from_env().prefetch);
  env.set("ITYR_PREFETCH", "true");
  EXPECT_TRUE(ic::options::from_env().prefetch);
  env.set("ITYR_PREFETCH", "0");
  EXPECT_FALSE(ic::options::from_env().prefetch);
}

TEST(Options, PrefetchEnvDefaults) {
  scoped_env env;
  env.unset("ITYR_PREFETCH");
  EXPECT_FALSE(ic::options::from_env().prefetch);  // strictly additive: off by default
  // Turned on, the prefetcher runs at the engine's own depth and in-flight
  // byte cap; no knob sets them.
  const ityr::pgas::fetch_engine::config cfg;
  EXPECT_GT(cfg.prefetch_depth, 0u);
  EXPECT_GT(cfg.prefetch_max_inflight, 0u);
}

TEST(Options, MalformedPrefetchEnvThrows) {
  expect_env_rejected("ITYR_PREFETCH", "maybe");
  expect_env_rejected("ITYR_PREFETCH", "2");
}

TEST(Options, BadPolicyStringThrows) {
  EXPECT_THROW(ic::cache_policy_from_string("bogus"), ic::api_error);
}

TEST(Options, EvictionPolicyEnvRoundTrip) {
  scoped_env env;
  env.unset("ITYR_EVICTION_POLICY");
  EXPECT_EQ(ic::options::from_env().eviction, ic::eviction_kind::lru);  // default
  env.set("ITYR_EVICTION_POLICY", "clock");
  EXPECT_EQ(ic::options::from_env().eviction, ic::eviction_kind::clock);
  env.set("ITYR_EVICTION_POLICY", "lru");
  EXPECT_EQ(ic::options::from_env().eviction, ic::eviction_kind::lru);
  env.set("ITYR_EVICTION_POLICY", "fifo");
  EXPECT_THROW(ic::options::from_env(), ic::api_error);
  env.unset("ITYR_EVICTION_POLICY");
  for (auto k : {ic::eviction_kind::lru, ic::eviction_kind::clock}) {
    EXPECT_EQ(ic::eviction_kind_from_string(ic::to_string(k)), k);
  }
}

TEST(Options, CacheGeometryValidation) {
  // Direct checks: power-of-two block and sub-block, block page-aligned,
  // sub <= block.
  ic::validate_cache_geometry(4096, 1024);  // must not throw
  ic::validate_cache_geometry(8192, 8192);
  EXPECT_THROW(ic::validate_cache_geometry(3000, 1024), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(0, 1024), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(4096, 1000), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(4096, 0), ic::error);
  EXPECT_THROW(ic::validate_cache_geometry(1024, 4096), ic::error);  // sub > block
  EXPECT_THROW(ic::validate_cache_geometry(64, 64), ic::error);      // below page size
  // The error message names the offending knob so a bad env override is
  // diagnosable from the exception alone.
  try {
    ic::validate_cache_geometry(3000, 1024);
    FAIL() << "expected ic::error";
  } catch (const ic::error& e) {
    EXPECT_NE(std::string(e.what()).find("ITYR_BLOCK_SIZE"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("3000"), std::string::npos);
  }
}

TEST(Options, BadCacheGeometryEnvThrows) {
  scoped_env env;
  env.set("ITYR_BLOCK_SIZE", "3000");
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_BLOCK_SIZE", "4096");
  env.set("ITYR_SUB_BLOCK_SIZE", "8192");  // sub > block
  EXPECT_THROW(ic::options::from_env(), ic::error);
  env.set("ITYR_SUB_BLOCK_SIZE", "256");
  EXPECT_EQ(ic::options::from_env().block_size, 4096u);  // valid pair passes
}

TEST(Options, PolicyRoundTrip) {
  for (auto p : {ic::cache_policy::none, ic::cache_policy::write_through,
                 ic::cache_policy::write_back, ic::cache_policy::write_back_lazy}) {
    EXPECT_EQ(ic::cache_policy_from_string(ic::to_string(p)), p);
  }
}

namespace {

/// Profiler harness with a hand-cranked clock.
struct prof_fixture {
  double now = 0;
  int rank = 0;
  ic::profiler prof;

  prof_fixture() {
    prof.configure(
        2, [this] { return now; }, [this] { return rank; });
    prof.set_enabled(true);
  }
};

}  // namespace

TEST(Profiler, SimpleScopeAttribution) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(0, ic::prof_event::checkout), 5);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(1, ic::prof_event::checkout), 0);
}

TEST(Profiler, NestedScopesAreExclusive) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // t=0
  f.now = 1;
  f.prof.begin(ic::prof_event::get);  // nested
  f.now = 4;
  f.prof.end(ic::prof_event::get);  // get self = 3
  f.now = 6;
  f.prof.end(ic::prof_event::checkout);  // checkout self = 6 - 3 = 3
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::get), 3);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::checkout), 3);
  EXPECT_DOUBLE_EQ(f.prof.total_all_events(), 6);
}

TEST(Profiler, SiblingScopesAccumulate) {
  prof_fixture f;
  for (int i = 0; i < 3; i++) {
    f.prof.begin(ic::prof_event::release);
    f.now += 2;
    f.prof.end(ic::prof_event::release);
    f.now += 1;  // unattributed gap
  }
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::release), 6);
}

TEST(Profiler, PerRankSeparation) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::steal);
  f.now = 2;
  f.prof.end(ic::prof_event::steal);
  f.rank = 1;
  f.prof.begin(ic::prof_event::steal);
  f.now = 7;
  f.prof.end(ic::prof_event::steal);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(0, ic::prof_event::steal), 2);
  EXPECT_DOUBLE_EQ(f.prof.accumulated(1, ic::prof_event::steal), 5);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::steal), 7);
}

TEST(Profiler, DisabledProfilerIsFree) {
  prof_fixture f;
  f.prof.set_enabled(false);
  f.prof.begin(ic::prof_event::acquire);
  f.now = 100;
  f.prof.end(ic::prof_event::acquire);
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::acquire), 0);
}

TEST(Profiler, ResetClearsAccumulators) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkin);
  f.now = 3;
  f.prof.end(ic::prof_event::checkin);
  f.prof.reset();
  EXPECT_DOUBLE_EQ(f.prof.total_all_events(), 0);
}

TEST(Profiler, MaybeScopeWithNull) {
  // Must be safe and a no-op with a null profiler.
  { ic::profiler::maybe_scope sc(nullptr, ic::prof_event::get); }
  SUCCEED();
}

TEST(Profiler, CountsAndMaxDuration) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::get);
  f.now = 2;
  f.prof.end(ic::prof_event::get);  // duration 2
  f.prof.begin(ic::prof_event::get);
  f.now = 7;
  f.prof.end(ic::prof_event::get);  // duration 5
  EXPECT_EQ(f.prof.count_of(0, ic::prof_event::get), 2u);
  EXPECT_EQ(f.prof.total_count(ic::prof_event::get), 2u);
  EXPECT_DOUBLE_EQ(f.prof.max_duration_of(0, ic::prof_event::get), 5);
  EXPECT_DOUBLE_EQ(f.prof.max_duration(ic::prof_event::get), 5);
}

TEST(Profiler, MaxDurationIsInclusive) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // t=0
  f.now = 1;
  f.prof.begin(ic::prof_event::get);
  f.now = 4;
  f.prof.end(ic::prof_event::get);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  // Self time of checkout is 2, but max duration reports the inclusive 5.
  EXPECT_DOUBLE_EQ(f.prof.total(ic::prof_event::checkout), 2);
  EXPECT_DOUBLE_EQ(f.prof.max_duration(ic::prof_event::checkout), 5);
}

TEST(Profiler, ConfigureOnLiveProfilerThrows) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);  // open scope -> live
  EXPECT_THROW(f.prof.configure(
                   2, [] { return 0.0; }, [] { return 0; }),
               ic::api_error);
  f.now = 1;
  f.prof.end(ic::prof_event::checkout);  // closed scope, but data accumulated
  EXPECT_THROW(f.prof.configure(
                   2, [] { return 0.0; }, [] { return 0; }),
               ic::api_error);
  f.prof.reset();  // scopes closed and data cleared -> reconfigure is fine
  f.prof.configure(
      2, [] { return 0.0; }, [] { return 0; });
  SUCCEED();
}

TEST(ProfilerDeathTest, AggregateReadWithOpenScopeDies) {
  prof_fixture f;
  f.prof.begin(ic::prof_event::checkout);
  // Aggregate accessors assert that every per-rank scope stack is empty; a
  // read mid-scope would silently under-report.
  EXPECT_DEATH((void)f.prof.total(ic::prof_event::checkout), "check failed");
  EXPECT_DEATH((void)f.prof.total_all_events(), "check failed");
}

TEST(Profiler, TracerMakesDisabledProfilerActive) {
  // An attached, enabled tracer turns scope begin/end into trace spans even
  // with stats accumulation disabled.
  prof_fixture f;
  f.prof.set_enabled(false);
  ic::tracer t;
  t.configure(2, 2, 1 << 10);
  t.set_enabled(true);
  f.prof.set_tracer(&t);
  EXPECT_TRUE(f.prof.active());

  f.prof.begin(ic::prof_event::checkout);
  f.now = 5;
  f.prof.end(ic::prof_event::checkout);
  const auto r = ic::validate_trace_json(t.to_json());
  EXPECT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.n_spans, 1u);
}
