#include "itoyori/core/metrics.hpp"

#include <cstdio>
#include <functional>

#include "itoyori/core/runtime.hpp"

namespace ityr {

const metric_series* metrics_snapshot::find(const std::string& name) const {
  for (const metric_series& s : series_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

const metric_histogram* metrics_snapshot::find_histogram(const std::string& name) const {
  for (const metric_histogram& h : histograms_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

metrics_snapshot metrics_snapshot::delta(const metrics_snapshot& base) const {
  metrics_snapshot out;
  for (const metric_series& s : series_) {
    metric_series d = s;
    const metric_series* b = base.find(s.name);
    if (b != nullptr) {
      const std::size_t n = std::min(d.per_rank.size(), b->per_rank.size());
      for (std::size_t i = 0; i < n; i++) d.per_rank[i] -= b->per_rank[i];
    }
    out.series_.push_back(std::move(d));
  }
  for (const metric_histogram& h : histograms_) {
    metric_histogram d = h;
    const metric_histogram* b = base.find_histogram(h.name);
    if (b != nullptr && b->hist.n_buckets() == d.hist.n_buckets()) d.hist.subtract(b->hist);
    out.histograms_.push_back(std::move(d));
  }
  // Hot-block entries are cumulative rankings and job rows are lifecycle
  // records, not counters: the newer snapshot's view passes through unchanged.
  out.hot_blocks_ = hot_blocks_;
  out.jobs_ = jobs_;
  return out;
}

namespace {

void append_escaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
}

void append_value(std::string& out, double v, bool integral) {
  char buf[64];
  if (integral) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v));
  } else {
    std::snprintf(buf, sizeof(buf), "%.9f", v);
  }
  out += buf;
}

}  // namespace

std::string metrics_snapshot::to_json() const {
  std::string out;
  out.reserve(256 + series_.size() * 128 + histograms_.size() * 256);
  const std::size_t n_ranks = series_.empty() ? 0 : series_.front().per_rank.size();
  out += "{\n\"schema\": \"itoyori.metrics.v3\",\n\"schema_version\": 3,\n\"n_ranks\": ";
  out += std::to_string(n_ranks);
  out += ",\n\"metrics\": [\n";
  for (std::size_t i = 0; i < series_.size(); i++) {
    const metric_series& s = series_[i];
    out += "  {\"name\": \"";
    append_escaped(out, s.name);
    out += "\", \"total\": ";
    append_value(out, s.total(), s.integral);
    out += ", \"per_rank\": [";
    for (std::size_t r = 0; r < s.per_rank.size(); r++) {
      if (r > 0) out += ", ";
      append_value(out, s.per_rank[r], s.integral);
    }
    out += "]}";
    out += i + 1 < series_.size() ? ",\n" : "\n";
  }
  out += "],\n\"histograms\": [\n";
  for (std::size_t i = 0; i < histograms_.size(); i++) {
    const common::log_histogram& h = histograms_[i].hist;
    out += "  {\"name\": \"";
    append_escaped(out, histograms_[i].name);
    out += "\", \"count\": ";
    append_value(out, static_cast<double>(h.count()), true);
    out += ", \"min_value\": ";
    append_value(out, h.min_value(), false);
    out += ", \"p50\": ";
    append_value(out, h.percentile(50), false);
    out += ", \"p90\": ";
    append_value(out, h.percentile(90), false);
    out += ", \"p99\": ";
    append_value(out, h.percentile(99), false);
    out += ", \"buckets\": [";
    bool first = true;
    // Sparse encoding: [index, count] pairs of the nonzero buckets only
    // (512-bucket geometries would otherwise dominate the file).
    for (std::size_t b = 0; b < h.n_buckets(); b++) {
      if (h.bucket_count(b) == 0) continue;
      if (!first) out += ", ";
      first = false;
      out += '[';
      out += std::to_string(b);
      out += ", ";
      out += std::to_string(h.bucket_count(b));
      out += ']';
    }
    out += "]}";
    out += i + 1 < histograms_.size() ? ",\n" : "\n";
  }
  out += "]";
  // Only present when ITYR_SERVE admitted jobs, so single-job files stay
  // byte-identical to pre-serving ones (bar the schema version).
  if (!jobs_.empty()) {
    out += ",\n\"jobs\": [\n";
    for (std::size_t i = 0; i < jobs_.size(); i++) {
      const metric_job_row& j = jobs_[i];
      out += "  {\"name\": \"";
      append_escaped(out, j.name);
      out += "\", \"id\": " + std::to_string(j.id);
      out += ", \"done\": ";
      out += j.done ? "true" : "false";
      const auto field = [&](const char* k, double v, bool integral) {
        out += ", \"";
        out += k;
        out += "\": ";
        append_value(out, v, integral);
      };
      field("t_admit_s", j.t_admit_s, false);
      field("t_start_s", j.t_start_s, false);
      field("t_complete_s", j.t_complete_s, false);
      field("latency_s", j.latency_s, false);
      field("busy_s", j.busy_s, false);
      field("span_s", j.span_s, false);
      field("fetched_bytes", static_cast<double>(j.fetched_bytes), true);
      field("written_back_bytes", static_cast<double>(j.written_back_bytes), true);
      field("block_fetches", static_cast<double>(j.block_fetches), true);
      field("cached_bytes_peak", static_cast<double>(j.cached_bytes_peak), true);
      out += "}";
      out += i + 1 < jobs_.size() ? ",\n" : "\n";
    }
    out += "]";
  }
  // Only present when ITYR_HOT_BLOCKS_TOPN produced entries, so files written
  // with placement off stay byte-identical to pre-placement ones.
  if (!hot_blocks_.empty()) {
    out += ",\n\"hot_blocks\": [\n";
    for (std::size_t i = 0; i < hot_blocks_.size(); i++) {
      const metric_hot_block& hb = hot_blocks_[i];
      out += "  {\"name\": \"";
      append_escaped(out, hb.name);
      out += "\", \"owner\": " + std::to_string(hb.owner);
      // Hex string, not a number: a wide mask would lose bits past 2^53 in a
      // double, and string leaves are ignored by tools/stats_diff anyway.
      char mask[32];
      std::snprintf(mask, sizeof(mask), "0x%llx",
                    static_cast<unsigned long long>(hb.reader_mask));
      out += ", \"reader_mask\": \"" + std::string(mask) + "\"";
      out += ", \"fetch_bytes\": " + std::to_string(hb.fetch_bytes);
      out += ", \"writeback_bytes\": " + std::to_string(hb.writeback_bytes);
      out += "}";
      out += i + 1 < hot_blocks_.size() ? ",\n" : "\n";
    }
    out += "]";
  }
  out += "\n}\n";
  return out;
}

bool metrics_snapshot::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "ityr: cannot open stats output '%s'\n", path.c_str());
    return false;
  }
  const std::string json = to_json();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
  std::fclose(f);
  if (!ok) std::fprintf(stderr, "ityr: short write on stats output '%s'\n", path.c_str());
  return ok;
}

metrics_snapshot collect_metrics(runtime& rt) {
  const int n = rt.eng().n_ranks();
  metrics_snapshot snap;

  const auto add = [&](const char* name, bool integral,
                       const std::function<double(int)>& value_of) {
    std::vector<double> v(static_cast<std::size_t>(n));
    for (int r = 0; r < n; r++) v[static_cast<std::size_t>(r)] = value_of(r);
    snap.add(name, integral, std::move(v));
  };
  const auto u64 = [](std::uint64_t v) { return static_cast<double>(v); };

  // --- software cache (pgas::cache_system::stats) ---
  const auto cst = [&](int r) -> const pgas::cache_system::stats& {
    return rt.pgas().cache_of(r).get_stats();
  };
  add("cache.checkouts", true, [&](int r) { return u64(cst(r).checkouts); });
  add("cache.checkins", true, [&](int r) { return u64(cst(r).checkins); });
  add("cache.block_visits", true, [&](int r) { return u64(cst(r).block_visits); });
  add("cache.block_hits", true, [&](int r) { return u64(cst(r).block_hits); });
  add("cache.block_misses", true, [&](int r) { return u64(cst(r).block_misses); });
  add("cache.write_skips", true, [&](int r) { return u64(cst(r).write_skips); });
  add("cache.fast_path_hits", true, [&](int r) { return u64(cst(r).fast_path_hits); });
  add("cache.front_table_conflicts", true,
      [&](int r) { return u64(cst(r).front_table_conflicts); });
  add("cache.coalesced_messages", true, [&](int r) { return u64(cst(r).coalesced_messages); });
  add("cache.fetched_bytes", true, [&](int r) { return u64(cst(r).fetched_bytes); });
  add("cache.written_back_bytes", true, [&](int r) { return u64(cst(r).written_back_bytes); });
  add("cache.write_through_bytes", true, [&](int r) { return u64(cst(r).write_through_bytes); });
  add("cache.cache_evictions", true, [&](int r) { return u64(cst(r).cache_evictions); });
  add("cache.home_evictions", true, [&](int r) { return u64(cst(r).home_evictions); });
  add("cache.releases", true, [&](int r) { return u64(cst(r).releases); });
  add("cache.acquires", true, [&](int r) { return u64(cst(r).acquires); });
  add("cache.lazy_release_waits", true, [&](int r) { return u64(cst(r).lazy_release_waits); });
  add("cache.prefetch_issued", true, [&](int r) { return u64(cst(r).prefetch_issued); });
  add("cache.prefetch_issued_bytes", true,
      [&](int r) { return u64(cst(r).prefetch_issued_bytes); });
  add("cache.prefetch_useful_bytes", true,
      [&](int r) { return u64(cst(r).prefetch_useful_bytes); });
  add("cache.prefetch_wasted_bytes", true,
      [&](int r) { return u64(cst(r).prefetch_wasted_bytes); });
  add("cache.prefetch_late", true, [&](int r) { return u64(cst(r).prefetch_late); });
  add("cache.fetch_stall_s", false, [&](int r) { return cst(r).fetch_stall_s; });
  // Stall time split by topology distance class (per-class entries sum to
  // the total above; classes past the topology's depth are always zero).
  const int n_stall_cls =
      std::min(rt.rma().net().n_classes(), pgas::cache_stats::max_stall_classes);
  for (int c = 0; c < n_stall_cls; c++) {
    add(("cache.fetch_stall.class" + std::to_string(c) + "_s").c_str(), false,
        [&](int r) { return cst(r).fetch_stall_class_s[c]; });
  }
  add("cache.releases_noop", true, [&](int r) { return u64(cst(r).releases_noop); });
  add("cache.async_wb_rounds", true, [&](int r) { return u64(cst(r).async_wb_rounds); });
  add("cache.idle_flush_bytes", true, [&](int r) { return u64(cst(r).idle_flush_bytes); });
  add("cache.epochs_in_flight", true, [&](int r) { return u64(cst(r).epochs_in_flight); });
  add("cache.release_stall_s", false, [&](int r) { return cst(r).release_stall_s; });
  for (int c = 0; c < n_stall_cls; c++) {
    add(("cache.release_stall.class" + std::to_string(c) + "_s").c_str(), false,
        [&](int r) { return cst(r).release_stall_class_s[c]; });
  }

  // --- work-stealing scheduler (sched::scheduler::stats) ---
  const auto sst = [&](int r) -> const sched::scheduler::stats& {
    return rt.sched().stats_of(r);
  };
  add("sched.forks", true, [&](int r) { return u64(sst(r).forks); });
  add("sched.serialized_joins", true, [&](int r) { return u64(sst(r).serialized_joins); });
  add("sched.steal_attempts", true, [&](int r) { return u64(sst(r).steal_attempts); });
  add("sched.steals", true, [&](int r) { return u64(sst(r).steals); });
  add("sched.intra_node_steals", true, [&](int r) { return u64(sst(r).intra_node_steals); });
  add("sched.local_pops", true, [&](int r) { return u64(sst(r).local_pops); });
  add("sched.join_suspends", true, [&](int r) { return u64(sst(r).join_suspends); });
  add("sched.migrations", true, [&](int r) { return u64(sst(r).migrations); });
  add("sched.migrated_stack_bytes", true,
      [&](int r) { return u64(sst(r).migrated_stack_bytes); });
  // Steal-protocol detail (always-on observability): inter-node stack
  // bytes, failed-probe time and the probes per distance class.
  add("sched.steal.inter_stack_bytes", true,
      [&](int r) { return u64(sst(r).inter_steal_bytes); });
  add("sched.steal.failed_probe_s", false, [&](int r) { return sst(r).failed_probe_s; });
  // Probes that were certain to miss and landed in the resume that issued
  // them; each one is a resume that engine.resumes no longer counts.
  add("sched.steal.missed_in_place", true, [&](int r) { return u64(sst(r).missed_in_place); });
  const int n_probe_cls =
      std::min(rt.rma().net().n_classes(), sched::cp_max_classes);
  for (int c = 0; c < n_probe_cls; c++) {
    add(("sched.steal.probes.class" + std::to_string(c)).c_str(), true,
        [&](int r) { return u64(sst(r).steal_probes_class[c]); });
  }

  // --- network, split by locality (intra-node shared memory vs interconnect) ---
  const auto& net = rt.rma().net();
  add("net.messages.intra", true, [&](int r) { return u64(net.intra_messages_of(r)); });
  add("net.messages.inter", true, [&](int r) { return u64(net.inter_messages_of(r)); });
  add("net.bytes.intra", true, [&](int r) { return u64(net.intra_bytes_of(r)); });
  add("net.bytes.inter", true, [&](int r) { return u64(net.inter_bytes_of(r)); });

  // --- network, split by topology distance class (class 0 == intra-node;
  //     under ITYR_TOPOLOGY=flat, class 1 == the inter series above) ---
  for (int c = 0; c < net.n_classes(); c++) {
    const std::string base = "net.class" + std::to_string(c);
    add((base + ".messages").c_str(), true,
        [&](int r) { return u64(net.class_messages_of(r, c)); });
    add((base + ".bytes").c_str(), true, [&](int r) { return u64(net.class_bytes_of(r, c)); });
  }

  // --- virtual-memory view (mapping-entry ledger, paper Section 4.3.2) ---
  const auto view = [&](int r) -> const vm::view_region& { return rt.pgas().cache_of(r).view(); };
  add("vm.map_calls", true, [&](int r) { return u64(view(r).map_calls()); });
  add("vm.mapped_runs", true, [&](int r) { return u64(view(r).mapped_runs()); });
  add("vm.mapped_bytes", true, [&](int r) { return u64(view(r).mapped_bytes()); });
  add("vm.map_entry_estimate", true, [&](int r) { return u64(view(r).map_entry_estimate()); });

  // --- DES engine ---
  add("engine.resumes", true, [&](int r) { return u64(rt.eng().resumes_of(r)); });
  add("engine.inline_resumes", true, [&](int r) { return u64(rt.eng().inline_resumes_of(r)); });
  add("engine.clock_s", false, [&](int r) { return rt.eng().clock_of(r); });

  // --- ULT fiber pool (cluster-global in the single-threaded simulator, so
  //     the counters are attributed to rank 0) ---
  const auto& pool = rt.eng().pool_stats();
  const auto at0 = [&](std::uint64_t v) {
    return [&, v](int r) { return r == 0 ? static_cast<double>(v) : 0.0; };
  };
  add("engine.fiber_pool_high_water", true, at0(pool.high_water()));
  add("engine.fiber_pool_created", true, at0(pool.created()));
  add("engine.fiber_pool_reused", true, at0(pool.reused()));
  add("engine.fiber_pool_dropped", true, at0(pool.dropped()));

  // --- busy/idle/steal phase timeline (Table 2 / Fig. 9 source of truth) ---
  const auto& tl = rt.sched().timeline();
  add("timeline.busy_s", false, [&](int r) { return tl.busy_of(r); });
  add("timeline.steal_s", false, [&](int r) { return tl.steal_of(r); });
  add("timeline.idle_s", false, [&](int r) { return tl.idle_of(r); });

  // --- nested-scope profiler (Fig. 9 categories) ---
  for (std::size_t e = 0; e < common::n_prof_events; e++) {
    const auto ev = static_cast<common::prof_event>(e);
    const std::string base = std::string("prof.") + common::to_string(ev);
    add((base + ".self_s").c_str(), false,
        [&](int r) { return rt.prof().accumulated(r, ev); });
    add((base + ".count").c_str(), true, [&](int r) { return u64(rt.prof().count_of(r, ev)); });
    add((base + ".max_s").c_str(), false,
        [&](int r) { return rt.prof().max_duration_of(r, ev); });
  }

  // --- tracer health (tools/trace_lint warns when nonzero) ---
  add("trace.dropped_events", true, [&](int r) { return u64(rt.trace().dropped(r)); });

  // --- cluster-wide histograms (every rank records into one per metric) ---
  snap.add_histogram("hist.task_exec_s", rt.sched().task_hist());
  snap.add_histogram("hist.steal_latency_s", rt.sched().steal_hist());
  snap.add_histogram("hist.steal_fail_s", rt.sched().steal_fail_hist());
  snap.add_histogram("hist.fence_s", rt.sched().fence_hist());
  snap.add_histogram("hist.rma_msg_bytes", net.msg_hist());

  // --- online critical-path profiler (ITYR_CRITPATH; docs/observability.md).
  //     Whole-run scalars, attributed to rank 0 like the fiber-pool counters.
  if (rt.sched().critpath_enabled()) {
    const auto d_at0 = [&](double v) {
      return [v](int r) { return r == 0 ? v : 0.0; };
    };
    const double work = rt.sched().cp_work();
    const sched::cp_path& span = rt.sched().cp_span();
    const double span_s = span.total();
    add("critpath.work_s", false, d_at0(work));
    add("critpath.span_s", false, d_at0(span_s));
    add("critpath.parallelism", false, d_at0(span_s > 0 ? work / span_s : 0.0));
    for (int b = 0; b < sched::n_cp_buckets; b++) {
      const auto k = static_cast<sched::cp_bucket>(b);
      add((std::string("critpath.span.") + sched::to_string(k) + "_s").c_str(), false,
          d_at0(span.of(k)));
    }
    const int n_cp_cls = std::min(rt.rma().net().n_classes(), sched::cp_max_classes);
    for (int c = 0; c < n_cp_cls; c++) {
      add(("critpath.net.class" + std::to_string(c) + "_s").c_str(), false, d_at0(span.net[c]));
    }
    // What-if projection: replay the recorded path with all inter-node
    // (class >= 1) network latency zeroed; class 0 is shared memory and
    // stays. "How much faster if the network were free."
    const double net_free = std::max(span_s - span.net_inter(), 0.0);
    add("critpath.whatif.network_free_span_s", false, d_at0(net_free));
    add("critpath.whatif.network_free_speedup", false,
        d_at0(net_free > 0 ? span_s / net_free : 1.0));
    // Steal-mechanics projection: span with the steal_wait bucket zeroed
    // ("how much faster if steals were free"), plus the cluster-wide time
    // burned on failed probes — the idle-loop waste the steal overhaul
    // targets, surfaced next to the span share it competes with.
    const double steal_free =
        std::max(span_s - span.of(sched::cp_bucket::steal_wait), 0.0);
    add("critpath.whatif.steal_free_span_s", false, d_at0(steal_free));
    add("critpath.whatif.steal_free_speedup", false,
        d_at0(steal_free > 0 ? span_s / steal_free : 1.0));
    double failed_probe_total = 0;
    for (int r = 0; r < n; r++) failed_probe_total += sst(r).failed_probe_s;
    add("critpath.whatif.failed_probe_total_s", false, d_at0(failed_probe_total));
  }

  // --- dynamic data placement (ITYR_MIGRATION / ITYR_REPLICATION /
  //     ITYR_HOT_BLOCKS_TOPN; docs/internals.md). The series exist only when
  //     the engine does, so the off-path stats JSON is unchanged. ---
  if (pgas::placement_engine* pl = rt.pgas().placement(); pl != nullptr) {
    add("pgas.forward_retries", true, [&](int r) { return u64(cst(r).forward_retries); });
    add("pgas.replica_fetch_bytes", true,
        [&](int r) { return u64(cst(r).replica_fetch_bytes); });
    // The engine is a cluster-global directory service; its counters are
    // attributed to rank 0 like the fiber-pool ones.
    const pgas::placement_stats& pst = pl->stats();
    add("pgas.placement_passes", true, at0(pst.passes));
    add("pgas.migrations", true, at0(pst.migrations));
    add("pgas.migration_bytes", true, at0(pst.migration_bytes));
    add("pgas.replicas", true, at0(pst.replicas));
    add("pgas.replica_bytes", true, at0(pst.replica_bytes));
    add("pgas.replica_invalidations", true, at0(pst.replica_invalidations));
    add("pgas.migrations_skipped", true, at0(pst.migrations_skipped));
    add("pgas.pool_full_skips", true, at0(pst.pool_full_skips));
    add("pgas.purged_blocks", true, at0(pst.purged_blocks));
    // Inter-node bytes a replica hit avoided, split by the distance class the
    // fetch would otherwise have crossed (class 0 is always zero: same-node
    // homes never involved a replica in the first place).
    for (int c = 0; c < n_stall_cls; c++) {
      add(("pgas.bytes_saved.class" + std::to_string(c)).c_str(), true,
          [&](int r) { return u64(pl->bytes_saved_of(r, c)); });
    }
    for (const pgas::hot_block& hb : pl->hottest(pl->hot_blocks_topn())) {
      snap.add_hot_block({"block" + std::to_string(hb.mb_id), hb.owner, hb.reader_mask,
                          hb.fetch_bytes, hb.writeback_bytes});
    }
  }

  // --- multi-job serving (ITYR_SERVE; docs/internals.md "Multi-job
  //     serving"). Series exist only when jobs were admitted, so the
  //     single-job stats JSON is unchanged. ---
  if (const auto& jrecs = rt.jobs().records(); !jrecs.empty()) {
    const auto d_at0 = [&](double v) {
      return [v](int r) { return r == 0 ? v : 0.0; };
    };
    std::size_t n_done = 0;
    for (const sched::job_record& jr : jrecs) n_done += jr.done ? 1 : 0;
    add("sched.job.admitted", true, at0(jrecs.size()));
    add("sched.job.completed", true, at0(n_done));
    add("sched.job.jobs_per_s", false, d_at0(rt.jobs().jobs_per_s()));
    add("sched.job.latency_p50_s", false, d_at0(rt.jobs().latency_quantile(0.50)));
    add("sched.job.latency_p99_s", false, d_at0(rt.jobs().latency_quantile(0.99)));
    add("sched.job.fairness_mid_claims", true,
        [&](int r) { return u64(sst(r).fairness_mid_claims); });
    add("sched.job.fairness_redirects", true,
        [&](int r) { return u64(sst(r).fairness_redirects); });
    snap.add_histogram("hist.job_latency_s", rt.jobs().latency_hist());

    const std::vector<pgas::job_cache_stats> jcache = rt.pgas().aggregate_job_stats();
    for (const sched::job_record& jr : jrecs) {
      metric_job_row row;
      row.name = "job" + std::to_string(jr.id) + ":" + jr.name;
      row.id = jr.id;
      row.done = jr.done;
      row.t_admit_s = jr.t_admit;
      row.t_start_s = jr.t_start;
      row.t_complete_s = jr.t_complete;
      row.latency_s = jr.done ? jr.latency() : 0.0;
      row.busy_s = jr.busy_s;
      row.span_s = jr.span_s;
      if (jr.id < jcache.size()) {
        const pgas::job_cache_stats& jc = jcache[jr.id];
        row.fetched_bytes = jc.fetched_bytes;
        row.written_back_bytes = jc.written_back_bytes;
        row.block_fetches = jc.block_fetches;
        row.cached_bytes_peak = jc.cached_bytes_peak;
      }
      snap.add_job(std::move(row));
    }
  }

  return snap;
}

}  // namespace ityr
