#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "itoyori/common/error.hpp"
#include "itoyori/common/job.hpp"

namespace ityr::common {

/// Per-rank virtual-time event tracer dumping Chrome/Perfetto trace_events
/// JSON (the "observability layer" counterpart of the nested-scope
/// profiler: the profiler aggregates, the tracer keeps the timeline).
///
/// Model: one trace "process" per simulated node, one "thread" per rank.
/// Timestamps are virtual seconds from the DES clock (dumped as
/// microseconds, the unit Perfetto expects). Event kinds mirror the
/// trace_events phases:
///
///  * span_begin/span_end ("B"/"E") — nested duration slices (checkout,
///    release, steal, serial kernels, busy phases, ...),
///  * instant ("i") — point events (evictions, write-back rounds),
///  * flow ("s"/"f") — cross-rank arrows pairing thief and victim of a
///    steal, or issue and completion of an RMA message,
///  * counter ("C") — sampled counter time-series (ITYR_METRICS_SAMPLE_INTERVAL).
///
/// Storage is one bounded ring buffer per rank (`cap` events; oldest events
/// are evicted first and counted in dropped()). Buffers grow lazily, so a
/// large cap costs nothing until events actually arrive. The dump repairs
/// eviction damage: span-end events whose begin was evicted are skipped and
/// spans still open at dump time are closed at their rank's last timestamp,
/// so the emitted JSON always has balanced B/E pairs.
///
/// Event names must be string literals (or otherwise outlive the tracer);
/// they are stored by pointer.
///
/// Determinism: with options::deterministic set, all timestamps derive from
/// the virtual clock, so the same seed and configuration produce a
/// byte-identical dump.
class tracer {
public:
  /// Events per rank retained in the ring buffer; caps outside
  /// [min_cap, max_cap] (e.g. a malformed ITYR_TRACE_CAP read as 0 or as
  /// 2^64-1) are clamped.
  static constexpr std::size_t min_cap = 16;
  static constexpr std::size_t max_cap = std::size_t{1} << 26;

  void configure(int n_ranks, int ranks_per_node, std::size_t cap_per_rank);

  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  // ---- event recording (rank and virtual time injected by the caller) ----
  void span_begin(int rank, double t, const char* name) {
    if (!enabled_) return;
    push(rank, {event_kind::begin, t, name, 0, 0.0});
  }
  void span_end(int rank, double t, const char* name) {
    if (!enabled_) return;
    push(rank, {event_kind::end, t, name, 0, 0.0});
  }
  /// `job` > 0 annotates the event with its job id ("args":{"job":N});
  /// 0 (the default) emits the historic unannotated form byte-identically.
  /// Job lifecycle instants ("job admit"/"job start"/"job complete") use
  /// this, and validate_trace_json checks that every job-annotated event
  /// nests inside its job's admit->complete window.
  void instant(int rank, double t, const char* name, job_id_t job = no_job) {
    if (!enabled_) return;
    push(rank, {event_kind::instant, t, name, 0, 0.0, job});
  }
  /// Record a cross-rank flow arrow: start on src_rank at t_src, finish on
  /// dst_rank at t_dst (>= t_src). Returns the flow id used for pairing.
  /// `job` > 0 annotates both halves with the job id (steal flows carry the
  /// claimed continuation's job in serving mode).
  std::uint64_t flow(int src_rank, double t_src, int dst_rank, double t_dst, const char* name,
                     job_id_t job = no_job) {
    if (!enabled_) return 0;
    const std::uint64_t id = ++flow_id_;
    push(src_rank, {event_kind::flow_start, t_src, name, id, 0.0, job});
    push(dst_rank, {event_kind::flow_finish, t_dst, name, id, 0.0, job});
    return id;
  }
  void counter(int rank, double t, const char* name, double value) {
    if (!enabled_) return;
    push(rank, {event_kind::counter, t, name, 0, value});
  }

  // ---- periodic counter sampling (ITYR_METRICS_SAMPLE_INTERVAL) ----
  /// interval <= 0 (including malformed env values parsed as 0) disables
  /// sampling. The sampler callback is expected to emit counter() events.
  void set_sample_interval(double seconds) { sample_interval_ = seconds; }
  double sample_interval() const { return sample_interval_; }
  void set_sampler(std::function<void(int rank, double now)> fn) { sampler_ = std::move(fn); }

  /// Cheap poll hook (called from the scheduler's poll points): fires the
  /// sampler for `rank` at most once per sample interval of virtual time.
  void poll_sample(int rank, double now) {
    if (!enabled_ || sample_interval_ <= 0 || !sampler_) return;
    auto& next = next_sample_[static_cast<std::size_t>(rank)];
    if (now < next) return;
    next = now + sample_interval_;
    sampler_(rank, now);
  }

  // ---- introspection ----
  int n_ranks() const { return static_cast<int>(rings_.size()); }
  std::size_t n_events(int rank) const { return rings_[static_cast<std::size_t>(rank)].n; }
  std::size_t total_events() const;
  std::uint64_t dropped(int rank) const { return rings_[static_cast<std::size_t>(rank)].dropped; }
  std::uint64_t total_dropped() const;
  void clear();

  // ---- dump ----
  /// Chrome trace_events JSON ({"traceEvents": [...]}); open the file in
  /// https://ui.perfetto.dev or chrome://tracing.
  std::string to_json() const;
  /// Write to_json() to `path`; returns false (with a stderr note) on I/O
  /// failure.
  bool write_json(const std::string& path) const;

private:
  enum class event_kind : std::uint8_t { begin, end, instant, flow_start, flow_finish, counter };

  struct event {
    event_kind k;
    double t;              ///< virtual seconds
    const char* name;      ///< static string
    std::uint64_t id;      ///< flow pairing id
    double value;          ///< counter value
    job_id_t job = no_job; ///< > 0: event belongs to this serving-mode job
  };

  struct ring {
    std::vector<event> buf;  ///< grows lazily up to cap
    std::size_t head = 0;    ///< oldest event once full
    std::size_t n = 0;
    std::uint64_t dropped = 0;
  };

  void push(int rank, event e) {
    ring& r = rings_[static_cast<std::size_t>(rank)];
    if (r.n < cap_) {
      r.buf.push_back(e);
      r.n++;
    } else {
      r.buf[r.head] = e;
      r.head = (r.head + 1) % cap_;
      r.dropped++;
    }
  }

  bool enabled_ = false;
  int ranks_per_node_ = 1;
  std::size_t cap_ = std::size_t{1} << 20;
  std::vector<ring> rings_;
  std::vector<double> next_sample_;
  std::uint64_t flow_id_ = 0;
  double sample_interval_ = 0;
  std::function<void(int, double)> sampler_;
};

/// Result of validate_trace_json(). `ok` iff the text parses as JSON, has a
/// traceEvents array, every per-(pid,tid) track has balanced and properly
/// nested B/E pairs with non-decreasing timestamps, and every flow id has
/// both its "s" and "f" half.
struct trace_check_result {
  bool ok = false;
  std::string error;           ///< first violation, empty when ok
  std::size_t n_events = 0;    ///< total traceEvents entries (incl. metadata)
  std::size_t n_spans = 0;     ///< completed B/E pairs
  std::size_t n_flows = 0;     ///< paired flows
  std::size_t n_counters = 0;  ///< counter samples
  // Prefetch lifecycle (tools/trace_lint checks that, in a complete trace,
  // every "prefetch" issue flow is terminated by exactly one consume-or-evict
  // instant: n_prefetch_flows == n_prefetch_consumes + n_prefetch_evicts).
  std::size_t n_prefetch_flows = 0;     ///< "prefetch" flow-start events
  std::size_t n_prefetch_consumes = 0;  ///< "prefetch consume" instants
  std::size_t n_prefetch_evicts = 0;    ///< "prefetch evict" instants
  // Async-release lifecycle (tools/trace_lint checks that, in a complete
  // trace, every "Write Back (async)" span is terminated by exactly one
  // "writeback" completion flow, and the generic finish>=start flow check
  // guarantees no "wb acquire" lands before the releaser's ready_at).
  std::size_t n_wb_async_spans = 0;     ///< completed "Write Back (async)" spans
  std::size_t n_writeback_flows = 0;    ///< "writeback" flow-start events
  std::size_t n_wb_acquire_flows = 0;   ///< "wb acquire" flow-start events
  std::size_t n_steal_flows = 0;        ///< "steal" flow-start events
  // Job lifecycle (multi-job serving): every job id seen in a "job start" /
  // "job complete" instant or a job-annotated span/flow must have a "job
  // admit" instant, and every job-annotated event's timestamp must nest
  // inside its job's admit->complete window (tools/trace_lint's serving
  // mode additionally requires at least one admitted job).
  std::size_t n_job_admits = 0;     ///< "job admit" instants
  std::size_t n_job_starts = 0;     ///< "job start" instants
  std::size_t n_job_completes = 0;  ///< "job complete" instants
  std::size_t n_job_annotated = 0;  ///< events carrying a "job" annotation
  std::uint64_t dropped_events = 0;     ///< root "dropped_events" (ring eviction)
};

/// Minimal in-tree checker for Chrome trace JSON (no external dependencies);
/// shared by the trace_lint ctest and the unit tests.
trace_check_result validate_trace_json(const std::string& json_text);

/// Per-rank busy/steal/idle accounting over virtual time: the single source
/// of truth for the idleness metric (paper Table 2) and the capacity term of
/// the Fig. 9 breakdown. The scheduler drives it for fork-join regions; the
/// static (MPI-style) baselines drive it directly from SPMD code.
///
/// Ranks transition between three phases inside a region bracketed by
/// begin_region()/end_region(); time not spent busy or stealing is idle.
/// When a tracer is attached and enabled, busy phases are additionally
/// emitted as "Busy" trace spans.
class phase_timeline {
public:
  enum class phase : std::uint8_t { idle = 0, busy = 1, steal = 2 };

  void configure(int n_ranks) { ranks_.assign(static_cast<std::size_t>(n_ranks), {}); }
  void set_tracer(tracer* t) { trace_ = t; }

  /// Start (or restart) this rank's measurement region: accumulators reset,
  /// phase starts as idle.
  void begin_region(int rank, double now) {
    per_rank& r = ranks_[static_cast<std::size_t>(rank)];
    close_phase(rank, r, now);
    r = {};
    r.start = r.since = r.end = now;
    r.open = true;
  }

  /// Transition this rank to `p`; no-op if already in `p`.
  void enter(int rank, phase p, double now) {
    per_rank& r = ranks_[static_cast<std::size_t>(rank)];
    if (!r.open || r.cur == p) return;
    account(rank, r, now);
    r.cur = p;
    if (p == phase::busy && trace_ != nullptr) trace_->span_begin(rank, now, "Busy");
  }

  /// Close the region: the current phase is accounted up to `now`.
  void end_region(int rank, double now) {
    per_rank& r = ranks_[static_cast<std::size_t>(rank)];
    close_phase(rank, r, now);
    r.end = now;
  }

  double busy_of(int rank) const { return ranks_[static_cast<std::size_t>(rank)].busy; }
  double steal_of(int rank) const { return ranks_[static_cast<std::size_t>(rank)].steal; }
  double idle_of(int rank) const { return ranks_[static_cast<std::size_t>(rank)].idle; }

  double total_busy() const;
  double total_steal() const;
  double total_idle() const;

  /// Region makespan: max end over ranks minus min start.
  double makespan() const;

  /// Paper Table 2: 1 - sum(busy) / (n_ranks * makespan).
  double idleness() const;

private:
  struct per_rank {
    double busy = 0, steal = 0, idle = 0;
    double start = 0, end = 0, since = 0;
    phase cur = phase::idle;
    bool open = false;
  };

  void account(int rank, per_rank& r, double now) {
    // Transitions must move forward in virtual time: a phase can only be
    // closed at or after the instant it was entered. A violation means a
    // caller fed a stale `now` (e.g. cached before a yield) and the
    // busy/steal/idle split is garbage from here on.
    ITYR_CHECK(now >= r.since);
    const double dt = now - r.since;
    if (dt > 0) {
      if (r.cur == phase::busy) {
        r.busy += dt;
      } else if (r.cur == phase::steal) {
        r.steal += dt;
      } else {
        r.idle += dt;
      }
    }
    if (r.cur == phase::busy && trace_ != nullptr) trace_->span_end(rank, now, "Busy");
    r.since = now;
  }

  void close_phase(int rank, per_rank& r, double now) {
    if (!r.open) return;
    account(rank, r, now);
    r.cur = phase::idle;
    r.open = false;
  }

  tracer* trace_ = nullptr;
  std::vector<per_rank> ranks_;
};

}  // namespace ityr::common
