#include "itoyori/sched/scheduler.hpp"

#include <algorithm>

namespace ityr::sched {

scheduler::scheduler(sim::engine& eng, pgas::pgas_space& pgas) : eng_(eng), pgas_(pgas) {
  const auto& opt = eng_.opts();
  // Covers programmatically built options; from_env() already validated its
  // own result.
  common::validate_serving(opt.serve, opt.serve_arrival_rate, opt.serve_jobs);
  ranks_.resize(static_cast<std::size_t>(eng_.n_ranks()));
  timeline_.configure(eng_.n_ranks());
  cp_on_ = opt.critpath;
  serve_on_ = opt.serve;
  // Fairness is a serving-mode refinement: with a single job every entry
  // carries the same tag, so job_weighted would degenerate to front-claiming
  // anyway — gating it on serve keeps the off path free of the occupancy scan.
  fairness_on_ = opt.serve && opt.steal_fairness == common::steal_fairness_kind::job_weighted;
}

scheduler::stats scheduler::get_stats() const {
  stats agg;
  for (const auto& rs : ranks_) {
    agg.forks += rs.st.forks;
    agg.serialized_joins += rs.st.serialized_joins;
    agg.steal_attempts += rs.st.steal_attempts;
    agg.steals += rs.st.steals;
    agg.intra_node_steals += rs.st.intra_node_steals;
    agg.local_pops += rs.st.local_pops;
    agg.join_suspends += rs.st.join_suspends;
    agg.migrations += rs.st.migrations;
    agg.migrated_stack_bytes += rs.st.migrated_stack_bytes;
    agg.inter_steal_bytes += rs.st.inter_steal_bytes;
    agg.fairness_mid_claims += rs.st.fairness_mid_claims;
    agg.fairness_redirects += rs.st.fairness_redirects;
    agg.failed_probe_s += rs.st.failed_probe_s;
    agg.missed_in_place += rs.st.missed_in_place;
    for (int c = 0; c < cp_max_classes; c++) {
      agg.steal_probes_class[c] += rs.st.steal_probes_class[c];
    }
  }
  return agg;
}

thread_state* scheduler::acquire_ts() {
  if (!ts_pool_.empty()) {
    thread_state* ts = ts_pool_.back();
    ts_pool_.pop_back();
    ts->reset(cp_on_);
    return ts;
  }
  ts_storage_.push_back(std::make_unique<thread_state>());
  thread_state* ts = ts_storage_.back().get();
  ts->sched = this;
  return ts;
}

void scheduler::release_ts(thread_state* ts) { ts_pool_.push_back(ts); }

void scheduler::charge_ts_touch(const thread_state* ts) {
  // Reading/updating a join descriptor that lives on another rank is a
  // small one-sided operation.
  if (ts->owner_rank != eng_.my_rank()) {
    eng_.advance(eng_.opts().net.inter_latency);
  }
}

// ---------------------------------------------------------------------------
// online critical-path profiler (ITYR_CRITPATH)
// ---------------------------------------------------------------------------
// A segment is one uninterrupted strand run on one rank. Buckets come from
// differencing this rank's stall counters across the segment, so attribution
// never charges the virtual clock: with ITYR_CRITPATH=0 the run is
// bit-identical (the cross-mode differential test pins this down).

void scheduler::cp_open(cp_frame* f) {
  if (!cp_on_) return;
  cp_rank_state& c = self().cp;
  ITYR_CHECK(c.cur == nullptr);
  const pgas::cache_stats& st = pgas_.cache().get_stats();
  c.cur = f;
  c.t0 = eng_.now_precise();
  c.acq_s = 0;
  c.fetch_base = st.fetch_stall_s;
  c.release_base = st.release_stall_s;
  for (int k = 0; k < cp_max_classes; k++) {
    c.fetch_cls_base[k] = st.fetch_stall_class_s[k];
    c.release_cls_base[k] = st.release_stall_class_s[k];
  }
}

cp_frame* scheduler::cp_close() {
  if (!cp_on_) return nullptr;
  cp_rank_state& c = self().cp;
  cp_frame* f = c.cur;
  ITYR_CHECK(f != nullptr);
  c.cur = nullptr;
  const pgas::cache_stats& st = pgas_.cache().get_stats();
  const double elapsed = eng_.now_precise() - c.t0;
  const double df = st.fetch_stall_s - c.fetch_base;
  const double dr = st.release_stall_s - c.release_base;
  // Everything the segment did not observably stall on counts as compute
  // (clamped: stall counters advance in committed time, the segment edges in
  // precise time, so tiny negatives can appear in non-deterministic mode).
  const double comp = std::max(0.0, elapsed - df - dr - c.acq_s);
  f->span.b[static_cast<int>(cp_bucket::compute)] += comp;
  f->span.b[static_cast<int>(cp_bucket::fetch_stall)] += df;
  f->span.b[static_cast<int>(cp_bucket::release_stall)] += dr;
  f->span.b[static_cast<int>(cp_bucket::acquire_fence)] += c.acq_s;
  for (int k = 0; k < cp_max_classes; k++) {
    f->span.net[k] += (st.fetch_stall_class_s[k] - c.fetch_cls_base[k]) +
                      (st.release_stall_class_s[k] - c.release_cls_base[k]);
  }
  f->work += elapsed;
  f->self_s += elapsed;
  return f;
}

void scheduler::cp_resume(cp_frame* f, bool taken_over) {
  if (!cp_on_) return;
  cp_rank_state& c = self().cp;
  if (taken_over && c.steal_cls >= 0) {
    // The continuation reached this rank through a steal: its modelled
    // mechanics (probe + CAS + descriptor fetch + migration + Acquire #2)
    // burden the resumed path. Deque residence time is NOT charged — a
    // 1-rank run's child executions would otherwise masquerade as span.
    f->span.b[static_cast<int>(cp_bucket::steal_wait)] += c.steal_cost;
    f->span.net[c.steal_cls] += c.steal_cost;
    c.steal_cls = -1;
    c.steal_cost = 0;
  }
  cp_open(f);
}

void scheduler::cp_on_join(cp_frame* p, thread_state* ts) {
  if (!cp_on_) return;
  p->work += ts->cp.work;
  // Candidate path through the child: the parent's span at fork (the shared
  // prefix) plus the child's own span. Keep whichever full path is longer,
  // with its bucket/class decomposition intact.
  cp_path cand = ts->cp.base;
  cand.add(ts->cp.span);
  if (cand.total() > p->span.total()) p->span = cand;
}

void scheduler::busy_begin() {
  timeline_.enter(eng_.my_rank(), common::phase_timeline::phase::busy, eng_.now_precise());
  if (serve_on_) self().busy_since = eng_.now_precise();
}

void scheduler::busy_end() {
  timeline_.enter(eng_.my_rank(), common::phase_timeline::phase::idle, eng_.now_precise());
  if (serve_on_) {
    rank_state& rs = self();
    if (rs.cur_job != common::no_job && rs.busy_since >= 0) {
      if (rs.cur_job >= job_busy_.size()) job_busy_.resize(rs.cur_job + 1, 0.0);
      job_busy_[rs.cur_job] += eng_.now_precise() - rs.busy_since;
    }
    rs.busy_since = -1;
  }
}

void scheduler::set_cur_job(common::job_id_t job) {
  if (!serve_on_) return;
  rank_state& rs = self();
  if (rs.cur_job == job) return;
  const double now = eng_.now_precise();
  if (rs.busy_since >= 0) {
    if (rs.cur_job != common::no_job) {
      if (rs.cur_job >= job_busy_.size()) job_busy_.resize(rs.cur_job + 1, 0.0);
      job_busy_[rs.cur_job] += now - rs.busy_since;
    }
    rs.busy_since = now;
  }
  rs.cur_job = job;
  // Cache-traffic attribution follows the running job (per-job fetch /
  // write-back / capacity accounting in the coherence stack).
  pgas_.cache().set_current_job(job);
}

void scheduler::reap() {
  rank_state& rs = self();
  for (sim::fiber* f : rs.dead) eng_.free_fiber(f);
  rs.dead.clear();
}

scheduler::resume_kind scheduler::consume_note() {
  rank_state& rs = self();
  const resume_kind k = rs.note;
  ITYR_CHECK(k != resume_kind::none);
  rs.note = resume_kind::none;
  return k;
}

void scheduler::poll() {
  // The scheduler's poll points double as the periodic-sampling heartbeat
  // for counter time-series in the trace.
  if (trace_ != nullptr) trace_->poll_sample(eng_.my_rank(), eng_.now_precise());
  // Time spent here is (almost entirely) thief-requested delayed write-backs
  // (Release #1 executed lazily, Section 5.2).
  common::profiler::maybe_scope sc(prof_, common::prof_event::release_lazy);
  pgas_.poll();
}

// ---------------------------------------------------------------------------
// fork
// ---------------------------------------------------------------------------

thread_handle scheduler::fork(std::function<void(thread_state*)> child_fn) {
  // Default: the child belongs to whatever job the forking task runs under
  // (no_job outside serving mode), so tags propagate down every subtree.
  return fork_tagged(std::move(child_fn), serve_on_ ? self().cur_job : common::no_job);
}

thread_handle scheduler::fork_tagged(std::function<void(thread_state*)> child_fn,
                                     common::job_id_t job) {
  ITYR_CHECK(active_);
  // Checked-out regions must be checked in before any point where the
  // thread can migrate (paper Section 3.3) — fork is such a point.
  ITYR_CHECK(pgas_.cache().checked_out_bytes() == 0 ||
             !"fork while global memory is checked out");
  rank_state& rs = self();
  rs.st.forks++;
  poll();  // DoReleaseIfRequested is polled at every fork (Section 5.2)
  // Commit this task's measured compute to the virtual clock and give other
  // ranks a chance to interleave (steal) at this fork point. This is both
  // the fork's modelled overhead and the DES's concurrency granularity.
  eng_.yield();

  thread_state* ts = acquire_ts();
  ts->owner_rank = eng_.my_rank();
  ts->job = job;
  // The parent's job survives migration on this fiber's stack: after the
  // continuation resumes (possibly on another rank, possibly after running a
  // differently-tagged child), the rank's current job must be the parent's.
  const common::job_id_t parent_job = serve_on_ ? rs.cur_job : common::no_job;

  // Release #1 (paper Fig. 5/6). Its execution depends on the policy:
  //  * write_back_lazy — deferred: a handler rides along with the stealable
  //    continuation and the write-back happens only if a thief requests it;
  //  * write_back      — eager: all dirty data is flushed at *every* fork,
  //    which is exactly what makes it expensive for fine-grained tasks
  //    (the Fig. 7 comparison);
  //  * write_through / none — no dirty data can exist; nothing to release.
  pgas::release_handler rh{};
  const auto policy = eng_.opts().policy;
  if (policy == common::cache_policy::write_back_lazy) {
    rh = pgas_.release_lazy();
  } else if (policy == common::cache_policy::write_back) {
    common::profiler::maybe_scope sc(prof_, common::prof_event::release);
    pgas_.release();
  }

  const std::uint64_t serial = ++serial_counter_;
  sim::fiber* parent_fib = eng_.current_fiber();

  ts->fn = std::move(child_fn);
  ts->parent_serial = serial;
  sim::fiber* child_fib = eng_.spawn_fiber(&scheduler::child_entry, ts);

  // Critical path: the parent's segment ends at the fork point; the child's
  // path shares the parent's span so far as its prefix. (parent_frame lives
  // on this fiber's stack, so it survives migration with the continuation.)
  cp_frame* parent_frame = nullptr;
  if (cp_on_) {
    parent_frame = cp_close();
    ts->cp.base = parent_frame->span;
  }

  rs.deque.push_back({parent_fib, rh, serial, parent_job});
  occ_add(parent_job, +1);
  // Child-first: run the child immediately; the parent's continuation is now
  // stealable. Acquire #3 is skipped because the child starts on this rank.
  eng_.switch_to(child_fib);

  // --- the parent continuation resumes here, on some rank ---
  reap();
  set_cur_job(parent_job);
  const resume_kind k = consume_note();
  cp_resume(parent_frame, k == resume_kind::taken_over);
  if (k == resume_kind::child_done) {
    self().st.serialized_joins++;
    return {ts, true};
  }
  ITYR_CHECK(k == resume_kind::taken_over);
  return {ts, false};
}

void scheduler::child_entry(void* ctx) {
  auto* ts = static_cast<thread_state*>(ctx);
  ts->sched->child_body(ts);
}

void scheduler::child_body(thread_state* ts) {
  set_cur_job(ts->job);
  cp_open(&ts->cp);
  try {
    ts->fn(ts);
  } catch (...) {
    ts->error = std::current_exception();
  }
  // Every path below can let the parent join, so the closure dies first.
  ts->fn = nullptr;

  rank_state& rs = self();
  if (!rs.deque.empty() && rs.deque.back().serial == ts->parent_serial) {
    // Fast path: the parent was not stolen. The child was effectively a
    // serialized function call; skip all fences (work-first principle).
    cont_entry e = rs.deque.back();
    rs.deque.pop_back();
    occ_add(e.job, -1);
    ts->finished = true;
    rs.note = resume_kind::child_done;
    if (cp_on_) {
      cp_close();
      hist_task_.record(ts->cp.self_s);
    }
    rs.dead.push_back(eng_.current_fiber());
    eng_.exit_to(e.fib);
  }

  // Slow path: the parent's continuation was stolen (or locally resumed by
  // the worker loop after we blocked at some inner join). Publish our
  // updates (Release #2) before signalling completion.
  {
    common::profiler::maybe_scope sc(prof_, common::prof_event::release);
    const double f0 = eng_.now_precise();
    pgas_.release();
    hist_fence_.record(eng_.now_precise() - f0);
  }
  // Async release: the Release #2 round above was only *issued*; tell the
  // joiner when it becomes visible (0 in synchronous mode).
  ts->release_watermark = pgas_.cache().visibility_watermark();
  charge_ts_touch(ts);
  ts->finished = true;
  if (cp_on_) {
    // The child's strand ends here; the migration advance below (if any)
    // belongs to the *parent's* resumed path and is priced into no segment.
    cp_close();
    hist_task_.record(ts->cp.self_s);
  }

  if (ts->parent_waiting) {
    // The parent suspended at join; the last finisher resumes it here
    // (possibly migrating it to this rank).
    sim::fiber* pf = ts->parent_fiber;
    if (ts->parent_wait_rank != eng_.my_rank()) {
      rs.st.migrations++;
      rs.st.migrated_stack_bytes += modelled_stack_bytes;
      // Migration cost is priced by the distance class between the parent's
      // wait rank and here (flat topology reproduces the old intra/inter
      // split exactly).
      eng_.advance(eng_.topo().latency(ts->parent_wait_rank, eng_.my_rank()) +
                   static_cast<double>(modelled_stack_bytes) /
                       eng_.topo().bandwidth(ts->parent_wait_rank, eng_.my_rank()));
    }
    rs.note = resume_kind::join_done;
    rs.dead.push_back(eng_.current_fiber());
    eng_.exit_to(pf);
  }

  // Parent will discover ts->finished at its join; return to the worker.
  rank_state& rs2 = self();
  rs2.dead.push_back(eng_.current_fiber());
  eng_.exit_to(rs2.sched_fiber);
}

// ---------------------------------------------------------------------------
// join
// ---------------------------------------------------------------------------

void scheduler::join(thread_handle& h) {
  ITYR_CHECK(h.ts != nullptr);
  ITYR_CHECK(pgas_.cache().checked_out_bytes() == 0 ||
             !"join while global memory is checked out");
  thread_state* ts = h.ts;

  if (h.serialized) {
    // Fast path: child already completed on this rank with no steal in
    // between; its effects are in our cache. No fences (Section 5.1).
    if (cp_on_) {
      // Split the segment at the join so the span comparison sees the
      // parent's up-to-date path (in a deterministic serial chain the split
      // segment is exactly empty, preserving span == work to the bit).
      cp_frame* f = cp_close();
      cp_on_join(f, ts);
      cp_open(f);
    }
    if (ts->error) {
      auto err = ts->error;
      recycle(h);
      std::rethrow_exception(err);
    }
    return;
  }

  poll();

  // The parent was stolen at fork: the join is a real synchronization.
  // Release #3 first (it yields; afterwards the finished-check plus suspend
  // runs without yielding, so no wakeup can be lost).
  {
    common::profiler::maybe_scope sc(prof_, common::prof_event::release);
    const double f0 = eng_.now_precise();
    pgas_.release();
    hist_fence_.record(eng_.now_precise() - f0);
  }
  charge_ts_touch(ts);

  if (!ts->finished) {
    rank_state& rs = self();
    rs.st.join_suspends++;
    ts->parent_waiting = true;
    ts->parent_fiber = eng_.current_fiber();
    ts->parent_wait_rank = eng_.my_rank();
    // Stack local: the joiner's own job, restored after a resume that may
    // land on another rank whose current job is the finishing child's.
    const common::job_id_t my_job = serve_on_ ? rs.cur_job : common::no_job;
    cp_frame* self_frame = cp_close();  // segment ends at the suspension
    busy_end();
    eng_.switch_to(rs.sched_fiber);
    // Resumed by the finishing child (maybe on another rank).
    busy_begin();
    set_cur_job(my_job);
    reap();
    const resume_kind k = consume_note();
    ITYR_CHECK(k == resume_kind::join_done);
    // Blocked-at-join time is the child's execution, not path length; the
    // resumed segment starts fresh here (join_done carries no steal note).
    cp_resume(self_frame, /*taken_over=*/false);
  }

  // Acquire #1: observe the child's (and our own released) writes. The
  // child's Release #2 may still be in flight under async release; its
  // stamped watermark tells us how long (no-op when 0).
  {
    common::profiler::maybe_scope sc(prof_, common::prof_event::acquire);
    const double f0 = eng_.now_precise();
    pgas_.acquire_watermark(ts->release_watermark);
    const double d = eng_.now_precise() - f0;
    hist_fence_.record(d);
    if (cp_on_) self().cp.acq_s += d;
  }

  if (cp_on_) {
    cp_frame* f = cp_close();
    cp_on_join(f, ts);
    cp_open(f);
  }

  if (ts->error) {
    auto err = ts->error;
    recycle(h);
    std::rethrow_exception(err);
  }
}

void scheduler::recycle(thread_handle& h) {
  ITYR_CHECK(h.ts != nullptr);
  release_ts(h.ts);
  h.ts = nullptr;
}

// ---------------------------------------------------------------------------
// worker loop & stealing
// ---------------------------------------------------------------------------

void scheduler::note_steal_fail(rank_state& rs, double t0) {
  // hist_steal_ only sees successes; this is the always-on record of what
  // the idle loop burned on empty/raced probes (stats only — no clock).
  const double d = eng_.now_precise() - t0;
  rs.st.failed_probe_s += d;
  hist_steal_fail_.record(d);
}

void scheduler::occ_add(common::job_id_t job, int delta) {
  if (!fairness_on_) return;
  const auto j = static_cast<std::size_t>(job);
  if (j >= job_occ_.size()) job_occ_.resize(j + 1, 0);
  if (delta < 0) {
    ITYR_CHECK(job_occ_[j] > 0);
    job_occ_[j]--;
  } else {
    job_occ_[j] += static_cast<std::uint64_t>(delta);
  }
}

bool scheduler::fair_underserved_here(const rank_state& vs) const {
  // A job is under-served when its cluster-wide deque occupancy is at or
  // below the average over live jobs; a skewed board (one deep subtree
  // flooding the deques) pushes every hog strictly above the average, so
  // its entries stop qualifying while the starved jobs' few entries do.
  std::uint64_t total = 0;
  std::uint64_t live = 0;
  for (const std::uint64_t c : job_occ_) {
    total += c;
    live += (c > 0) ? 1 : 0;
  }
  if (live <= 1) return true;
  for (const cont_entry& ce : vs.deque) {
    if (job_occ_[ce.job] * live <= total) return true;
  }
  return false;
}

void scheduler::issue_probe(rank_state& rs) {
  // Victim selection: uniformly random over the other ranks (paper
  // Section 2.1).
  const int me = eng_.my_rank();
  const auto others = static_cast<std::uint64_t>(eng_.n_ranks() - 1);
  const int v = static_cast<int>(eng_.rng().below(others));
  const int victim = v >= me ? v + 1 : v;
  rs.st.steal_attempts++;
  rs.st.steal_probes_class[std::min(eng_.topo().class_of(me, victim), cp_max_classes - 1)]++;
  // Probe the victim's deque bounds: one small one-sided read.
  rs.worker.victim = victim;
  rs.worker.dt = eng_.topo().latency(me, victim);
}

bool scheduler::miss_in_place(rank_state& rs) {
  const int victim = rs.worker.victim;
  if (!ranks_[static_cast<std::size_t>(victim)].deque.empty()) return false;
  if (!eng_.wait_in_place(rs.worker.dt, victim)) return false;
  rs.st.missed_in_place++;
  return true;
}

bool scheduler::begin_steal(rank_state& rs) {
  if (eng_.n_ranks() == 1) return false;
  worker_state& ws = rs.worker;
  // The steal scope spans the whole round, across the waits of its probes,
  // so it is opened and closed by hand rather than by a maybe_scope.
  ws.scoped = prof_ != nullptr && prof_->active();
  if (ws.scoped) prof_->begin(common::prof_event::steal);
  ws.t0 = eng_.now_precise();  // steal-latency histogram start
  ws.probes = 0;
  issue_probe(rs);
  return true;
}

void scheduler::end_steal(rank_state& rs) {
  if (rs.worker.scoped) prof_->end(common::prof_event::steal);
  rs.worker.scoped = false;
}

bool scheduler::claim_steal(rank_state& rs, cont_entry& out) {
  const auto& opt = eng_.opts();
  const int me = eng_.my_rank();
  const int victim = rs.worker.victim;
  const double t0 = rs.worker.t0;
  rank_state& vs = ranks_[static_cast<std::size_t>(victim)];

  const bool same_node = eng_.same_node(me, victim);
  // Steal traffic is priced by the (me, victim) distance class: on a fat
  // tree, stealing across the core costs measurably more than within a leaf
  // switch.
  const double latency = eng_.topo().latency(me, victim);
  const double bandwidth = eng_.topo().bandwidth(me, victim);

  // CAS to claim the top entry (fully one-sided steal; the victim's CPU is
  // not involved). The round trip yields, so the entry may be gone or
  // claimed by another thief when we land: re-check.
  pgas_.cache().poll();
  eng_.advance(opt.net.atomic_latency);
  if (vs.deque.empty()) {
    note_steal_fail(rs, t0);
    end_steal(rs);
    return false;
  }

  // Steal fairness (ITYR_STEAL_FAIRNESS=job_weighted, serving mode): instead
  // of blindly claiming the victim's front entry, claim the front-most entry
  // of the job that is most under-served CLUSTER-WIDE (fewest live deque
  // entries anywhere), so one job's deep subtree cannot monopolize every
  // probe that lands on its host. The victim's per-job occupancy and the
  // aggregated totals piggyback on the bounds read already paid for above
  // (victims publish a small per-job count array next to the deque bounds),
  // so the scan costs no extra modelled traffic. Ties break toward the
  // smaller job id; with a single job (or fairness off) the front entry wins
  // and the claim is bit-identical to the unfair path.
  std::size_t claim_at = 0;
  if (fairness_on_ && vs.deque.size() > 1) {
    common::job_id_t pick = vs.deque[0].job;
    std::uint64_t pick_occ = job_occ_[pick];
    for (const cont_entry& ce : vs.deque) {
      const std::uint64_t o = job_occ_[ce.job];
      if (o < pick_occ || (o == pick_occ && ce.job < pick)) {
        pick = ce.job;
        pick_occ = o;
      }
    }
    while (vs.deque[claim_at].job != pick) claim_at++;
    if (claim_at > 0) rs.st.fairness_mid_claims++;
  }

  cont_entry e = vs.deque[claim_at];
  vs.deque.erase(vs.deque.begin() + static_cast<std::ptrdiff_t>(claim_at));
  occ_add(e.job, -1);
  rs.st.steals++;
  if (same_node) rs.st.intra_node_steals++;
  const double t_claim = eng_.now_precise();  // victim-side claim (CAS landed)

  // Fetch the continuation descriptor and migrate the thread stack.
  rs.st.migrations++;
  rs.st.migrated_stack_bytes += modelled_stack_bytes;
  if (!same_node) rs.st.inter_steal_bytes += modelled_stack_bytes;
  eng_.advance(latency + static_cast<double>(modelled_stack_bytes) / bandwidth);

  // Acquire #2: synchronize with the victim's delayed Release #1, plus any
  // async rounds the victim had already issued when it pushed the entry
  // (the lazy handler only covers data that was still dirty at the fork).
  // Every entry on a deque was pushed by that deque's own rank, so the
  // entry's one handler covers the steal. Reading the victim's current
  // watermark piggybacks on the one-sided steal traffic above; it is
  // conservative — at least the push-time value.
  {
    common::profiler::maybe_scope sc(prof_, common::prof_event::acquire);
    const double f0 = eng_.now_precise();
    pgas_.acquire(e.rh);
    pgas_.cache().wait_visibility(pgas_.cache_of(victim).visibility_watermark());
    hist_fence_.record(eng_.now_precise() - f0);
  }
  // Thief<-victim pairing as a trace flow arrow: starts where the entry was
  // claimed on the victim's track, lands when the migrated task is runnable.
  if (trace_ != nullptr) trace_->flow(victim, t_claim, me, eng_.now_precise(), "steal", e.job);
  const double steal_cost = eng_.now_precise() - t0;
  hist_steal_.record(steal_cost);
  if (cp_on_) {
    // Pending note for the taken_over resume: the steal's modelled mechanics
    // burden the stolen continuation's path, classed by thief<->victim
    // distance (intra-node steals land in net[0], which what-if keeps). The
    // note is consumed by the very next resume — the stolen entry `e`.
    rs.cp.steal_cls = std::min(eng_.topo().class_of(me, victim), cp_max_classes - 1);
    rs.cp.steal_cost = steal_cost;
  }
  end_steal(rs);
  out = e;
  return true;
}

void scheduler::run_continuation(rank_state& rs, const cont_entry& e) {
  rs.note = resume_kind::taken_over;
  set_cur_job(e.job);
  busy_begin();
  eng_.switch_to(e.fib);
  busy_end();
  rs.worker.failed_rounds = 0;
  rs.worker.phase = worker_phase::top;
}

scheduler::worker_action scheduler::worker_step(rank_state& rs) {
  worker_state& ws = rs.worker;
  for (;;) {
    switch (ws.phase) {
      case worker_phase::top:
        if (done_) return worker_action::stop;
        reap();
        // A clean rank owes no release (see worker_loop), so this poll
        // never advances the clock, which a parked step may not do.
        poll();
        // Our own bottom-most continuation is ready work (its child blocked
        // or completed elsewhere).
        if (!rs.deque.empty()) return worker_action::run_local;
        timeline_.enter(eng_.my_rank(), common::phase_timeline::phase::steal, eng_.now_precise());
        if (begin_steal(rs)) {
          ws.phase = worker_phase::probe;
          if (!miss_in_place(rs)) return worker_action::wait;
        } else {
          ws.phase = worker_phase::missed;
        }
        break;
      case worker_phase::probe: {
        // Job-weighted fairness (ITYR_STEAL_FAIRNESS, serving mode) turns
        // the round into a short hunt: a probe that finds only well-served
        // jobs' entries is released — the unfair crowd will drain it anyway
        // — and the round re-draws, up to kFairnessProbes bounds reads,
        // looking for a deque holding an under-served job's entry. With one
        // live job every deque qualifies on the first probe, so fairness
        // costs nothing off the skewed case it exists for.
        constexpr int kFairnessProbes = 4;
        const rank_state& vs = ranks_[static_cast<std::size_t>(ws.victim)];
        const bool last = ++ws.probes >= (fairness_on_ ? kFairnessProbes : 1);
        if (!vs.deque.empty()) {
          if (last || fair_underserved_here(vs)) return worker_action::claim;
          // Only well-served jobs queued here: count the probe as a miss
          // (the bounds read was paid) and hunt on.
          rs.st.fairness_redirects++;
        }
        note_steal_fail(rs, ws.t0);
        if (!last) {
          issue_probe(rs);
          if (!miss_in_place(rs)) return worker_action::wait;
          break;
        }
        end_steal(rs);
        ws.phase = worker_phase::missed;
        break;
      }
      case worker_phase::missed: {
        // Backoff waiting is idle time, not steal time.
        timeline_.enter(eng_.my_rank(), common::phase_timeline::phase::idle, eng_.now_precise());
        // Exponential backoff between failed steal rounds (capped): keeps
        // idle workers from hammering victims while work is scarce, without
        // hurting time-to-steal much relative to task granularity.
        const int shift = ws.failed_rounds < 5 ? ws.failed_rounds : 5;
        ws.dt = kStealBackoff * static_cast<double>(1 << shift);
        ws.failed_rounds++;
        ws.phase = worker_phase::top;
        return worker_action::wait;
      }
    }
  }
}

double scheduler::parked_step(void* ctx) noexcept {
  scheduler& s = *static_cast<scheduler*>(ctx);
  rank_state& rs = s.self();
  const worker_action a = s.worker_step(rs);
  if (a == worker_action::wait) return rs.worker.dt;
  rs.worker.woke = a;
  return sim::engine::wake;
}

void scheduler::worker_loop() {
  rank_state& rs = self();
  rs.worker = worker_state{};
  for (;;) {
    // The fiber regains control only past a release: the barrier that
    // opens the region, Release #2 when a stolen child ends, Release #3
    // before a join suspends, the root's release when it ends. Every
    // write-back of dirty data advances the epoch past the handlers it
    // covers, so no thief's request is pending either, and a parked step's
    // poll() never advances the clock. Checked here, once per wake, not in
    // the steps, which serve runs by the million.
    ITYR_CHECK((!pgas_.cache().has_dirty() && !pgas_.release_requested()) ||
               !"a worker fiber that regains control holds no dirty data and owes no release");
    worker_action a = worker_step(rs);
    if (a == worker_action::wait) {
      // Idle: the run loop steps the rounds that follow in place and
      // switches back here only for work that needs this fiber.
      eng_.park(rs.worker.dt, &scheduler::parked_step, this);
      a = rs.worker.woke;
    }
    switch (a) {
      case worker_action::stop:
        reap();
        return;
      case worker_action::run_local: {
        // Same rank, never migrated: no fences.
        const cont_entry e = rs.deque.back();
        rs.deque.pop_back();
        occ_add(e.job, -1);
        rs.st.local_pops++;
        run_continuation(rs, e);
        break;
      }
      case worker_action::claim: {
        cont_entry e;
        if (claim_steal(rs, e)) {
          run_continuation(rs, e);
        } else {
          rs.worker.phase = worker_phase::missed;
        }
        break;
      }
      case worker_action::wait:
        ITYR_DIE("parked worker woken without a reason");
    }
  }
}

// ---------------------------------------------------------------------------
// root_exec
// ---------------------------------------------------------------------------

void scheduler::root_entry(void* ctx) { static_cast<scheduler*>(ctx)->root_body(); }

void scheduler::root_body() {
  if (cp_on_) {
    cp_root_ = {};
    cp_open(&cp_root_);
  }
  try {
    root_fn_();
  } catch (...) {
    root_error_ = std::current_exception();
  }
  root_fn_ = nullptr;
  // The root thread may finish on any rank; flush its updates and stop the
  // cluster.
  pgas_.release();
  rank_state& cur = self();
  if (cp_on_) {
    cp_close();
    hist_task_.record(cp_root_.self_s);
    // Sequential fork-join regions extend the same critical path.
    cp_work_ += cp_root_.work;
    cp_span_.add(cp_root_.span);
  }
  busy_end();
  done_ = true;
  cur.dead.push_back(eng_.current_fiber());
  eng_.exit_to(cur.sched_fiber);
}

void scheduler::root_exec(std::function<void()> root_fn) {
  ITYR_CHECK(!active_ || !"root_exec cannot be nested");

  // Entering the fork-join region is a global synchronization point: all
  // SPMD-mode writes must be visible to every task.
  pgas_.barrier();

  rank_state& rs = self();
  rs.sched_fiber = eng_.current_fiber();
  // Re-entry hygiene: a previous fork-join region must not leak per-rank
  // resume notes or critical-path bookkeeping into this one. A clean region
  // consumes every note and closes every segment, but the pending steal note
  // and the open-segment pointer are only overwritten lazily — reset them
  // eagerly so a second root_exec can never misattribute its first resume.
  // Pure bookkeeping: no clock or RNG effect, so single-region runs are
  // bit-identical with or without this block.
  rs.note = resume_kind::none;
  rs.cp.cur = nullptr;
  rs.cp.steal_cls = -1;
  rs.cp.steal_cost = 0;
  rs.cur_job = common::no_job;
  rs.busy_since = -1;
  timeline_.begin_region(eng_.my_rank(), eng_.now_precise());

  if (eng_.my_rank() == 0) {
    done_ = false;
    active_ = true;
    root_error_ = nullptr;
    root_fn_ = std::move(root_fn);
    sim::fiber* root_fib = eng_.spawn_fiber(&scheduler::root_entry, this);
    busy_begin();
    eng_.switch_to(root_fib);
    busy_end();
  } else {
    // Workers may arrive before rank 0 set done_=false; wait for the region
    // to open (or for an immediate close if the root ran to completion
    // before we got here — done_ flips back to true in that case, which the
    // generation check below distinguishes via the barrier that follows).
    while (done_ && !active_) {
      if (eng_.any_rank_failed()) break;  // rank 0 died; fall through to teardown
      eng_.advance(eng_.opts().poll_interval);
    }
  }

  worker_loop();
  timeline_.end_region(eng_.my_rank(), eng_.now_precise());

  // Region teardown: flush every rank's cache and resynchronize.
  pgas_.release();
  pgas_.barrier();
  if (eng_.my_rank() == 0) {
    active_ = false;
  }
  pgas_.barrier();
  pgas_.acquire();

  if (eng_.my_rank() == 0 && root_error_) {
    auto err = root_error_;
    root_error_ = nullptr;
    std::rethrow_exception(err);
  }
}

}  // namespace ityr::sched
