#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "itoyori/common/histogram.hpp"
#include "itoyori/common/job.hpp"
#include "itoyori/common/profiler.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/pgas/pgas_space.hpp"
#include "itoyori/sched/critpath.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::sched {

class scheduler;

/// Join state of one forked user-level thread. Allocated from the runtime
/// heap (never on a task stack: stacks migrate, paper Section 3.1) and
/// accessed by parent and child possibly on different ranks; remote touches
/// are charged as small RMA operations. It is also the child fiber's entry
/// context: the child runs `fn` and destroys it as soon as it returns, so
/// whatever the closure captured is released before the parent's join.
struct thread_state {
  static constexpr std::size_t result_capacity = 128;

  scheduler* sched = nullptr;  ///< the owning scheduler (set once)
  std::function<void(thread_state*)> fn;  ///< the child's closure while it runs
  std::uint64_t parent_serial = 0;        ///< the parent's continuation entry
  bool finished = false;
  bool parent_waiting = false;
  sim::fiber* parent_fiber = nullptr;  ///< valid when parent_waiting
  int parent_wait_rank = -1;           ///< rank the parent suspended on
  int owner_rank = -1;                 ///< rank that forked (allocation home)
  double release_watermark = 0;        ///< async release: child's Release #2
                                       ///< visibility time (0 = synchronous)
  common::job_id_t job = common::no_job;  ///< owning job (serving mode; 0 otherwise)
  std::exception_ptr error;
  cp_frame cp;  ///< work/span accumulator (ITYR_CRITPATH; unused otherwise)
  alignas(16) unsigned char result[result_capacity]{};  ///< type-erased slot

  /// Ready for the next fork; the critpath frame is left alone (and never
  /// read) when critpath is off.
  void reset(bool critpath) {
    finished = false;
    parent_waiting = false;
    parent_fiber = nullptr;
    parent_wait_rank = -1;
    owner_rank = -1;
    release_watermark = 0;
    job = common::no_job;
    error = nullptr;
    if (critpath) cp = {};
  }
};

/// Handle returned by fork(): join target plus the serialized-fast-path flag
/// (paper Section 5.1: if the parent was never stolen, the child behaved as
/// a plain function call and every fence can be skipped).
struct thread_handle {
  thread_state* ts = nullptr;
  bool serialized = false;
};

/// Distributed child-first work-stealing scheduler over the uni-address
/// threading model (paper Sections 2.1, 3.1, 5).
///
/// fork() suspends the parent, pushes its continuation (the suspended fiber
/// plus a lazy release handler, Fig. 5/6) onto the bottom of the local
/// deque, and runs the child immediately in a fresh fiber. Completion of the
/// child pops the continuation back on the fast path; otherwise the
/// continuation has been stolen and the child synchronizes through the
/// thread_state. Thieves steal from the top of remote deques using one-sided
/// operations only (probe + CAS + descriptor fetch + stack migration), each
/// charged through the network model.
///
/// Fence insertion (paper Fig. 5 and Section 5.1):
///  * fork      -> Release #1 as a *lazy* handler attached to the stolen
///                 continuation; Acquire #3 skipped (child-first).
///  * steal     -> Acquire #2 with that handler, on the thief.
///  * child end -> Release #2 only if the parent was stolen.
///  * join slow -> Release #3 before suspending, Acquire #1 when resumed.
///  * fast path -> no fences at all (work-first principle).
class scheduler {
public:
  struct stats {
    std::uint64_t forks = 0;
    std::uint64_t serialized_joins = 0;   ///< fast-path fork returns
    std::uint64_t steal_attempts = 0;
    std::uint64_t steals = 0;             ///< successful steals
    std::uint64_t intra_node_steals = 0;  ///< steals from same-node victims
    std::uint64_t local_pops = 0;         ///< own-deque continuation pops
    std::uint64_t join_suspends = 0;
    std::uint64_t migrations = 0;         ///< cross-rank thread movements
    std::uint64_t migrated_stack_bytes = 0;
    std::uint64_t inter_steal_bytes = 0;  ///< stack bytes migrated by inter-node steals
    std::uint64_t fairness_mid_claims = 0;///< job_weighted steals that bypassed the
                                          ///< front entry for a rarer job's entry
    std::uint64_t fairness_redirects = 0; ///< probes released because the victim
                                          ///< queued only well-served jobs' work
    double failed_probe_s = 0;            ///< virtual time burned in failed steal rounds
    std::uint64_t missed_in_place = 0;    ///< probes certain to miss, landed in the
                                          ///< resume that issued them
    /// Probes issued per thief<->victim distance class (class_of, clamped).
    std::uint64_t steal_probes_class[cp_max_classes] = {};
  };

  scheduler(sim::engine& eng, pgas::pgas_space& pgas);

  /// Attach an (optional) profiler for fence/steal attribution (Fig. 9).
  void set_profiler(common::profiler* p) { prof_ = p; }

  /// Attach an (optional) tracer: successful steals become thief<-victim
  /// flow arrows, the busy/idle/steal timeline emits "Busy" spans, and the
  /// scheduler's poll points drive periodic counter sampling.
  void set_tracer(common::tracer* t) {
    trace_ = t;
    timeline_.set_tracer(t);
  }

  /// SPMD entry point: every rank calls this collectively; `root_fn` runs
  /// once as the root thread (started on rank 0, free to migrate), all other
  /// ranks act as workers until it completes.
  void root_exec(std::function<void()> root_fn);

  // ---- task primitives (call only from inside the fork-join region) ----
  /// The child closure receives its own thread_state so typed wrappers can
  /// deposit results into ts->result (never into a parent stack slot, which
  /// would break under migration). It is moved into that thread_state and
  /// destroyed when it returns.
  thread_handle fork(std::function<void(thread_state*)> child_fn);

  /// fork() with an explicit job tag for the child (serving mode): the job
  /// manager's admission driver (job 0) forks each job's root task with that
  /// job's id; everything the job task forks inherits the tag. The parent's
  /// continuation keeps the *parent's* job.
  thread_handle fork_tagged(std::function<void(thread_state*)> child_fn, common::job_id_t job);

  /// Synchronize with the child. On return, h.ts->result is still valid;
  /// call recycle() after extracting it. Rethrows the child's exception
  /// (recycling first).
  void join(thread_handle& h);
  void recycle(thread_handle& h);

  /// Scheduler/coherence poll: DoReleaseIfRequested + allocator upkeep.
  void poll();

  bool in_fork_join_region() const { return active_; }

  stats get_stats() const;
  const stats& stats_of(int rank) const { return ranks_[static_cast<std::size_t>(rank)].st; }

  /// Busy time (task execution, excluding the steal loop) per rank; one view
  /// of the phase timeline, kept for the idleness metric (paper Table 2).
  double busy_time_of(int rank) const { return timeline_.busy_of(rank); }

  /// Per-rank busy/idle/steal intervals over virtual time — the single
  /// source of truth for Table 2 idleness and the Fig. 9 capacity term.
  /// Static (SPMD-style) baselines may drive it directly between fork-join
  /// regions via begin_region()/enter()/end_region().
  common::phase_timeline& timeline() { return timeline_; }
  const common::phase_timeline& timeline() const { return timeline_; }

  /// Current depth of a rank's continuation deque (sampled into the trace).
  std::size_t deque_depth_of(int rank) const {
    return ranks_[static_cast<std::size_t>(rank)].deque.size();
  }

  /// Busy time attributed to one job across all ranks (serving mode only;
  /// 0 otherwise). Accumulated from current-job transitions inside busy
  /// intervals — pure bookkeeping, never charges the virtual clock.
  double job_busy_of(common::job_id_t job) const {
    return job < job_busy_.size() ? job_busy_[job] : 0.0;
  }

  // ---- online critical-path profiler (ITYR_CRITPATH) ----
  bool critpath_enabled() const { return cp_on_; }
  /// Total work (sum of all strand segments) across every completed
  /// root_exec region so far; 0 unless ITYR_CRITPATH.
  double cp_work() const { return cp_work_; }
  /// Bucketed span (critical path). Sequential regions add their spans.
  const cp_path& cp_span() const { return cp_span_; }

  // ---- cluster-wide histograms (every rank records into the same one) ----
  /// Task execution time (own strand segments; populated only with
  /// ITYR_CRITPATH, which is what measures self time).
  const common::log_histogram& task_hist() const { return hist_task_; }
  /// Successful-steal latency (probe to runnable task), always on.
  const common::log_histogram& steal_hist() const { return hist_steal_; }
  /// Failed-probe latency (probe start to empty/raced return), always on —
  /// steal_hist only sees successes, so this is where idle-loop waste shows.
  const common::log_histogram& steal_fail_hist() const { return hist_steal_fail_; }
  /// Fence time (Release #2/#3, Acquire #1/#2), always on.
  const common::log_histogram& fence_hist() const { return hist_fence_; }

private:
  struct cont_entry {
    sim::fiber* fib = nullptr;
    pgas::release_handler rh;
    std::uint64_t serial = 0;
    common::job_id_t job = common::no_job;  ///< job of the suspended parent
  };

  enum class resume_kind : std::uint8_t {
    none,
    child_done,   ///< fast path: fork returns serialized
    taken_over,   ///< continuation resumed by thief or local worker pop
    join_done,    ///< suspended joiner resumed by the finishing child
  };

  /// Stack bytes a steal or a join migration moves: the live stack of one
  /// suspended task (its own frames plus the runtime's fork/join frames).
  /// Modelled rather than measured on the fiber's live stack, whose size
  /// the host compiler's frame layout decides: a measured size let the
  /// build type, the fiber backend or a logic-neutral edit to the scheduler
  /// move every virtual result. 1.5 KiB is the mean live stack per steal
  /// that gcc 12 -O2 measured on cilksort and uts_mem (1.3 and 1.6 KiB).
  static constexpr std::size_t modelled_stack_bytes = 1536;

  /// Virtual seconds of the first idle backoff after a failed steal round;
  /// each further failed round doubles it, up to 32x.
  static constexpr double kStealBackoff = 2.0e-6;

  /// The worker loop is a small state machine, so that a parked worker can
  /// be stepped by the engine without its fiber (sim::engine::park). The
  /// phase says where worker_step() continues.
  enum class worker_phase : std::uint8_t {
    top,      ///< loop head: stop check, reap() and poll()
    polled,   ///< own-deque check, then a new steal round
    probe,    ///< the bounds probe of `victim` is in flight
    missed,   ///< the steal round found nothing: idle hooks, then backoff
    backoff,  ///< charge the backoff wait, then back to `top`
  };
  /// Where worker_step() stopped: a wait, or work only the fiber may do
  /// because it can advance the clock or switch fibers.
  enum class worker_action : std::uint8_t {
    wait,        ///< park for worker_state::dt
    stop,        ///< the fork-join region is done
    poll,        ///< reap() + poll(): a requested release or a due placement pass
    run_local,   ///< the own deque has an entry
    claim,       ///< the probe found an entry to claim: CAS, migration, Acquire #2
    idle_hooks,  ///< idle_flush() with dirty data, or a due placement pass
  };
  struct worker_state {
    worker_phase phase = worker_phase::top;
    worker_action woke = worker_action::wait;  ///< why a step woke the fiber
    bool scoped = false;    ///< the profiler's steal scope is open
    int victim = -1;        ///< victim of the current probe
    int probes = 0;         ///< probes landed this round
    int failed_rounds = 0;  ///< consecutive failed rounds (backoff exponent)
    double t0 = 0;          ///< round start (steal-latency histograms)
    double dt = 0;          ///< the wait of worker_action::wait
  };

  /// The idle loop's state leads, so that a step of an idle worker reads
  /// its own record from one cache line.
  struct alignas(64) rank_state {
    /// Continuations, oldest (the steal end) first. A vector, not a
    /// std::deque: the depth oscillates on every fork, and a deque frees and
    /// reallocates a node each time it crosses a chunk edge; a vector keeps
    /// its capacity, so pushes and pops stop allocating once it is warm.
    std::vector<cont_entry> deque;
    worker_state worker;  ///< the worker loop's state (valid inside root_exec)
    sim::fiber* sched_fiber = nullptr;  ///< this rank's worker-loop fiber
    resume_kind note = resume_kind::none;
    std::vector<sim::fiber*> dead;      ///< fibers to recycle
    stats st;
    cp_rank_state cp;                   ///< segment accounting (ITYR_CRITPATH)
    // serving mode (ITYR_SERVE): job of the task currently executing on this
    // rank, and the start of the current busy interval (-1 = not busy) for
    // per-job busy attribution. Dead weight in single-job mode.
    common::job_id_t cur_job = common::no_job;
    double busy_since = -1;
  };

  rank_state& self() { return ranks_[static_cast<std::size_t>(eng_.my_rank())]; }

  void worker_loop();
  /// Run the worker loop from rs.worker.phase up to its next wait or
  /// fiber-only action. The worker fiber and parked_step() both run the
  /// loop through here, so every RNG draw, counter and clock charge happens
  /// in the same order whichever side runs it.
  worker_action worker_step(rank_state& rs);
  /// sim::engine step of a parked worker: worker_step() without the fiber.
  static double parked_step(void* ctx) noexcept;
  /// Open a steal round and issue its first probe; false on a single rank,
  /// where there is no victim.
  bool begin_steal(rank_state& rs);
  /// Draw a uniformly random victim and account its bounds probe.
  void issue_probe(rank_state& rs);
  /// Land the issued probe in this resume when it is certain to miss: the
  /// victim's deque is empty, and the victim, the only rank that pushes
  /// onto it, cannot run before the landing (sim::engine::wait_in_place).
  /// False, and nothing charged, otherwise.
  bool miss_in_place(rank_state& rs);
  /// Claim the landed probe's entry, migrate it and run Acquire #2 (fiber
  /// only: it advances). False if the entry was gone when the CAS landed.
  bool claim_steal(rank_state& rs, cont_entry& out);
  /// Close the round's steal scope (opened by begin_steal).
  void end_steal(rank_state& rs);
  /// Run a continuation taken from a deque on this rank's worker fiber.
  void run_continuation(rank_state& rs, const cont_entry& e);
  /// Idle-time upkeep between failed rounds: async idle flush and a due
  /// placement pass (both no-ops unless enabled).
  void idle_hooks();
  /// Bookkeeping for a probe that yielded no work: its latency since `t0`.
  void note_steal_fail(rank_state& rs, double t0);
  void reap();
  /// Fiber entries (sim::fiber::entry_fn): a forked child (ctx = its
  /// thread_state) and the root thread (ctx = the scheduler).
  [[noreturn]] static void child_entry(void* ctx);
  [[noreturn]] static void root_entry(void* ctx);
  [[noreturn]] void child_body(thread_state* ts);
  [[noreturn]] void root_body();
  resume_kind consume_note();
  void charge_ts_touch(const thread_state* ts);

  // Segment accounting (no-ops unless cp_on_; none of these charge virtual
  // time, so ITYR_CRITPATH=0 and =1 run bit-identical virtual clocks).
  /// Open a segment for `f` on the current rank: snapshot the rank's stall
  /// counters and the clock.
  void cp_open(cp_frame* f);
  /// Close the current segment: charge its elapsed time into `f`'s span
  /// buckets (compute = elapsed - stall deltas) and work. Returns the frame.
  cp_frame* cp_close();
  /// Reopen `f` after a suspension resume; a taken_over resume consumes the
  /// rank's pending steal note into steal_wait first.
  void cp_resume(cp_frame* f, bool taken_over);
  /// Join-time span fold: parent.work += child.work; parent.span = the
  /// longer path of {parent.span, child.base + child.span} (kept bucketed).
  void cp_on_join(cp_frame* parent, thread_state* ts);
  thread_state* acquire_ts();
  void release_ts(thread_state* ts);
  void busy_begin();
  void busy_end();
  /// Record that `job`'s task is now executing on the current rank (serving
  /// mode only: a no-op, compiled to one branch, in single-job mode). Flushes
  /// the previous job's busy interval.
  void set_cur_job(common::job_id_t job);
  /// Cluster-wide deque-entry count per job (job_weighted fairness only):
  /// adjusted at every deque push/pop/claim. Victims already publish their
  /// per-job occupancy next to the deque bounds; the totals are the sum the
  /// metadata service aggregates from them, so a thief's read piggybacks on
  /// the bounds probe it pays for anyway (no extra modelled traffic).
  void occ_add(common::job_id_t job, int delta);
  /// True if `vs`'s deque holds at least one entry of an under-served job
  /// (global occupancy at or below the per-live-job average) — the claim a
  /// fairness-driven thief is hunting for.
  bool fair_underserved_here(const rank_state& vs) const;

  sim::engine& eng_;
  pgas::pgas_space& pgas_;
  common::profiler* prof_ = nullptr;
  common::tracer* trace_ = nullptr;
  common::phase_timeline timeline_;
  common::log_histogram hist_task_;    ///< task exec time (ITYR_CRITPATH only)
  common::log_histogram hist_steal_;   ///< successful-steal latency
  common::log_histogram hist_fence_;   ///< fence (release/acquire) time
  common::log_histogram hist_steal_fail_;  ///< failed-probe latency
  std::vector<rank_state> ranks_;
  std::vector<thread_state*> ts_pool_;
  std::vector<std::unique_ptr<thread_state>> ts_storage_;
  std::uint64_t serial_counter_ = 0;
  bool serve_on_ = false;     ///< ITYR_SERVE: job plumbing live
  bool fairness_on_ = false;  ///< ITYR_STEAL_FAIRNESS=job_weighted (serving only)
  /// Idle hooks do work only under async release or with a placement
  /// engine. They write state that ranks running before a landing read (the
  /// epoch word, the owner table), so misses land in place only without
  /// them.
  bool idle_hooks_on_ = false;
  std::vector<double> job_busy_;  ///< busy seconds per job id (slot 0 unused)
  std::vector<std::uint64_t> job_occ_;  ///< live deque entries per job (fairness only)
  bool done_ = true;
  bool active_ = false;
  std::function<void()> root_fn_;  ///< the root thread's closure while it runs
  std::exception_ptr root_error_;

  bool cp_on_ = false;      ///< ITYR_CRITPATH
  cp_frame cp_root_;        ///< the root task's frame (one region at a time)
  double cp_work_ = 0;      ///< accumulated across sequential regions
  cp_path cp_span_;
};

}  // namespace ityr::sched
