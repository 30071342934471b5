#pragma once

#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "itoyori/common/error.hpp"
#include "itoyori/common/options.hpp"
#include "itoyori/common/rng.hpp"
#include "itoyori/common/topology.hpp"
#include "itoyori/sim/fiber.hpp"
#include "itoyori/sim/rank_queue.hpp"

namespace ityr::sim {

/// Deterministic discrete-event simulator of a multi-node cluster.
///
/// Each simulated MPI process ("rank") runs as a fiber with its own virtual
/// clock. The engine always resumes the unfinished rank with the smallest
/// clock, which yields a causally consistent interleaving: when rank A reads
/// a flag at virtual time t, every write rank B performed before t has
/// already executed. This is the substitution for the paper's real cluster
/// (see DESIGN.md): the runtime layers above are identical logic; only the
/// transport and the notion of time differ.
///
/// Time advances two ways:
///  * measured: host-CPU time spent inside the fiber between resume and
///    yield, one virtual second per host second (application compute), and
///  * modelled: explicit charge()/advance() calls from the network and
///    scheduler layers (communication, fences, steals).
///
/// A rank whose next slices are cheap bookkeeping (an idle thief's failed
/// steal rounds) can park() its fiber: the run loop then runs those slices
/// as plain function calls, which cost the same virtual time and resumes
/// as fiber slices but no context switches (docs/internals.md, "Parked
/// ranks and inline steps").
class engine {
public:
  explicit engine(const common::options& opt);
  ~engine();

  engine(const engine&) = delete;
  engine& operator=(const engine&) = delete;

  const common::options& opts() const { return opt_; }

  /// Run `rank_main(rank)` to completion on every rank. Rethrows the first
  /// exception that escaped a rank main.
  void run(std::function<void(int)> rank_main);

  // ---- topology ----
  int n_ranks() const { return opt_.n_ranks(); }
  int node_of(int rank) const { return rank / opt_.ranks_per_node; }
  bool same_node(int a, int b) const { return node_of(a) == node_of(b); }

  /// Distance-class map of the simulated interconnect (ITYR_TOPOLOGY); the
  /// network and scheduler layers price messages through this.
  const common::topology& topo() const { return topo_; }

  // ---- callable only from inside rank fibers ----
  int my_rank() const {
    ITYR_CHECK(current_rank_ >= 0);
    return current_rank_;
  }

  /// Committed virtual time of the calling rank.
  double now() const { return ranks_[my_rank()].clock; }

  /// Virtual time including not-yet-committed measured compute since the
  /// last resume; used for profiling attribution.
  double now_precise() const;

  /// Charge `dt` virtual seconds without yielding.
  void charge(double dt) {
    ITYR_CHECK(dt >= 0);
    ranks_[my_rank()].clock += dt;
  }

  /// Charge `dt` and yield to the simulator (other ranks may run).
  void advance(double dt);

  /// Yield with a minimal epsilon charge (progress guarantee).
  void yield() { advance(min_advance_); }

  /// An inline step of a parked rank (see park()). It returns the virtual
  /// time to charge before the rank's next step, or `wake` to resume the
  /// parked fiber instead.
  using step_fn = double (*)(void* ctx) noexcept;
  static constexpr double wake = -1.0;

  /// advance(dt), after which the rank stays parked: each later resume of
  /// the rank calls `step(ctx)` from the run loop, with no fiber switch. A
  /// step that returns dt >= 0 is charged like advance(dt) and keeps the
  /// rank parked. A step that returns `wake` switches into the fiber in the
  /// same resume, and park() returns there. A step runs as the rank
  /// (my_rank(), now(), rng() and charge() work) but must not call
  /// advance(), yield(), switch_to() or exit_to(): it is not on a fiber.
  void park(double dt, step_fn step, void* ctx);

  /// Lookahead for a wait whose outcome only `rank` can change (a thief's
  /// probe of an empty deque that only its owner pushes onto). advance(dt)
  /// now would have the run loop resume the calling rank next at
  /// (resume_clock, my_rank()), with resume_clock = (now() + max(dt,
  /// min_advance)) + deterministic_resume_cost. If `rank` has finished or
  /// its (clock, rank) orders after that key, it cannot run before that
  /// resume: the wait and the resume's cost are committed here, bit for bit
  /// as the run loop would, and the caller goes on as if resumed (true). No
  /// resume is counted. Otherwise nothing changes (false), and always in
  /// measured mode, where a resume's cost is the host time of a slice that
  /// has not run yet (docs/internals.md, "Misses that land in place").
  bool wait_in_place(double dt, int rank);

  /// Deterministic per-rank random stream.
  common::xoshiro256ss& rng() { return ranks_[my_rank()].rng; }

  // ---- fiber management for the tasking layer ----
  fiber* current_fiber() const { return ranks_[my_rank()].running; }

  /// Create a fiber from the pooled stacks that will run `fn(ctx)`. It is
  /// not scheduled; switch to it explicitly.
  fiber* spawn_fiber(fiber::entry_fn fn, void* ctx) { return pool_->acquire(fn, ctx); }

  /// Recycle a fiber that is no longer running.
  void free_fiber(fiber* f) { pool_->release(f); }

  /// Save the current fiber and run `f` on this rank (no DES involvement;
  /// the measured-compute timer keeps running).
  void switch_to(fiber* f);

  /// The current fiber terminates; run `f` on this rank.
  [[noreturn]] void exit_to(fiber* f);

  // ---- statistics ----
  std::uint64_t total_resumes() const { return total_resumes_; }
  std::uint64_t resumes_of(int rank) const { return ranks_[rank].resumes; }
  /// Resumes of `rank` that ran as an inline step and kept it parked (no
  /// fiber switch); a subset of resumes_of().
  std::uint64_t inline_resumes_of(int rank) const { return ranks_[rank].inline_resumes; }

  /// Fiber-pool footprint/churn counters (high-water, created, reused,
  /// dropped) for the metrics registry.
  const fiber_pool& pool_stats() const { return *pool_; }

  /// Called on every DES resume with (rank, committed clock after the
  /// slice). Tests use it to check each resume against a linear scan, and
  /// perfbench to close host-time slices; null (and free) in normal runs.
  void set_resume_hook(std::function<void(int, double)> hook) {
    resume_hook_ = std::move(hook);
  }

  /// True once any rank's main has terminated with an exception; pollers
  /// (e.g. barriers) use this to abort instead of waiting forever.
  bool any_rank_failed() const { return failed_ranks_ > 0; }
  double clock_of(int rank) const { return ranks_[rank].clock; }
  double max_clock() const;

private:
  /// What every resume touches comes first and fills one cache line: with
  /// a thousand ranks the run loop's per-resume cost is mostly misses on
  /// these records.
  struct alignas(64) rank_state {
    double clock = 0.0;
    step_fn step = nullptr;  ///< set while parked: run instead of `running`
    void* step_ctx = nullptr;
    std::uint64_t resumes = 0;         ///< DES resumes of this rank (idle/resume transitions)
    std::uint64_t inline_resumes = 0;  ///< resumes that ran `step` and stayed parked
    fiber* running = nullptr;          ///< fiber to resume next for this rank
    bool finished = false;
    std::unique_ptr<fiber> main;  ///< the rank-main fiber (owned)
    common::xoshiro256ss rng;
    std::exception_ptr error;
  };

  /// The clock a wait of `dt` from `clock` commits: advance(), a parked
  /// step's wait and wait_in_place() all charge through here.
  double after_wait(double clock, double dt) const {
    return clock + (dt > min_advance_ ? dt : min_advance_);
  }
  /// The clock after a deterministic-mode resume's cost: the run loop's
  /// commit and wait_in_place() both charge through here.
  double after_resume(double clock) const { return clock + opt_.deterministic_resume_cost; }

  void yield_to_scheduler();  // save current fiber, return to the run loop
  /// Entry of every rank-main fiber (ctx = the engine). The run loop enters
  /// a rank main first, with that rank current, so the rank is read there.
  [[noreturn]] static void rank_entry(void* ctx);

  common::options opt_;
  common::topology topo_;
  std::vector<rank_state> ranks_;
  rank_queue queue_;
  std::unique_ptr<fiber_pool> pool_;
  const std::function<void(int)>* rank_main_ = nullptr;  ///< set during run()
  fiber_context main_ctx_{};
  int current_rank_ = -1;
  bool running_ = false;
  bool in_step_ = false;  ///< a parked rank's step is running (no fiber to yield)
  double min_advance_ = 1.0e-9;
  std::uint64_t total_resumes_ = 0;
  int failed_ranks_ = 0;
  std::chrono::steady_clock::time_point resume_t0_{};
  std::function<void(int, double)> resume_hook_;
};

/// The engine currently executing (valid while engine::run is live). The
/// simulator is single-threaded, so a plain global suffices.
engine& current_engine();
bool engine_active();

namespace detail {
void set_current_engine(engine* e);
}

}  // namespace ityr::sim
