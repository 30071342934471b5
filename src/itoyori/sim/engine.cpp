#include "itoyori/sim/engine.hpp"

namespace ityr::sim {

namespace {
engine* g_engine = nullptr;

// Idle ULT stacks the fiber pool retains (see fiber_pool).
constexpr std::size_t kFiberPoolCap = 64;
}

engine& current_engine() {
  ITYR_CHECK(g_engine != nullptr);
  return *g_engine;
}

bool engine_active() { return g_engine != nullptr; }

namespace detail {
void set_current_engine(engine* e) { g_engine = e; }
}

engine::engine(const common::options& opt)
    : opt_([&] {
        common::validate_topology(opt.n_nodes, opt.ranks_per_node, opt.topology);
        common::validate_sim_core(opt.ult_stack_size);
        return opt;
      }()),
      topo_(opt_.n_nodes, opt_.ranks_per_node, opt_.topology, opt_.net),
      queue_(opt_.n_ranks()) {
  ITYR_CHECK(opt_.n_ranks() >= 1);
  ranks_.resize(static_cast<std::size_t>(opt_.n_ranks()));
  for (int r = 0; r < opt_.n_ranks(); r++) {
    ranks_[r].rng = common::xoshiro256ss(opt_.seed * 0x9e3779b97f4a7c15ULL +
                                         static_cast<std::uint64_t>(r) + 1);
  }
  pool_ = std::make_unique<fiber_pool>(opt_.ult_stack_size, kFiberPoolCap);
  detail::set_current_engine(this);
}

engine::~engine() {
  if (g_engine == this) detail::set_current_engine(nullptr);
}

double engine::now_precise() const {
  double t = ranks_[my_rank()].clock;
  if (!opt_.deterministic) {
    const auto elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - resume_t0_).count();
    t += elapsed;
  }
  return t;
}

// A step runs on the run loop's own stack: yielding from it would save the
// loop's registers as the rank fiber's context and later resume a stale
// run-loop frame. The checks below turn that corruption into a clean abort.

void engine::advance(double dt) {
  ITYR_CHECK(!in_step_ || !"advance() or yield() called from an inline step");
  ITYR_CHECK(dt >= 0);
  rank_state& rs = ranks_[my_rank()];
  rs.clock = after_wait(rs.clock, dt);
  yield_to_scheduler();
}

void engine::park(double dt, step_fn step, void* ctx) {
  ITYR_CHECK(step != nullptr);
  rank_state& rs = ranks_[my_rank()];
  rs.step = step;
  rs.step_ctx = ctx;
  advance(dt);
}

bool engine::wait_in_place(double dt, int rank) {
  ITYR_CHECK(dt >= 0);
  const int me = my_rank();
  ITYR_CHECK(rank != me);
  if (!opt_.deterministic) return false;
  rank_state& rs = ranks_[me];
  const double resume_clock = after_resume(after_wait(rs.clock, dt));
  // The run loop resumes the smallest (clock, rank) key next (rank_queue).
  const rank_state& other = ranks_[rank];
  if (!other.finished && (other.clock < resume_clock ||
                          (other.clock == resume_clock && rank < me))) {
    return false;
  }
  rs.clock = resume_clock;
  return true;
}

void engine::yield_to_scheduler() {
  rank_state& rs = ranks_[my_rank()];
  ITYR_CHECK(rs.running != nullptr);
  fiber_switch(rs.running->context(), &main_ctx_);
}

void engine::switch_to(fiber* f) {
  ITYR_CHECK(!in_step_ || !"switch_to() called from an inline step");
  rank_state& rs = ranks_[my_rank()];
  fiber* from = rs.running;
  ITYR_CHECK(from != nullptr && f != nullptr && from != f);
  rs.running = f;
  fiber_switch(from->context(), f->context());
}

void engine::exit_to(fiber* f) {
  ITYR_CHECK(!in_step_ || !"exit_to() called from an inline step");
  rank_state& rs = ranks_[my_rank()];
  ITYR_CHECK(f != nullptr);
  rs.running = f;
  fiber_exit_to(f->context());
  __builtin_unreachable();
}

void engine::rank_entry(void* ctx) {
  engine& e = *static_cast<engine*>(ctx);
  const int r = e.current_rank_;
  rank_state& self = e.ranks_[r];
  try {
    (*e.rank_main_)(r);
  } catch (...) {
    self.error = std::current_exception();
    e.failed_ranks_++;
  }
  self.finished = true;
  // Return control to the run loop; this fiber is dead.
  fiber_exit_to(&e.main_ctx_);
}

void engine::run(std::function<void(int)> rank_main) {
  ITYR_CHECK(!running_);
  running_ = true;
  rank_main_ = &rank_main;
  queue_.reset();

  for (int r = 0; r < n_ranks(); r++) {
    rank_state& rs = ranks_[r];
    rs.clock = 0.0;
    rs.finished = false;
    rs.error = nullptr;
    rs.main = std::make_unique<fiber>(opt_.ult_stack_size, &engine::rank_entry, this);
    rs.running = rs.main.get();
  }

  while (true) {
    // O(1) pick from the rank queue's winner slot. charge() stays O(1)
    // because the queue is only touched here, after the slice yields back
    // with its final clock: update()/remove() replay just this rank's
    // leaf-to-root path of the tournament tree.
    const int r = queue_.top();
    if (r < 0) break;
    rank_state& rs = ranks_[r];
    current_rank_ = r;
    total_resumes_++;
    rs.resumes++;
    // In deterministic mode the slice cost is the fixed
    // deterministic_resume_cost, so the host timestamp (a vDSO call, but
    // still tens of ns) is skipped on the per-resume fast path. In measured
    // mode an inline step's host time is charged like a fiber slice's.
    if (!opt_.deterministic) resume_t0_ = std::chrono::steady_clock::now();
    double dt = wake;
    if (rs.step != nullptr) {
      in_step_ = true;
      dt = rs.step(rs.step_ctx);
      in_step_ = false;
    }
    if (dt >= 0) {
      // The step kept the rank parked: charge its wait exactly as advance().
      rs.clock = after_wait(rs.clock, dt);
      rs.inline_resumes++;
    } else {
      rs.step = nullptr;
      fiber_switch(&main_ctx_, rs.running->context());
    }
    // Commit measured compute for the slice that just ran.
    if (opt_.deterministic) {
      rs.clock = after_resume(rs.clock);
    } else {
      const auto elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - resume_t0_).count();
      rs.clock += elapsed;
    }
    if (rs.finished) {
      queue_.remove(r);
    } else {
      queue_.update(r, rs.clock);
    }
    if (resume_hook_) resume_hook_(r, rs.clock);
    current_rank_ = -1;
  }

  running_ = false;
  rank_main_ = nullptr;
  failed_ranks_ = 0;
  for (auto& rs : ranks_) {
    rs.main.reset();
    rs.running = nullptr;
    if (rs.error) {
      auto err = rs.error;
      rs.error = nullptr;
      std::rethrow_exception(err);
    }
  }
}

double engine::max_clock() const {
  double m = 0.0;
  for (const auto& rs : ranks_) m = rs.clock > m ? rs.clock : m;
  return m;
}

}  // namespace ityr::sim
