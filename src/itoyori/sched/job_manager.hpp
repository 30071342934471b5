#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "itoyori/common/histogram.hpp"
#include "itoyori/common/job.hpp"
#include "itoyori/common/trace.hpp"
#include "itoyori/sched/scheduler.hpp"
#include "itoyori/sim/engine.hpp"

namespace ityr::sched {

/// One job to admit in serving mode: a name (for per-job metrics rows) and a
/// fork-join body. The body runs as the job's root task, free to fork and
/// migrate like any task; everything it forks inherits the job's id.
struct job_spec {
  std::string name;
  std::function<void()> body;
};

/// Lifecycle record of one admitted job. Timestamps are virtual seconds;
/// latency is complete - admit (queueing + execution under interference).
struct job_record {
  common::job_id_t id = common::no_job;
  std::string name;
  double t_admit = 0;
  double t_start = 0;     ///< first execution of the job's root task
  double t_complete = 0;  ///< its body returned
  double busy_s = 0;      ///< scheduler busy time attributed to this job
  double span_s = 0;      ///< job-local critical path (ITYR_CRITPATH only)
  bool done = false;

  double latency() const { return t_complete - t_admit; }
};

/// Multi-tenant job-stream serving (ITYR_SERVE, docs/internals.md
/// "Multi-job serving"): admits a stream of independent fork-join jobs into
/// ONE scheduler region from an open-loop arrival process, instead of
/// running a single root task.
///
/// The admission driver runs as the region's root task (job 0): it sleeps to
/// each exponential inter-arrival point (rate ITYR_SERVE_ARRIVAL_RATE, drawn
/// deterministically from the run seed), then forks the job's body tagged
/// with a fresh dense job id. Jobs execute concurrently under work stealing;
/// the driver joins them all before closing the region. Lifecycle instants
/// ("job admit" / "job start" / "job complete") go to the tracer, and
/// completed-job latencies feed the sched.job.* metrics.
///
/// Single-job mode goes through run_single(), which is exactly the old
/// scheduler::root_exec — the differential tests pin the off path down.
class job_manager {
public:
  job_manager(sim::engine& eng, scheduler& sched) : eng_(eng), sched_(sched) {}

  void set_tracer(common::tracer* t) { trace_ = t; }

  /// Single-job mode: the historic root_exec, untouched.
  void run_single(std::function<void()> root_fn) { sched_.root_exec(std::move(root_fn)); }

  /// Serving mode: collective call (like root_exec); admits `jobs` in order
  /// from the open-loop arrival process and returns when all completed.
  /// Callable repeatedly; job ids keep growing across calls.
  void serve(std::vector<job_spec> jobs);

  /// Records of every job admitted so far (across serve() calls), in
  /// admission order; records_[i].id == first_id + i.
  const std::vector<job_record>& records() const { return records_; }

  /// Latency percentile over completed jobs (exact, from sorted latencies);
  /// 0 when nothing completed. q in [0, 1].
  double latency_quantile(double q) const;
  /// Sustained throughput: completed jobs / (last completion - first admit);
  /// 0 when fewer than one job completed or the window is empty.
  double jobs_per_s() const;
  /// Completed-job latency distribution (log-bucketed, for metrics).
  const common::log_histogram& latency_hist() const { return hist_latency_; }

private:
  void drive(const std::vector<job_spec>& jobs, std::size_t base);

  sim::engine& eng_;
  scheduler& sched_;
  common::tracer* trace_ = nullptr;
  std::vector<job_record> records_;
  common::job_id_t last_id_ = common::no_job;
  common::log_histogram hist_latency_;
};

}  // namespace ityr::sched
