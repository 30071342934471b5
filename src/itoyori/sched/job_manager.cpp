#include "itoyori/sched/job_manager.hpp"

#include <algorithm>
#include <cmath>

#include "itoyori/common/rng.hpp"

namespace ityr::sched {

void job_manager::serve(std::vector<job_spec> jobs) {
  ITYR_CHECK(eng_.opts().serve || !"serve() requires ITYR_SERVE");
  ITYR_CHECK(!jobs.empty());
  const std::size_t base = records_.size();
  // Collective: every rank enters the region; only rank 0's root fiber runs
  // the admission driver (job 0), the rest are workers from the start.
  sched_.root_exec([this, &jobs, base] { drive(jobs, base); });

  // Region closed on every rank; fold the per-job summaries once.
  if (eng_.my_rank() == 0) {
    for (std::size_t i = 0; i < jobs.size(); i++) {
      job_record& r = records_[base + i];
      r.busy_s = sched_.job_busy_of(r.id);
      if (r.done) hist_latency_.record(r.latency());
    }
  }
}

void job_manager::drive(const std::vector<job_spec>& jobs, std::size_t base) {
  const auto& opt = eng_.opts();
  // The arrival process is its own PRNG stream, seeded from the run seed:
  // independent of every rank's victim-selection stream, so the same seed
  // reproduces the same offered load regardless of scheduler knobs.
  common::xoshiro256ss rng(opt.seed ^ 0x6a09e667f3bcc908ULL);
  std::vector<thread_handle> hs(jobs.size());

  double t_next = eng_.now_precise();
  for (std::size_t i = 0; i < jobs.size(); i++) {
    // Open loop: the next arrival is scheduled relative to the previous
    // arrival point, never to when the previous job finished — queueing
    // delay under overload is exactly what the latency metric must see.
    const double u = rng.uniform();
    t_next += -std::log1p(-u) / opt.serve_arrival_rate;
    while (eng_.now_precise() < t_next) {
      sched_.poll();
      eng_.advance(std::min(opt.poll_interval, t_next - eng_.now_precise()));
    }

    const common::job_id_t id = ++last_id_;
    const std::size_t slot = base + i;
    records_.push_back({});
    job_record& r = records_[slot];
    r.id = id;
    r.name = jobs[i].name;
    r.t_admit = eng_.now_precise();
    if (trace_ != nullptr) trace_->instant(eng_.my_rank(), r.t_admit, "job admit", id);

    // Child-first: the job's body starts executing immediately on this rank;
    // the driver's continuation becomes stealable, and admission resumes
    // wherever (and whenever) it lands. Access records_ by index only — the
    // vector may reallocate while job wrappers are in flight.
    hs[i] = sched_.fork_tagged(
        [this, slot, body = jobs[i].body](thread_state* ts) {
          records_[slot].t_start = eng_.now_precise();
          if (trace_ != nullptr) {
            trace_->instant(eng_.my_rank(), records_[slot].t_start, "job start", ts->job);
          }
          body();
          records_[slot].t_complete = eng_.now_precise();
          records_[slot].done = true;
          if (trace_ != nullptr) {
            trace_->instant(eng_.my_rank(), records_[slot].t_complete, "job complete", ts->job);
          }
        },
        id);
  }

  for (std::size_t i = 0; i < jobs.size(); i++) {
    sched_.join(hs[i]);
    if (sched_.critpath_enabled() && hs[i].ts != nullptr) {
      records_[base + i].span_s = hs[i].ts->cp.span.total();
    }
    sched_.recycle(hs[i]);
  }
}

double job_manager::latency_quantile(double q) const {
  std::vector<double> lat;
  lat.reserve(records_.size());
  for (const job_record& r : records_) {
    if (r.done) lat.push_back(r.latency());
  }
  if (lat.empty()) return 0;
  std::sort(lat.begin(), lat.end());
  const double pos = q * static_cast<double>(lat.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, lat.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return lat[lo] + (lat[hi] - lat[lo]) * frac;
}

double job_manager::jobs_per_s() const {
  double t_first = 0, t_last = 0;
  std::uint64_t n = 0;
  for (const job_record& r : records_) {
    if (!r.done) continue;
    if (n == 0 || r.t_admit < t_first) t_first = r.t_admit;
    if (n == 0 || r.t_complete > t_last) t_last = r.t_complete;
    n++;
  }
  if (n == 0 || t_last <= t_first) return 0;
  return static_cast<double>(n) / (t_last - t_first);
}

}  // namespace ityr::sched
