#pragma once

/// The benchmark's three workloads. Each call runs one iteration in fresh
/// runtimes: set-up, the measured region(s), then output checks. Virtual
/// time runs under options::deterministic, so everything but host time
/// repeats bit for bit for one seed.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "host_split.hpp"

namespace perfbench {

struct run_config {
  std::uint64_t seed = 1;
  bool traced = false;  ///< critpath + per-rank host clock + profiler on
};

/// Registry series summed over ranks and grown over the measured region(s).
struct series_value {
  bool integral = false;
  double total = 0;
};

struct iteration {
  // ---- host (CPU seconds of this single-threaded process) ----
  double setup_s = 0;   ///< runtime construction, allocation, input generation
  double host_s = 0;    ///< the measured region(s)
  double minor_faults = 0;
  double sys_s = 0;
  split_result split;   ///< traced only
  bool wrapper_seen = false;

  // ---- virtual time (deterministic) ----
  double virtual_s = 0;  ///< makespan of the measured region (serve: saturated stream)
  double jobs_per_s = 0;
  double latency_p50_s = 0;  ///< from due arrival (serve) / per-job makespans (batch)
  double latency_p95_s = 0;
  double lateness_p95_s = 0;  ///< serve: admit - due on the fixed-rate stream
  std::map<std::string, series_value> series;

  // ---- output checks ----
  int attempted = 0;
  int failed = 0;
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what);
};

iteration run_cilksort(const run_config& c);
iteration run_uts_mem(const run_config& c);
iteration run_serve(const run_config& c);

/// Host CPU seconds of the runtime-elided serial run of the same input.
double serial_cilksort(std::uint64_t seed);
double serial_uts_mem(std::uint64_t seed);
double serial_serve(std::uint64_t seed);

double cpu_seconds();

/// Exact quantile of `xs` with linear interpolation (as job_manager does).
double quantile(std::vector<double> xs, double q);

}  // namespace perfbench
