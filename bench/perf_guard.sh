#!/bin/sh
# Perf guards: one row per deterministic --smoke bench. Each bench checks its
# own invariants and gates (nonzero exit on a violation); rows with a
# baseline also write BENCH_<row>.json, which tools/stats_diff checks against
# the committed bench/baseline_*.json on the listed keys (10% tolerance).
# A failing row does not stop the rows after it; the script exits nonzero at
# the end if any row failed.
#
# Run from the repository root after building (the CI perf-guard job builds
# Release):
#
#   cmake -B build -S . -DCMAKE_BUILD_TYPE=Release && cmake --build build -j
#   sh bench/perf_guard.sh [build-dir]
#
# The baselines are deterministic virtual-time numbers; Release and
# RelWithDebInfo builds reproduce them alike (bench/README.md).
set -u
build=${1:-build}
failed=""

fail() {
  echo "FAIL: $1"
  failed="$failed $1"
}

while read -r row bench baseline keys; do
  echo "#### $row: $bench --smoke"
  if [ "$baseline" = "-" ]; then
    "$build/bench/$bench" --smoke </dev/null || fail "$row"
    continue
  fi
  json="BENCH_$row.json"
  "$build/bench/$bench" --smoke "$json" </dev/null || fail "$row"
  key_args=$(echo "$keys" | sed 's/[^,][^,]*/--key &/g; s/,/ /g')
  # shellcheck disable=SC2086  # key_args splits into --key pairs on purpose
  "$build/tools/stats_diff" --check "bench/$baseline" "$json" $key_args --tolerance 0.10 \
    </dev/null || fail "$row/baseline"
done <<'ROWS'
simcore    sim_scaling         -                        -
critpath   critical_path       baseline_critpath.json   parallelism,span_s
placement  ablation_placement  baseline_placement.json  inter_bytes,steals
serving    serving             baseline_serving.json    jobs_per_s,latency_p99_s,steals
ROWS

if [ -n "$failed" ]; then
  echo "perf guard: failed rows:$failed"
  exit 1
fi
echo "perf guard: all rows passed"
