#!/bin/sh
# Regenerate every paper table/figure plus the ablations, in the order of
# the paper's evaluation. Run from the repository root after building:
#
#   cmake -B build -G Ninja && cmake --build build
#   sh bench/run_all.sh
#
# Times are virtual seconds of the simulated cluster (see EXPERIMENTS.md).
# Keep the host otherwise idle: application compute inside the simulation is
# measured host-CPU time, so a loaded machine skews the compute:network
# ratio.
set -e

# Every point of Tables 1-2, Figs. 7-11 and the sub-block, cache-size and
# distribution ablations: paper-style tables on stdout, one record per point
# (parameters, values, registry stats) -> BENCH_paper.json.
echo "#### bench/paper"
./build/bench/paper BENCH_paper.json
echo

echo "#### bench/micro_primitives"
./build/bench/micro_primitives
echo

# Machine-readable checkout hot-path stats (messages/bytes/virtual time for
# the fig8 cilksort config, coalesced vs uncoalesced) -> BENCH_checkout.json.
echo "#### bench/checkout_stats"
./build/bench/checkout_stats BENCH_checkout.json
echo

# Observability-layer overhead (wall-clock with the tracer off vs on for the
# fig8 cilksort config, virtual-time invariance, trace volume, registry delta
# demonstration) -> BENCH_observability.json.
echo "#### bench/observability"
./build/bench/observability BENCH_observability.json
echo

# Prefetcher ablation (sequential/strided/random remote scans with
# ITYR_PREFETCH off vs on: fetch-stall virtual time, useful/wasted byte
# ratios) -> BENCH_prefetch.json.
echo "#### bench/ablation_prefetch"
./build/bench/ablation_prefetch BENCH_prefetch.json
echo

# Release-protocol ablation (cilksort + write-heavy burst with
# ITYR_ASYNC_RELEASE off vs on: release-stall virtual time, epoch pipelining
# counters, cross-mode checksum) -> BENCH_release.json.
echo "#### bench/ablation_release"
./build/bench/ablation_release BENCH_release.json
echo

# Simulator-core scaling sweep (16..1024 ranks on the tournament-tree rank
# queue and the asm context switch, flat/fat_tree topologies:
# resumes/sec, wall-per-virtual-second, peak RSS) -> BENCH_simcore.json.
echo "#### bench/sim_scaling"
./build/bench/sim_scaling BENCH_simcore.json
echo

# Online critical-path profiler sweep (cilksort + UTS-Mem at two grain sizes
# with ITYR_CRITPATH: work/span/parallelism, span bucket breakdown,
# network-free what-if projection, task/steal/fence percentile histograms,
# steal counts, flat-vs-fat_tree what-if contrast) -> BENCH_critpath.json. bench/perf_guard.sh
# compares the --smoke variant against bench/baseline_critpath.json.
echo "#### bench/critical_path"
./build/bench/critical_path BENCH_critpath.json
echo

