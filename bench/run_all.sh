#!/bin/sh
# Regenerate every paper table/figure plus the ablations, in the order of
# the paper's evaluation. Run from the repository root after building:
#
#   cmake -B build -G Ninja && cmake --build build
#   sh bench/run_all.sh | tee bench_output.txt
#
# Times are virtual seconds of the simulated cluster (see EXPERIMENTS.md).
# Keep the host otherwise idle: application compute inside the simulation is
# measured host-CPU time, so a loaded machine skews the compute:network
# ratio.
set -e
for b in table1_environment fig7_cilksort_cutoff fig8_cilksort_scaling \
         fig9_cilksort_breakdown fig10_uts_mem fig11_fmm table2_idleness \
         ablation_subblock ablation_cache_size ablation_block_dist \
         micro_primitives; do
  echo "#### bench/$b"
  ./build/bench/$b
  echo
done

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
# queue and the asm context switch, flat/fat_tree/dragonfly topologies:
# resumes/sec, wall-per-virtual-second, peak RSS) -> BENCH_simcore.json.
echo "#### bench/sim_scaling"
./build/bench/sim_scaling BENCH_simcore.json
echo

# Online critical-path profiler sweep (cilksort + UTS-Mem at two grain sizes
# with ITYR_CRITPATH: work/span/parallelism, span bucket breakdown,
# network-free what-if projection, task/steal/fence percentile histograms,
# flat-vs-fat_tree what-if contrast) -> BENCH_critpath.json. bench/perf_guard.sh
# compares the --smoke variant against bench/baseline_critpath.json.
echo "#### bench/critical_path"
./build/bench/critical_path BENCH_critpath.json
echo

# Dynamic data-placement ablation (ITYR_MIGRATION / ITYR_REPLICATION off vs
# on for a skewed-ownership RMW workload and a hot read-shared table at
# {4x8, 16x8} ranks over flat/fat_tree: inter-node bytes, hot-home fetch
# stall, critical-path what-if delta, cross-mode checksums)
# -> BENCH_placement.json. bench/perf_guard.sh compares the --smoke variant
# against bench/baseline_placement.json.
echo "#### bench/ablation_placement"
./build/bench/ablation_placement BENCH_placement.json
echo
