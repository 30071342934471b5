#!/usr/bin/env python3
"""Peak resident memory of a command, broken down by mapping.

Usage (from the repository root):
    python3 tools/rss_breakdown.py -- COMMAND [ARGS...]

Runs COMMAND and samples its /proc/<pid>/smaps every 10 ms. At the sample
with the largest total Rss it prints the MiB resident in each memfd pool of
the runtime (ityr-coll-home, ityr-nc-home, ityr-cache), split into the
pools' canonical mappings and their view mappings, plus heap ([heap] and
unnamed anonymous mappings: malloc arenas, fiber stacks) and other (the
binary, libraries, the stack). Every pool is one memfd; its canonical
mapping maps the whole file from offset 0, so the longest mapping of a memfd
at offset 0 is taken as canonical and every other mapping of it is a block
mapped into a rank's view.

A page mapped twice counts twice, once per mapping, as smaps reports it.
After COMMAND exits it also prints COMMAND's ru_maxrss
(getrusage(RUSAGE_CHILDREN)), the kernel's high-water mark of its Rss, which
perfbench reports as peak_rss_mib: a peak shorter than the sampling interval
shows there and not in the breakdown, so the sampled peak can read a few MiB
lower. The exit status is COMMAND's, or 1 if COMMAND ended before the first
sample.

Example:
    python3 tools/rss_breakdown.py -- .bench_build/perfbench/perfbench \\
        --workload uts_mem --seconds 1 --trace 0
"""

import argparse
import resource
import subprocess
import sys
import time

POOLS = ("ityr-coll-home", "ityr-nc-home", "ityr-cache")
MiB = 1024 * 1024
INTERVAL = 0.01  # seconds between samples


def read_rollup_rss(pid):
    """Total Rss of the process in bytes (cheap: one summary line)."""
    with open(f"/proc/{pid}/smaps_rollup") as f:
        for line in f:
            if line.startswith("Rss:"):
                return int(line.split()[1]) * 1024
    return 0


def read_smaps(pid):
    """Every mapping as (offset, inode, name, length, rss in bytes)."""
    maps = []
    with open(f"/proc/{pid}/smaps") as f:
        for line in f:
            head = line.split(maxsplit=5)
            if "-" in head[0] and len(head) >= 5 and not head[0].endswith(":"):
                lo, hi = (int(x, 16) for x in head[0].split("-"))
                name = head[5].strip() if len(head) > 5 else ""
                maps.append([int(head[2], 16), head[4], name, hi - lo, 0])
            elif line.startswith("Rss:") and maps:
                maps[-1][4] = int(line.split()[1]) * 1024
    return maps


def pool_of(name):
    for pool in POOLS:
        if name.startswith(f"/memfd:{pool} ") or name == f"/memfd:{pool}":
            return pool
    return None


def breakdown(maps):
    """Bytes per row: (pool, "canonical"|"view"), "heap" and "other"."""
    rows = {(pool, kind): 0 for pool in POOLS for kind in ("canonical", "view")}
    rows["heap"] = 0
    rows["other"] = 0
    canonical = {}  # memfd inode -> index of its longest mapping at offset 0
    for i, (off, inode, name, length, _) in enumerate(maps):
        if pool_of(name) and off == 0:
            j = canonical.get(inode)
            if j is None or maps[j][3] < length:
                canonical[inode] = i
    for i, (_, inode, name, _, rss) in enumerate(maps):
        pool = pool_of(name)
        if pool:
            rows[(pool, "canonical" if canonical.get(inode) == i else "view")] += rss
        elif name in ("", "[heap]"):
            rows["heap"] += rss
        else:
            rows["other"] += rss
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- COMMAND [ARGS...]")
    args = ap.parse_args()
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not cmd:
        ap.error("no command given")

    proc = subprocess.Popen(cmd)
    t0 = time.monotonic()
    samples = 0
    peak_rollup = -1
    best = None  # (total bytes, rows, seconds since start)
    while proc.poll() is None:
        try:
            rss = read_rollup_rss(proc.pid)
            samples += 1
            if rss > peak_rollup:
                peak_rollup = rss
                rows = breakdown(read_smaps(proc.pid))
                total = sum(rows.values())
                if best is None or total > best[0]:
                    best = (total, rows, time.monotonic() - t0)
        except (FileNotFoundError, ProcessLookupError):
            pass  # the command is exiting
        time.sleep(INTERVAL)

    if best is None:
        print("rss_breakdown: no sample: the command ended before the first read", file=sys.stderr)
        return proc.returncode or 1
    total, rows, at = best
    print(f"rss_breakdown: sampled peak Rss {total / MiB:.1f} MiB at {at:.2f} s "
          f"({samples} samples)")
    print(f"{'mapping':<16} {'canonical':>10} {'view':>10}  (MiB)")
    for pool in POOLS:
        print(f"{pool:<16} {rows[(pool, 'canonical')] / MiB:>10.1f} "
              f"{rows[(pool, 'view')] / MiB:>10.1f}")
    print(f"{'heap':<16} {rows['heap'] / MiB:>10.1f}")
    print(f"{'other':<16} {rows['other'] / MiB:>10.1f}")
    print(f"{'total':<16} {total / MiB:>10.1f}")
    # Linux reports ru_maxrss in KiB.
    maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024
    print(f"rss_breakdown: true peak Rss {maxrss / MiB:.1f} MiB (ru_maxrss)")
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
