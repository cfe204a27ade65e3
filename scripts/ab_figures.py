#!/usr/bin/env python3
"""A/B-compare the full-mode wall and CPU time of figure benches from two builds.

    scripts/ab_figures.py --base DIR --head DIR [--bench NAME ...]
                          [--pairs N] [--json PATH] [--concurrent]

Each DIR is a CMake build directory of one tree (it holds bench/<NAME>).
Every pair runs each bench once per side in full mode (no
DRACONIS_BENCH_QUICK), serially (--parallelism=1) and with --json into a
scratch directory, in the alternating pairs of scripts/ab_pairs.py:
sequential by default, or with --concurrent both sides at once on two
pinned cores (then --pairs must be even). The JSON written to --json
(default stdout) holds, per bench and for both wall and user CPU seconds:
both sides' values and their summaries, how many pairs the head won, each
pair's head/base ratio and their median (and, concurrent, the swap
ratios); and whether every head sweep report was byte-identical to the
base's of the same pair. User CPU time leaves out the time a run waits
for a core, so on a shared host it varies less than wall time. The exit
code is non-zero when a run fails or a report differs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

from ab_pairs import batches, check_pairs, compare, fail, pin, pinned_cores

DEFAULT_BENCHES = [
    "fig05a_latency_500us",
    "fig05b_throughput",
    "fig06_synthetic_suite",
    "fig08_jbsq_size",
    "tab_scalability",
    "fig_scalability_racks",
    "fig_pifo_policies",
]


def start(build_dir, bench, report, workdir, core):
    binary = os.path.join(build_dir, "bench", bench)
    if not os.access(binary, os.X_OK):
        fail(f"no bench binary {binary}")
    env = dict(os.environ)
    env.pop("DRACONIS_BENCH_QUICK", None)
    cmd = [binary, "--parallelism=1", "--progress=false", f"--json={report}"]
    return subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, preexec_fn=pin(core))


def finish(procs, started):
    """Waits for every (proc, report) in `procs`, a dict by side, in the
    order they end; returns each side's wall and user seconds and report."""
    by_pid = {proc.pid: (side, proc, report) for side, (proc, report) in procs.items()}
    done = {}
    while by_pid:
        pid, status, usage = os.wait4(-1, 0)
        if pid not in by_pid:
            continue
        side, proc, report = by_pid.pop(pid)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            fail(f"{proc.args[0]} exited {proc.returncode}")
        with open(report, "rb") as f:
            done[side] = ({"wall": wall, "user": usage.ru_utime}, f.read())
    return done


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the reference build directory")
    parser.add_argument("--head", required=True, help="the build directory under test")
    parser.add_argument("--bench", action="append", help="bench to run (default: seven)")
    parser.add_argument("--pairs", type=int, default=4)
    parser.add_argument("--json", help="output path (default: stdout)")
    parser.add_argument("--concurrent", action="store_true",
                        help="run each pair's two sides at once, pinned to two cores")
    args = parser.parse_args()
    check_pairs(args.pairs, args.concurrent)
    cores = pinned_cores() if args.concurrent else None
    builds = {"base": args.base, "head": args.head}
    benches = args.bench or DEFAULT_BENCHES
    times = {b: {side: {"wall": [], "user": []} for side in builds} for b in benches}
    identical = {b: True for b in benches}
    with tempfile.TemporaryDirectory(prefix="ab_figures_") as workdir:
        for pair in range(args.pairs):
            for bench in benches:
                reports = {}
                for batch in batches(pair, cores):
                    started = time.perf_counter()
                    procs = {}
                    for side, core in batch:
                        report = os.path.join(workdir, f"{side}_{bench}.json")
                        procs[side] = (start(builds[side], bench, report, workdir, core), report)
                    for side, (took, reports[side]) in finish(procs, started).items():
                        for kind, seconds in took.items():
                            times[bench][side][kind].append(seconds)
                same = reports["base"] == reports["head"]
                identical[bench] = identical[bench] and same
                base, head = times[bench]["base"], times[bench]["head"]
                print(f"pair {pair + 1}/{args.pairs} {bench}: wall base {base['wall'][-1]:.2f} s"
                      f" head {head['wall'][-1]:.2f} s, user base {base['user'][-1]:.2f} s"
                      f" head {head['user'][-1]:.2f} s, report"
                      f" {'identical' if same else 'DIFFERS'}", file=sys.stderr)
    out = {
        "schema": "ab_figures/1",
        "pairs": args.pairs,
        "parallelism": 1,
        "mode": "full, " + ("concurrent, swapping cores" if cores else
                            "sequential, alternating order"),
        "benches": {},
    }
    if cores is not None:
        out["cores"] = cores
    for bench in benches:
        base, head = times[bench]["base"], times[bench]["head"]
        out["benches"][bench] = {
            "unit": "s",
            "wall": compare(base["wall"], head["wall"], True, cores is not None),
            "user": compare(base["user"], head["user"], True, cores is not None),
            "reports_identical": identical[bench],
        }
    text = json.dumps(out, indent=1)
    if args.json:
        with open(args.json, "w") as f:
            f.write(text + "\n")
    else:
        print(text)
    sys.exit(0 if all(identical.values()) else 1)


if __name__ == "__main__":
    main()
