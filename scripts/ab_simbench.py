#!/usr/bin/env python3
"""A/B-compare two simbench builds in alternating pairs of runs.

    scripts/ab_simbench.py --base DIR --head DIR [--pairs N] [--seconds S]
                           [--workload NAME ...] [--heldout] [--json PATH]
                           [--concurrent]

Each DIR is a build directory: a CARGO_TARGET_DIR that simbench/run.py has
built into (it holds simbench/simbench), or that directory's simbench/
itself. To compare against a parent commit, check the parent out into its
own tree (git worktree, git clone or git archive) and build it there:

    CARGO_TARGET_DIR=/tmp/base python3 <parent tree>/simbench/run.py \\
        --workload fig05a-draconis-150k --seconds 1
    CARGO_TARGET_DIR=/tmp/head python3 simbench/run.py \\
        --workload fig05a-draconis-150k --seconds 1
    scripts/ab_simbench.py --base /tmp/base --head /tmp/head --pairs 10

Every pair runs both binaries once per workload, one after the other on the
same machine; which side goes first alternates from pair to pair, so a
drift in machine load hits both sides alike. The JSON written to --json
(default stdout) holds, per workload and end-to-end metric: both sides'
values, medians and quartiles, the head's change of median, how many pairs
the head won, and each pair's head/base ratio with the median of those
ratios. A pair is won when the head's value is better by the metric's
"better" direction in BENCHMARK.json; ties win nothing. The exit code is
non-zero when a run fails or reports "correct": false.

--concurrent runs the two sides of a pair at the same time instead, each
pinned to its own core (scripts/ab_pairs.py: the sides swap cores from
pair to pair, --pairs must be even, and the report adds "swap_ratios").
On a shared host whose load drifts over seconds, the two runs of a pair
then see the same load, and the median of the per-pair ratios is the
number to read. On a 4-core VM the sequential median dag run_s of one
build read 0.180 s in one 10-pair 3 s set and 0.127 s in another an hour
later, while a concurrent set of that build against itself gave a median
ratio of 0.993 (single pairs from 0.70 to 1.23). The benchmark itself
(simbench/run.py) still runs its workloads one at a time, so an
end-to-end claim also needs a sequential set.
"""

import argparse
import json
import os
import subprocess
import sys

from ab_pairs import batches, check_pairs, compare, fail, pin, pinned_cores

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "ab_simbench/1"
RUN_TIMEOUT_S = 600


def binary_in(build_dir):
    for candidate in (os.path.join(build_dir, "simbench", "simbench"),
                      os.path.join(build_dir, "simbench")):
        if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
            return os.path.abspath(candidate)
    fail(f"no simbench binary under {build_dir} (build it with simbench/run.py)")


def start(binary, workload, seconds, heldout, core):
    cmd = [binary, "--workload", workload, "--seconds", str(seconds)]
    if heldout:
        cmd.append("--heldout")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, preexec_fn=pin(core))


def finish(proc, binary, workload):
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail(f"{binary} --workload {workload} timed out")
    lines = stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{binary} --workload {workload} printed no result line (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct", False):
        fail(f"{binary} --workload {workload} failed a check (exit {proc.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the reference build directory")
    parser.add_argument("--head", required=True, help="the build directory under test")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=3)
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="repeatable; default: every workload in BENCHMARK.json")
    parser.add_argument("--heldout", action="store_true", help="use the held-out seed")
    parser.add_argument("--json", help="output path (default: stdout)")
    parser.add_argument("--concurrent", action="store_true",
                        help="run each pair's two sides at once, pinned to two cores")
    args = parser.parse_args()
    check_pairs(args.pairs, args.concurrent)
    cores = pinned_cores() if args.concurrent else None

    binaries = {"base": binary_in(args.base), "head": binary_in(args.head)}
    chosen = args.workload or workloads
    values = {w: {side: [] for side in binaries} for w in chosen}
    for pair in range(args.pairs):
        for workload in chosen:
            layout = batches(pair, cores)
            results = {}
            for batch in layout:
                procs = {side: start(binaries[side], workload, args.seconds, args.heldout, core)
                         for side, core in batch}
                for side, proc in procs.items():
                    results[side] = finish(proc, binaries[side], workload)
            how = (", ".join(f"{side} on core {core}" for side, core in layout[0])
                   if cores is not None else f"{layout[0][0][0]} first")
            for side in binaries:
                values[workload][side].append(results[side])
            print(f"pair {pair + 1}/{args.pairs} {workload}: run_s base "
                  f"{results['base']['run_s']:.4f} head {results['head']['run_s']:.4f} ({how})",
                  file=sys.stderr)

    report = {
        "schema": SCHEMA,
        "base": args.base,
        "head": args.head,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": "heldout" if args.heldout else "pinned",
        "mode": "concurrent" if cores is not None else "sequential",
        "workloads": {},
    }
    if cores is not None:
        report["cores"] = cores
    for workload in chosen:
        out = {}
        for name, metric in metrics.items():
            base = [run[name] for run in values[workload]["base"]]
            head = [run[name] for run in values[workload]["head"]]
            out[name] = {"unit": metric["unit"], "better": metric["better"]}
            out[name].update(compare(base, head, metric["better"] == "lower", cores is not None))
            out[name]["identical"] = base == head
        report["workloads"][workload] = out

    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        with open(args.json, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    for workload, out in report["workloads"].items():
        for name, m in out.items():
            change = "n/a" if m["change"] is None else f"{100 * m['change']:+.1f}%"
            ratio = "n/a" if m["ratio_median"] is None else f"{m['ratio_median']:.3f}"
            if m.get("swap_ratio_median") is not None:
                ratio += f" (swapped {m['swap_ratio_median']:.3f})"
            print(f"{workload:24s} {name:16s} base {m['base']['median']:.6g} head "
                  f"{m['head']['median']:.6g} {change:>8s} ratio {ratio} wins "
                  f"{m['head_wins']}/{args.pairs}"
                  f"{' identical' if m['identical'] else ''}", file=sys.stderr)


if __name__ == "__main__":
    main()
