#!/usr/bin/env python3
"""A/B-compare two simbench builds in alternating pairs of runs.

    scripts/ab_simbench.py --base DIR --head DIR [--pairs N] [--seconds S]
                           [--workload NAME ...] [--heldout] [--json PATH]

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
values, medians and quartiles, the head's change of median, and how many
pairs the head won. A pair is won when the head's value is better by the
metric's "better" direction in BENCHMARK.json; ties win nothing. The exit
code is non-zero when a run fails or reports "correct": false.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCHEMA = "ab_simbench/1"
RUN_TIMEOUT_S = 600


def fail(message):
    print(f"ab_simbench: {message}", file=sys.stderr)
    sys.exit(2)


def binary_in(build_dir):
    for candidate in (os.path.join(build_dir, "simbench", "simbench"),
                      os.path.join(build_dir, "simbench")):
        if os.path.isfile(candidate) and os.access(candidate, os.X_OK):
            return os.path.abspath(candidate)
    fail(f"no simbench binary under {build_dir} (build it with simbench/run.py)")


def run(binary, workload, seconds, heldout):
    cmd = [binary, "--workload", workload, "--seconds", str(seconds)]
    if heldout:
        cmd.append("--heldout")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"{binary} --workload {workload} printed no result line (exit {proc.returncode})")
    if proc.returncode != 0 or not result.get("correct", False):
        fail(f"{binary} --workload {workload} failed a check (exit {proc.returncode})")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(values):
    q1, q3 = quartiles(values)
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


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
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be at least 1")

    binaries = {"base": binary_in(args.base), "head": binary_in(args.head)}
    chosen = args.workload or workloads
    values = {w: {side: [] for side in binaries} for w in chosen}
    for pair in range(args.pairs):
        order = ["base", "head"] if pair % 2 == 0 else ["head", "base"]
        for workload in chosen:
            for side in order:
                values[workload][side].append(
                    run(binaries[side], workload, args.seconds, args.heldout))
            run_s = {side: values[workload][side][-1]["run_s"] for side in order}
            print(f"pair {pair + 1}/{args.pairs} {workload}: run_s base "
                  f"{run_s['base']:.4f} head {run_s['head']:.4f} ({order[0]} first)",
                  file=sys.stderr)

    report = {
        "schema": SCHEMA,
        "base": args.base,
        "head": args.head,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": "heldout" if args.heldout else "pinned",
        "workloads": {},
    }
    for workload in chosen:
        out = {}
        for name, metric in metrics.items():
            base = [run[name] for run in values[workload]["base"]]
            head = [run[name] for run in values[workload]["head"]]
            lower = metric["better"] == "lower"
            wins = sum(1 for b, h in zip(base, head) if (h < b if lower else h > b))
            base_s, head_s = summarize(base), summarize(head)
            out[name] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "base": base_s,
                "head": head_s,
                "change": (head_s["median"] / base_s["median"] - 1.0
                           if base_s["median"] else None),
                "head_wins": wins,
                "identical": base == head,
            }
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
            print(f"{workload:24s} {name:16s} base {m['base']['median']:.6g} head "
                  f"{m['head']['median']:.6g} {change:>8s} wins {m['head_wins']}/{args.pairs}"
                  f"{' identical' if m['identical'] else ''}", file=sys.stderr)


if __name__ == "__main__":
    main()
