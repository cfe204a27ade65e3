"""Alternating A/B pairs: what scripts/ab_simbench.py and ab_figures.py share.

Every pair runs the base and the head build once. Sequential pairs run one
side after the other, and which side goes first alternates from pair to
pair, so a drift in machine load hits both sides alike. Concurrent pairs
run both sides at once, each pinned to its own core (the last two cores
this process may use), and the sides swap cores from pair to pair. Two
cores of a shared host need not run equally fast, so a concurrent set has
an even number of pairs, and its summary also holds "swap_ratios": the
geometric mean of the head/base ratios of pairs 1 and 2, 3 and 4, and so
on. Each such couple runs the head once on each core, which cancels a
steady difference between the cores.
"""

import math
import os
import statistics
import sys

SIDES = ("base", "head")


def fail(message):
    print(f"{os.path.basename(sys.argv[0])}: {message}", file=sys.stderr)
    sys.exit(2)


def check_pairs(pairs, concurrent):
    if pairs < 1:
        fail("--pairs must be at least 1")
    if concurrent and pairs % 2 != 0:
        fail("--concurrent needs an even --pairs, so the head runs as often on each core")


def pinned_cores():
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) < 2:
        fail("--concurrent needs two cores; this process may use one")
    return allowed[-2:]


def batches(pair, cores):
    """The runs of pair number `pair` (from 0), as batches to start together:
    lists of (side, core). Sequential (`cores` None): one side per batch,
    unpinned. Concurrent: one batch, the first side in order on cores[0]."""
    order = SIDES if pair % 2 == 0 else SIDES[::-1]
    if cores is None:
        return [[(side, None)] for side in order]
    return [list(zip(order, cores))]


def pin(core):
    """A Popen preexec_fn that pins the child to `core` (None: no pinning)."""
    return None if core is None else (lambda: os.sched_setaffinity(0, {core}))


def summarize(values):
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values)}


def compare(base, head, lower, concurrent):
    """Both sides' summaries, the head's change of median, its wins (better
    by `lower`; ties win nothing), and the per-pair head/base ratios with
    their median; for a concurrent set, the swap ratios too."""
    base_s, head_s = summarize(base), summarize(head)
    ratios = [h / b if b else None for b, h in zip(base, head)]
    known = [r for r in ratios if r is not None]
    out = {
        "base": base_s,
        "head": head_s,
        "change": head_s["median"] / base_s["median"] - 1.0 if base_s["median"] else None,
        "head_wins": sum(1 for b, h in zip(base, head) if (h < b if lower else h > b)),
        "ratios": ratios,
        "ratio_median": statistics.median(known) if known else None,
    }
    if concurrent:
        swapped = [math.sqrt(r1 * r2) for r1, r2 in zip(ratios[0::2], ratios[1::2])
                   if r1 is not None and r2 is not None]
        out["swap_ratios"] = swapped
        out["swap_ratio_median"] = statistics.median(swapped) if swapped else None
    return out
