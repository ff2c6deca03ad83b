"""Measure the one-listing crossing search against its parent commit:
BENCH_listing.json.

Usage:
    python3 tools/bench_listing.py --parent DIR --change DIR --out BENCH_listing.json

DIR is a clean checkout of one side (``git archive`` of the commit), each
with its own ``bench/``. The script runs, one process at a time:

* ``bench/run.py`` end to end (15 s runs) in alternating pairs: ten on
  crossing-one-third and three on each other workload, the first side
  swapping every pair;
* one traced run (``--trace 1``) per workload and side, which also passes
  or fails ``bench/run.py``'s trace check;
* ``bottleneck_crossing`` on ``gen_points(1000000, 1, "uniform")`` in each
  tree, one process per side, for ``ROUNDS`` rounds, the first side
  swapping every round, with the cyclic collector off: the whole call,
  the stages under it (module attributes wrapped by name), the peak RSS
  (``ru_maxrss``) and a digest of the result.

The end-to-end and traced helpers are ``tools/bench_mst.py``'s. The output
file is rewritten after every step, so an interrupted run keeps what it
measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from bench_mst import SIDES, child, end_to_end, traced

# (workload, pairs, first seed): seeds not used while the change was written.
PLAN = (("crossing-one-third", 10, 35101), ("approx2-uniform", 3, 35201),
        ("approx1-clustered", 3, 35301), ("udg-lattice", 3, 35401))
TRACE_SEEDS = {"crossing-one-third": 35501, "approx2-uniform": 35601, "approx1-clustered": 35701,
               "udg-lattice": 35801}
TRACED = ("proximity.qhull.s", "proximity.disk_graph.s", "proximity.disk_graph.calls", "proximity.disk_graph.edges",
          "blossom.bottleneck_crossing.self_s", "blossom.max_matching_pairs.s", "udg.one_third.self_s",
          "unattributed_frac", "trace.solve_s_p50")
N_LARGE = 1000000
ROUNDS = 3

CROSSING_CHILD = r"""
import gc, hashlib, json, resource, sys, time
import planematch.blossom as bl
import planematch.proximity as prox
from planematch.io import gen_points
spent, calls, active = {}, {}, []
def wrap(owner, name):
    fn = getattr(owner, name)
    def timed(*a, **k):
        # The kernel's time is kept apart by caller: under pairs_within or
        # under disk_graph (the parent's second listing at L).
        key = f"{name} in {active[-1]}" if name == "_near_pairs" and active else name
        active.append(name)
        t = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t
            calls[key] = calls.get(key, 0) + 1
            active.pop()
    setattr(owner, name, timed)
for owner, name in ((prox, "_near_pairs"), (bl, "pairs_within"), (bl, "disk_graph"),
                    (bl, "max_matching_pairs"), (bl, "tutte_barrier")):
    wrap(owner, name)
gc.disable()
pts = gen_points(int(sys.argv[1]), 1, "uniform")
rss_before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
t = time.perf_counter()
res = bl.bottleneck_crossing(pts)
spent["bottleneck_crossing"] = time.perf_counter() - t
spent["pairs_within sort"] = spent["pairs_within"] - spent["_near_pairs in pairs_within"]
print(json.dumps({"s": {k: round(v, 4) for k, v in spent.items()}, "calls": calls,
                  "rss_after_gen_mb": round(rss_before, 1),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "bottleneck_sq": res.bottleneck_sq, "lower_sq": res.lower_sq,
                  "digest": hashlib.sha256(repr(res.matching.pairs).encode()).hexdigest()}))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {platform.processor() or 'cpu'}, {os.cpu_count()} CPUs; "
                       f"Python {platform.python_version()}, numpy {np.__version__}",
           "command": "python3 tools/bench_listing.py --parent DIR --change DIR --out BENCH_listing.json",
           "end_to_end": {}, "traced": {}, "in_process": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    doc["src_lines"] = {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                  for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES}
    for workload, pairs, seed0 in PLAN:
        doc["end_to_end"][workload] = end_to_end(dirs, workload, pairs, seed0)
        save()
    row = doc["end_to_end"]["crossing-one-third"].get("solve_ref_p50")
    if row:
        parent, change = row["parent"], row["change"]
        gap, iqr = parent["median"] - change["median"], parent["q3"] - parent["q1"]
        doc["claim"] = {"metric": "solve_ref_p50", "workload": "crossing-one-third",
                        "parent_median": parent["median"], "change_median": change["median"],
                        "parent_iqr": round(iqr, 6), "change_vs_parent_median": row["change_vs_parent_median"],
                        "change_lower_in": row["change_lower_in"], "pairs": len(parent["runs"]),
                        "met": row["change_lower_in"] >= 0.9 * len(parent["runs"]) and gap > iqr}
        save()
    for workload, seed in TRACE_SEEDS.items():
        doc["traced"][workload] = traced(dirs, workload, seed, TRACED)
        save()
    doc["in_process"][f"bottleneck_crossing_uniform_{N_LARGE}"] = at_scale(dirs)
    save()
    return 0


def at_scale(dirs: dict) -> dict:
    """``CROSSING_CHILD`` on ``N_LARGE`` points, one process per side and
    round, the first side swapping every round."""
    runs = {side: [] for side in SIDES}
    for r in range(ROUNDS):
        for side in SIDES[:: 1 - 2 * (r % 2)]:
            runs[side].append(child(dirs[side], CROSSING_CHILD, N_LARGE))
            print("bottleneck_crossing", N_LARGE, side, runs[side][-1]["s"]["bottleneck_crossing"], flush=True)
    row = {"rounds": ROUNDS, "runs": runs}
    for side in SIDES:
        row[side] = {key: [x["s"][key] for x in runs[side]] for key in runs[side][0]["s"]}
        row[side]["peak_rss_mb"] = [x["peak_rss_mb"] for x in runs[side]]
    row["results_equal"] = len({(x["bottleneck_sq"], x["lower_sq"], x["digest"])
                                for side in SIDES for x in runs[side]}) == 1
    return row


if __name__ == "__main__":
    sys.exit(main())
