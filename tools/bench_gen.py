"""Measure gen_points against its parent commit: BENCH_gen.json.

Usage:
    python3 tools/bench_gen.py --parent DIR --change DIR --out BENCH_gen.json

DIR is a clean checkout of one side (``git archive`` of the commit), each
with its own ``bench/``. The script runs, one process at a time:

* ``gen_points`` in each tree on the inputs of ``INPUTS``, one process per
  side and input, the first side swapping every input, for ``ROUNDS``
  rounds: the cyclic collector off, seeds 1 to repeats, the median time and
  the peak RSS (``ru_maxrss``) recorded and the outputs compared by digest;
* the Tier-1 suite once in each tree, for its wall time;
* ``bench/run.py`` end to end (15 s runs) in alternating pairs: ten on
  approx1-clustered and five on each other workload, the first side
  swapping every pair;
* one traced run (``--trace 1``) per workload and side, which also passes
  or fails ``bench/run.py``'s trace check.

The end-to-end and traced helpers are ``tools/bench_mst.py``'s. The output
file is rewritten after every step, so an interrupted run keeps what it
measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bench_mst import SIDES, child, end_to_end, traced

# (workload, pairs, first seed): seeds not used while the change was written.
PLAN = (("approx1-clustered", 10, 32101), ("approx2-uniform", 5, 32201),
        ("crossing-one-third", 5, 32301), ("udg-lattice", 5, 32401))
TRACE_SEEDS = {"approx1-clustered": 32501, "approx2-uniform": 32601, "crossing-one-third": 32701,
               "udg-lattice": 32801}
TRACED = ("io.gen_points.s", "unattributed_s", "unattributed_frac", "trace.solve_s_p50")
# (n, mode, repeats) for gen_points in process.
INPUTS = ((5000, "clustered", 21), (6000, "uniform", 21), (300, "uniform", 101),
          (1000000, "uniform", 1), (1000000, "clustered", 1))
ROUNDS = 3

GEN_CHILD = r"""
import gc, hashlib, json, resource, statistics, sys, time
from planematch.io import gen_points
n, mode, repeats = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
gc.disable()
h = hashlib.sha256()
times = []
for seed in range(1, repeats + 1):
    t = time.perf_counter()
    pts = gen_points(n, seed, mode)
    times.append(time.perf_counter() - t)
    h.update(repr((pts.xs, pts.ys)).encode())
    del pts
print(json.dumps({"median_s": round(statistics.median(times), 6),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "digest": h.hexdigest()}))
"""


def tier1(tree: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    t = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"], cwd=tree, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t
    tail = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = re.search(r"(\d+) passed", tail)
    return {"exit": proc.returncode, "wall_s": round(wall, 1), "passed": int(passed.group(1)) if passed else 0,
            "summary": tail}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {platform.processor() or 'cpu'}, {os.cpu_count()} CPUs; "
                       f"Python {platform.python_version()}, numpy {np.__version__}",
           "command": "python3 tools/bench_gen.py --parent DIR --change DIR --out BENCH_gen.json",
           "in_process": {}, "tier1": {}, "end_to_end": {}, "traced": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for n, mode, repeats in INPUTS:
        runs = {side: [] for side in SIDES}
        for r in range(ROUNDS):
            for side in SIDES[:: 1 - 2 * (r % 2)]:
                runs[side].append(child(dirs[side], GEN_CHILD, n, mode, repeats))
        row = {"repeats": repeats, "rounds": ROUNDS}
        for side in SIDES:
            row[side] = {"median_s": [x["median_s"] for x in runs[side]],
                         "peak_rss_mb": [x["peak_rss_mb"] for x in runs[side]]}
        row["change_over_parent"] = round(float(np.median(row["change"]["median_s"]))
                                          / float(np.median(row["parent"]["median_s"])), 3)
        row["digests_equal"] = len({x["digest"] for side in SIDES for x in runs[side]}) == 1
        doc["in_process"][f"gen_points_{mode}_{n}"] = row
        print("gen_points", n, mode, row["change_over_parent"], row["digests_equal"], flush=True)
        save()
    for side in SIDES:
        doc["tier1"][side] = tier1(dirs[side])
        print("tier1", side, doc["tier1"][side]["summary"], flush=True)
        save()
    for workload, pairs, seed0 in PLAN:
        doc["end_to_end"][workload] = end_to_end(dirs, workload, pairs, seed0)
        save()
    row = doc["end_to_end"]["approx1-clustered"].get("setup_s")
    if row:
        parent, change = row["parent"], row["change"]
        gap, iqr = parent["median"] - change["median"], parent["q3"] - parent["q1"]
        doc["claim"] = {"metric": "setup_s", "workload": "approx1-clustered",
                        "parent_median": parent["median"], "change_median": change["median"],
                        "parent_iqr": round(iqr, 6), "change_vs_parent_median": row["change_vs_parent_median"],
                        "change_lower_in": row["change_lower_in"], "pairs": len(parent["runs"]),
                        "met": row["change_lower_in"] >= 0.9 * len(parent["runs"]) and gap > iqr}
        save()
    for workload, seed in TRACE_SEEDS.items():
        doc["traced"][workload] = traced(dirs, workload, seed, TRACED)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
