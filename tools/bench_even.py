"""Measure the even forest cut from the MST against its parent commit:
BENCH_even.json.

Usage:
    python3 tools/bench_even.py --parent DIR --change DIR --out BENCH_even.json

DIR is a clean checkout of one side (``git archive`` of the commit), each
with its own ``bench/``. The script runs, one process at a time:

* ``bench/run.py`` end to end (15 s runs) in alternating pairs: ten on
  approx2-uniform and three on each other workload, the first side
  swapping every pair;
* traced runs (``--trace 1``), which also pass or fail ``bench/run.py``'s
  trace check: five pairs on approx2-uniform and one on each other
  workload;
* ``even_forest`` in each tree on ``gen_points(n, 1, mode)`` for 6k, 100k
  and 1M uniform and 1M clustered, one process per side and input (the
  first side swapping every input): one full call, whose peak RSS
  (``ru_maxrss``) is recorded, then repeated calls with the Delaunay edges
  and their sort served from the first, so that they time what follows the
  sort, with the cyclic collector off as under ``second_approx``. The
  forests are compared by digest;
* ``delaunay`` under both tie rules on 100k uniform points in
  [0, 10^17)^2, past the 2^53 span where the float filter stops, one
  process per side, with the triangulations compared by digest; and
  ``second_approx_detailed`` on those points and on
  ``gen_points(100000, 1, "uniform")``, a small span.

The end-to-end and traced helpers are ``tools/bench_mst.py``'s. The output
file is rewritten after every step, so an interrupted run keeps what it
measured.
"""
from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path

import numpy as np

from bench_mst import SIDES, child, end_to_end, traced

# (workload, pairs, first seed): seeds not used while the change was written.
PLAN = (("approx2-uniform", 10, 25101), ("approx1-clustered", 3, 25201),
        ("udg-lattice", 3, 25301), ("crossing-one-third", 3, 25401))
TRACE_PLAN = (("approx2-uniform", 5, 25501), ("approx1-clustered", 1, 25601),
              ("udg-lattice", 1, 25701), ("crossing-one-third", 1, 25801))
INPUTS = ((6000, "uniform", 21), (100000, "uniform", 7), (1000000, "uniform", 3), (1000000, "clustered", 3))

EVEN_CHILD = r"""
import gc, hashlib, json, resource, statistics, sys, time
import planematch.bottleneck_two as b2
import planematch.proximity as prox
from planematch.io import gen_points
n, mode, repeats = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
pts = gen_points(n, 1, mode)
gc.disable()
t = time.perf_counter()
ef = b2.even_forest(pts)
full_s = time.perf_counter() - t
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
tri = pts._delaunay
edges = prox.sorted_candidate_edges(pts, tri)
for owner in (prox, b2):
    owner.delaunay = lambda p, canonical=True: tri
    owner.sorted_candidate_edges = lambda p, e: edges
after_sort = []
for _ in range(repeats):
    t = time.perf_counter()
    again = b2.even_forest(pts)
    after_sort.append(time.perf_counter() - t)
h = hashlib.sha256(repr((ef.last_edge, ef.last_sq, again.last_edge, again.last_sq)).encode())
for tree in ef.forest.trees:
    h.update(repr((tree.vertices, tree.sq.tolist(), [(tree.deg[x], tree.int_deg[x]) for x in tree.vertices])).encode())
    h.update(tree.u.tobytes() + tree.v.tobytes())
print(json.dumps({"n": n, "mode": mode, "repeats": repeats, "trees": len(ef.forest.trees),
                  "full_call_s": round(full_s, 4), "after_sort_s": [round(x, 5) for x in after_sort],
                  "after_sort_median_s": round(statistics.median(after_sort), 5),
                  "peak_rss_mb": round(peak, 1), "digest": h.hexdigest()}))
"""

DELAUNAY_CHILD = r"""
import gc, hashlib, json, random, resource, statistics, sys, time
import scipy.spatial
from planematch.bottleneck_two import second_approx_detailed
from planematch.geometry import PointSet
from planematch.io import gen_points
from planematch.proximity import delaunay
n, repeats = int(sys.argv[1]), int(sys.argv[2])
rng = random.Random(1)
pts = PointSet(dict.fromkeys((rng.randrange(10**17), rng.randrange(10**17)) for _ in range(n)))
out = {"n": pts.n, "span": "10^17", "repeats": repeats}
for canonical in (True, False):
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        tri = delaunay(pts, canonical=canonical)
        times.append(time.perf_counter() - t)
    out[f"canonical_{canonical}"] = {"s": [round(x, 4) for x in times], "median_s": round(statistics.median(times), 4),
                                     "digest": hashlib.sha256(tri.codes.tobytes()).hexdigest()}
out["peak_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
gc.disable()
for name, points in (("approx2_span_1e17_s", pts), ("approx2_gen_points_s", gen_points(n, 1, "uniform"))):
    out[name] = []
    for _ in range(2):
        fresh = PointSet(zip(points.xs, points.ys))
        t = time.perf_counter()
        second_approx_detailed(fresh)
        out[name].append(round(time.perf_counter() - t, 3))
print(json.dumps(out))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {platform.processor() or 'cpu'}; Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
           "command": "python3 tools/bench_even.py --parent DIR --change DIR --out BENCH_even.json",
           "end_to_end": {}, "traced": {}, "in_process": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    doc["src_lines"] = {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                  for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES}
    for k, (n, mode, repeats) in enumerate(INPUTS):
        row = {side: child(dirs[side], EVEN_CHILD, n, mode, repeats) for side in SIDES[:: 1 - 2 * (k % 2)]}
        row["digests_equal"] = row["parent"]["digest"] == row["change"]["digest"]
        doc["in_process"][f"even_forest_{mode}_{n}"] = row
        print("even_forest", n, mode, {s: row[s]["after_sort_median_s"] for s in SIDES}, row["digests_equal"],
              flush=True)
        save()
    row = {side: child(dirs[side], DELAUNAY_CHILD, 100000, 3) for side in SIDES}
    row["digests_equal"] = all(row["parent"][k]["digest"] == row["change"][k]["digest"]
                               for k in ("canonical_True", "canonical_False"))
    doc["in_process"]["delaunay_uniform_100000_span_1e17"] = row
    print("delaunay 1e17", {s: row[s]["canonical_False"]["median_s"] for s in SIDES}, row["digests_equal"], flush=True)
    save()
    for workload, pairs, seed0 in PLAN:
        doc["end_to_end"][workload] = end_to_end(dirs, workload, pairs, seed0)
        save()
    for workload, pairs, seed0 in TRACE_PLAN:
        doc["traced"][workload] = [traced(dirs, workload, seed) for seed in range(seed0, seed0 + pairs)]
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
