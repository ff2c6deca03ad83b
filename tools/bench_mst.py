"""Measure the Borůvka MST kernel against its parent commit: BENCH_mst.json.

Usage:
    python3 tools/bench_mst.py --parent DIR --change DIR --out BENCH_mst.json

DIR is a clean checkout of one side (``git archive`` of the commit), each
with its own ``bench/``. The script runs, one process at a time:

* ``bench/run.py`` end to end (15 s runs) in alternating pairs: ten on
  approx1-clustered and three on each other workload, the first side
  swapping every pair;
* one traced run (``--trace 1``) per workload and side, which also passes
  or fails ``bench/run.py``'s trace check;
* in the change's tree, the old ``emst5`` Kruskal pass and ``boruvka`` on
  the same sorted Delaunay edges, timed alternately with the cyclic
  collector off, with the taken edges compared;
* ``first_approx`` on ``gen_points(1000000, 1, "uniform")`` in each tree,
  with stage times (module attributes wrapped by name) and peak RSS.

The output file is rewritten after every step, so an interrupted run keeps
what it measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
METRICS = ("solve_ref_p50", "solve_ref_tail", "points_per_ref", "setup_s", "peak_rss_mb",
           "ok_frac", "size_frac", "bottleneck_over_lb")
LOWER_IS_BETTER = {"points_per_ref": False, "ok_frac": False, "size_frac": False}
TRACED = ("proximity.delaunay.self_s", "proximity.sorted_candidate_edges.s", "proximity.emst5.self_s",
          "bottleneck_one.critical_edge.self_s", "bottleneck_one.compare_to_opt.s",
          "proximity.forest_leq.s", "bottleneck_one.match_tree_first.s", "udg.run_peeling.s",
          "proximity.disk_graph.s", "bottleneck_two.even_forest.self_s",
          "bottleneck_two.match_tree_detailed.s", "unattributed_frac", "trace.solve_s_p50")
# (workload, pairs, first seed): seeds not used while the change was written.
PLAN = (("approx1-clustered", 10, 24101), ("udg-lattice", 3, 24201),
        ("approx2-uniform", 3, 24301), ("crossing-one-third", 3, 24401))
TRACE_SEEDS = {"approx1-clustered": 24501, "udg-lattice": 24601, "approx2-uniform": 24701,
               "crossing-one-third": 24801}

MST_CHILD = r"""
import gc, json, sys, time
from itertools import islice
import numpy as np
import scipy.spatial
from planematch.io import gen_points
from planematch.proximity import boruvka, delaunay, indexed, kruskal, sorted_candidate_edges
n, mode, repeats = int(sys.argv[1]), sys.argv[2], int(sys.argv[3])
gc.disable()
pts = gen_points(n, 1, mode)
edges = sorted_candidate_edges(pts, delaunay(pts, canonical=False))
times = {"kruskal": [], "boruvka": []}
for _ in range(repeats):
    t = time.perf_counter()
    parent = list(range(n))
    old = [i for i, _, _, _ in islice(kruskal(indexed(edges), n, n, parent), n - 1)]
    times["kruskal"].append(time.perf_counter() - t)
    t = time.perf_counter()
    new, label = boruvka(n, edges)
    times["boruvka"].append(time.perf_counter() - t)
print(json.dumps({"n": n, "mode": mode, "edges": len(edges[0]), "repeats": repeats,
                  "equal": new.tolist() == old, "s": times}))
"""

APPROX1_CHILD = r"""
import gc, json, resource, sys, time
import scipy.spatial
import planematch.bottleneck_one as b1
import planematch.proximity as prox
from planematch.io import gen_points
spent = {}
def wrap(owner, name, key):
    fn = getattr(owner, name)
    def timed(*a, **k):
        t = time.perf_counter()
        try:
            return fn(*a, **k)
        finally:
            spent[key] = spent.get(key, 0.0) + time.perf_counter() - t
    setattr(owner, name, timed)
for owner, name in ((prox, "delaunay"), (prox, "sorted_candidate_edges"), (b1, "emst5"),
                    (b1, "critical_edge"), (b1, "compare_to_opt"), (b1, "second_closest_batch"),
                    (b1, "match_tree_first")):
    wrap(owner, name, name)
t = time.perf_counter()
pts = gen_points(int(sys.argv[1]), 1, "uniform")
spent["gen_points"] = time.perf_counter() - t
t = time.perf_counter()
m = b1.first_approx(pts)
spent["first_approx"] = time.perf_counter() - t
spent["emst5_rest"] = spent["emst5"] - spent["delaunay"] - spent["sorted_candidate_edges"]
print(json.dumps({"s": {k: round(v, 4) for k, v in spent.items()}, "pairs": len(m.pairs),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)}))
"""


def run_bench(tree: Path, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "15", "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out = {"exit": proc.returncode, "digest": None, "result": None}
    for line in proc.stdout.splitlines():
        if line.startswith("digest "):
            out["digest"] = line.split()[1]
    if proc.returncode == 0:
        out["result"] = json.loads(proc.stdout.strip().splitlines()[-1])
    else:
        out["stderr"] = proc.stderr.strip()[-400:]
    return out


def child(tree: Path, code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=tree, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")),
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75]).tolist()
    return {"median": round(med, 6), "q1": round(q1, 6), "q3": round(q3, 6), "runs": runs}


def compare(runs: dict, metric: str) -> dict:
    row = {side: quartiles(runs[side]) for side in SIDES}
    p, c = row["parent"]["median"], row["change"]["median"]
    row["change_vs_parent_median"] = round((c - p) / p, 4) if p else None
    row["change_lower_in"] = sum(b < a for a, b in zip(runs["parent"], runs["change"]))
    row["change_higher_in"] = sum(b > a for a, b in zip(runs["parent"], runs["change"]))
    row["better"] = "lower" if LOWER_IS_BETTER.get(metric, True) else "higher"
    return row


def end_to_end(dirs: dict, workload: str, pairs: int, seed0: int) -> dict:
    seeds = list(range(seed0, seed0 + pairs))
    first = [SIDES[i % 2] for i in range(pairs)]
    got = {side: [] for side in SIDES}
    for seed, lead in zip(seeds, first):
        for side in (lead, SIDES[1 - SIDES.index(lead)]):
            got[side].append(run_bench(dirs[side], workload, seed, trace=False))
            print(workload, seed, side, got[side][-1]["exit"], flush=True)
    row = {"seeds": seeds, "first_side": first,
           "exit_codes": {s: [r["exit"] for r in got[s]] for s in SIDES},
           "digests_equal": all(a["digest"] == b["digest"] for a, b in zip(got["parent"], got["change"])),
           "failed_jobs": {s: sum(r["result"]["failed"] for r in got[s] if r["result"]) for s in SIDES},
           "attempted_jobs": {s: sum(r["result"]["attempted"] for r in got[s] if r["result"]) for s in SIDES}}
    if all(r["result"] for s in SIDES for r in got[s]):
        for metric in METRICS:
            row[metric] = compare({s: [r["result"]["metrics"][metric]["value"] for r in got[s]] for s in SIDES},
                                  metric)
    else:
        row["errors"] = {s: [r.get("stderr") for r in got[s] if r["exit"]] for s in SIDES}
    return row


def traced(dirs: dict, workload: str, seed: int, keys=TRACED) -> dict:
    row = {"seed": seed}
    for side in SIDES:
        r = run_bench(dirs[side], workload, seed, trace=True)
        row[side] = {"exit": r["exit"], "trace_check": "passed" if r["exit"] == 0 else r.get("stderr"),
                     "digest": r["digest"]}
        if r["result"]:
            layers = r["result"]["metrics"]
            row[side].update({k: round(layers[k]["value"], 6) for k in keys})
        print(workload, "traced", side, r["exit"], flush=True)
    return row


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {platform.processor() or 'cpu'}; Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
           "command": "python3 tools/bench_mst.py --parent DIR --change DIR --out BENCH_mst.json",
           "end_to_end": {}, "traced": {}, "in_process": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    doc["src_lines"] = {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                  for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES}
    for workload, pairs, seed0 in PLAN:
        doc["end_to_end"][workload] = end_to_end(dirs, workload, pairs, seed0)
        save()
    row = doc["end_to_end"]["approx1-clustered"].get("solve_ref_p50")
    if row:
        parent, change = row["parent"], row["change"]
        gap, iqr = parent["median"] - change["median"], parent["q3"] - parent["q1"]
        doc["claim"] = {"metric": "solve_ref_p50", "workload": "approx1-clustered",
                        "parent_median": parent["median"], "change_median": change["median"],
                        "parent_iqr": round(iqr, 6), "change_vs_parent_median": row["change_vs_parent_median"],
                        "change_lower_in": row["change_lower_in"], "pairs": len(parent["runs"]),
                        "met": row["change_lower_in"] >= 0.9 * len(parent["runs"]) and gap > iqr}
        save()
    for workload, seed in TRACE_SEEDS.items():
        doc["traced"][workload] = traced(dirs, workload, seed)
        save()
    for n, mode, repeats in ((5000, "clustered", 21), (100000, "uniform", 7), (1000000, "uniform", 3),
                             (1000000, "clustered", 3)):
        row = child(dirs["change"], MST_CHILD, n, mode, repeats)
        row["median_s"] = {k: round(statistics.median(v), 5) for k, v in row.pop("s").items()}
        doc["in_process"][f"mst_pass_{mode}_{n}"] = row
        print("mst pass", n, mode, row["median_s"], row["equal"], flush=True)
        save()
    doc["in_process"]["approx1_uniform_1000000"] = {side: child(dirs[side], APPROX1_CHILD, 1000000)
                                                    for side in SIDES}
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
