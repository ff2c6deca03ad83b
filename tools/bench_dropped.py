"""Measure Delaunay on inputs Qhull drops points from: BENCH_dropped.json.

Usage:
    python3 tools/bench_dropped.py --parent DIR --change DIR --out BENCH_dropped.json

DIR is a clean checkout of one side (``git archive`` of the commit). The
script runs, one process at a time:

* for every timed row, ``delaunay(pts, canonical=False)`` once per side, in
  a child process that imports that side's ``src/``, with the cyclic
  collector off; it records the seconds, the calls of ``_FlipMesh.flip``
  and how many points Qhull's own call left out. The rows are k points on
  y = 0 with two far points (k = 500 to 4,000), uniform points with far or
  collinear points added, and a Qhull stand-in that drops one point of
  20k uniform;
* a census, in the change's tree only (both sides make the same Qhull
  call), of the points Qhull drops and of its triangles that are not
  strictly counterclockwise, on natural inputs and on the instances of
  three benchmark workloads;
* ``bench/run.py`` end to end once per workload and side (15 s runs),
  parent first, as a check that no metric moved.

The output file is rewritten after every step, so an interrupted run keeps
what it measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
CLAIM = ("none: no benchmark instance in the census has a point Qhull drops, so the workloads run the "
         "changed branch nowhere; the timed rows are one run per side, slower rows included")

INPUTS = r"""
import numpy as np
from planematch.geometry import PointSet, SCALE as S
from planematch.io import gen_points

FAR = 3 * 10**12


def with_extra(n, extra):
    base = gen_points(n, 1, "uniform")
    seen = set(zip(base.xs, base.ys))
    return PointSet(list(zip(base.xs, base.ys)) + [c for c in extra if c not in seen])


def row_input(name):
    kind, _, arg = name.partition(":")
    if kind == "line":  # k points on y = 0 and two far points, one 10^-6 off the line
        k = int(arg)
        return PointSet([(x * S, 0) for x in range(k)] + [(FAR, 1), (FAR, 5 * S)])
    if kind == "far_line200":
        return with_extra(20000, [(FAR + i * S, 0) for i in range(200)])
    if kind == "inside50":  # 10^-6 apart, inside the square
        return with_extra(20000, [(5 * 10**8 + i, 5 * 10**8 + 7) for i in range(50)])
    if kind == "far_slope21":  # slope 10^-6, far away
        return with_extra(int(arg), [(FAR + i * S, i) for i in range(21)])
    if kind == "standin":
        return gen_points(20000, 1, "uniform")
    raise ValueError(name)
"""

TIMED_CHILD = INPUTS + r"""
import gc, json, sys, time
import scipy.spatial
from planematch import proximity
from planematch.proximity import _translated_floats, delaunay

name = sys.argv[1]
pts = row_input(name)
xy = _translated_floats(pts)[0]
real = scipy.spatial.Delaunay
real(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))  # warm Qhull up
if name == "standin":
    k = pts.n // 2

    def without_k(points, qhull_options=None):
        tri = real(np.delete(points, k, axis=0), qhull_options=qhull_options)
        return type("Tri", (), {"simplices": tri.simplices + (tri.simplices >= k), "neighbors": tri.neighbors})

    scipy.spatial.Delaunay = without_k
dropped = int((np.bincount(scipy.spatial.Delaunay(xy).simplices.ravel(), minlength=pts.n) == 0).sum())
flips = [0]
flip = proximity._FlipMesh.flip


def counted(self, edge):
    flips[0] += 1
    return flip(self, edge)


proximity._FlipMesh.flip = counted
gc.disable()
t = time.perf_counter()
out = delaunay(pts, canonical=False)
s = time.perf_counter() - t
gc.enable()
print(json.dumps({"n": pts.n, "dropped": dropped, "s": round(s, 4), "flips": flips[0], "edges": len(out.codes)}))
"""

CENSUS_CHILD = r"""
import importlib.util, json, sys, types
import numpy as np
from scipy.spatial import Delaunay, QhullError
from planematch import io
from planematch.geometry import PointSet, SCALE as S
from planematch.io import gen_points
from planematch.proximity import _strictly_ccw, _translated_floats


def census(pts):
    # The Qhull call of proximity._triangulate, with its joggled retry.
    xy, exact = _translated_floats(pts)
    try:
        tri = Delaunay(xy)
    except QhullError:
        tri = Delaunay(xy, qhull_options="QJ")
    dropped = int((np.bincount(tri.simplices.ravel(), minlength=pts.n) == 0).sum())
    return dropped, not _strictly_ccw(pts, tri.simplices)


def natural():
    rng = np.random.Generator(np.random.PCG64(1))
    yield "uniform 100k", gen_points(100000, 1, "uniform")
    yield "clustered 100k", gen_points(100000, 1, "clustered")
    yield "grid 300x300", PointSet((x * S, y * S) for x in range(300) for y in range(300))
    yield "grid 300x300 + 2^52", PointSet((x * S + 2**52, y * S + 2**52) for x in range(300) for y in range(300))
    t = 2 * np.pi * np.arange(20000) / 20000
    circle = zip(np.rint(5e8 + 5e8 * np.cos(t)).astype(int).tolist(), np.rint(5e8 + 5e8 * np.sin(t)).astype(int).tolist())
    yield "circle 20k rounded", PointSet(sorted(set(circle)))
    strips = set()
    while len(strips) < 100000:
        strips.add((int(rng.integers(0, 10**9)), int(rng.integers(0, 100)) * 10**7 + int(rng.integers(0, 10))))
    yield "strips 100k (100 strips 10^-5 wide)", PointSet(sorted(strips))
    base = gen_points(100000, 1, "uniform")
    line = set(zip(base.xs, base.ys)) | {(i * 10**6, 0) for i in range(1000)}
    yield "uniform 100k + 1,000 on y = 0", PointSet(sorted(line))


sys.path.insert(0, "bench")  # run.py imports its checker from there
spec = importlib.util.spec_from_file_location("bench_run", "bench/run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)
workloads = json.loads(open("bench/workloads.json").read())["workloads"]


def bench(name, count):
    # Instance i of a run with seed s comes from s + i alone: these are the
    # instances of seeds 1 to count.
    gen = dict(workloads[name]["generator"], instances=count)
    for inst in run.make_instances(types.SimpleNamespace(io=io), gen, 1):
        yield PointSet(zip(inst.xs, inst.ys))


out = {"natural": {}, "benchmark": {}}
for name, pts in natural():
    dropped, non_ccw = census(pts)
    out["natural"][name] = {"n": pts.n, "dropped": dropped, "non_ccw": non_ccw}
    print(name, dropped, non_ccw, file=sys.stderr, flush=True)
for name, count in (("approx2-uniform", 58), ("approx1-clustered", 58), ("udg-lattice", 536)):
    rows = [census(pts) for pts in bench(name, count)]
    out["benchmark"][name] = {"instances": len(rows), "seeds": f"1 to {count}",
                              "with_dropped_points": sum(d > 0 for d, _ in rows),
                              "with_non_ccw_triangle": sum(c for _, c in rows)}
    print(name, out["benchmark"][name], file=sys.stderr, flush=True)
print(json.dumps(out))
"""

ROWS = ["line:500", "line:1000", "line:2000", "line:4000", "far_line200", "inside50", "far_slope21:20000",
        "far_slope21:100000", "standin"]
ROW_TEXT = {
    "line": "k points on y = 0 plus (3e12, 1) and (3e12, 5e6) scaled",
    "far_line200": "gen_points(20000, 1, uniform) + 200 points (3e12 + i*1e6, 0) scaled",
    "inside50": "gen_points(20000, 1, uniform) + 50 points (5e8 + i, 5e8 + 7) scaled, 10^-6 apart",
    "far_slope21": "gen_points(n, 1, uniform) + 21 points (3e12 + i*1e6, i) scaled, slope 10^-6",
    "standin": "gen_points(20000, 1, uniform) with a Qhull stand-in that leaves out point n // 2",
}


def child(tree: Path, code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)], cwd=tree, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(tree / "src")), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", "15",
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if proc.returncode:
        return {"exit": proc.returncode, "stderr": proc.stderr.strip()[-400:]}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"exit": 0, **{k: round(v["value"], 4) for k, v in result["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {os.cpu_count()} vCPU; Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
           "command": "python3 tools/bench_dropped.py --parent DIR --change DIR --out BENCH_dropped.json",
           "claim": CLAIM,
           "src_lines": {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                   for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES},
           "timed": {}, "census": None, "end_to_end": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for name in ROWS:
        row = {"input": ROW_TEXT[name.partition(":")[0]]}
        for side in SIDES:
            row[side] = child(dirs[side], TIMED_CHILD, name)
            print(name, side, row[side], flush=True)
        row["change_over_parent_s"] = round(row["change"]["s"] / row["parent"]["s"], 3)
        doc["timed"][name] = row
        save()
    doc["census"] = child(dirs["change"], CENSUS_CHILD)
    save()
    for seed, workload in enumerate(("approx2-uniform", "approx1-clustered", "crossing-one-third", "udg-lattice"),
                                    28101):
        doc["end_to_end"][workload] = {"seed": seed, **{side: run_bench(dirs[side], workload, seed) for side in SIDES}}
        print(workload, doc["end_to_end"][workload], flush=True)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
