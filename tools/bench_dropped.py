"""Measure Delaunay's exact repair routes against a parent commit: the
sweep after points Qhull drops, the flip mesh over Qhull's whole
triangulation, and the orientation check on Qhull's triangles
(BENCH_dropped.json, BENCH_mesh.json, BENCH_orient.json).

Usage:
    python3 tools/bench_dropped.py --parent DIR --change DIR --out BENCH_mesh.json
    python3 tools/bench_dropped.py --parent DIR --change DIR --out BENCH_orient.json \
        --rows wide:200000,wide:1000000,mesh:200000,mesh:1000000,clustered:1000000 --seed 33101

DIR is a clean checkout of one side (``git archive`` of the commit). The
script runs, one process at a time:

* for every timed row, ``delaunay(pts, canonical=False)`` in a child
  process that imports one side's ``src/``, with the cyclic collector off;
  it records the seconds, the calls of ``_FlipMesh.flip``, how many points
  Qhull's own call left out, the process's peak RSS and the sha256 of the
  output codes. The rows are k points on y = 0 with two far points
  (k = 500 to 4,000), uniform points with far or collinear points added, a
  Qhull stand-in that drops one point of 20k uniform, and clustered points
  at 200k and 1M (at 1M one edge the float filter leaves undecided must
  flip, so the whole triangulation goes through the flip mesh), and
  uniform points times 10 at 200k and 1M (a span near 10^10, where the
  exact orientation test needs Python ints). The
  ``mesh`` rows time that mesh stage alone on the same clustered points:
  building the mesh from Qhull's triangles, a flip pass with no edge in
  doubt (every internal edge certified, or an empty stack where the pass
  takes only the edges in doubt), and the output. ``--rows`` picks rows
  (all by default). Rows in ``RUNS`` run that many times per side, alternating
  which side goes first; the others once, parent first;
* a census, in the change's tree only (both sides make the same Qhull
  call), of the points Qhull drops, of its triangles that are not
  strictly counterclockwise, and of the inputs on which ``delaunay`` builds
  a flip mesh, on natural inputs and on the instances of three benchmark
  workloads;
* ``bench/run.py`` once per workload and side untraced and once traced,
  on the same seed for both sides (15 s runs, parent first), as a check
  that no metric moved and that the trace check passes. The workloads
  take seeds from ``--seed`` on untraced and from ``--seed`` + 100 traced.

The output file is rewritten after every step, so an interrupted run keeps
what it measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from bench_mst import SIDES, child, run_bench, traced

CLAIM = ("none: every timed row's output digest and flip count must be equal on both sides; the census "
         "shows which benchmark instances build a flip mesh or hold a triangle that is not strictly "
         "counterclockwise")

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
    if kind in ("clustered", "mesh"):
        return gen_points(int(arg), 1, "clustered")
    if kind == "wide":
        base = gen_points(int(arg), 1, "uniform")
        return PointSet(zip([x * 10 for x in base.xs], [y * 10 for y in base.ys]))
    raise ValueError(name)
"""

FLIP_COUNTER = r"""
flips = [0]
flip = proximity._FlipMesh.flip


def counted(self, edge):
    flips[0] += 1
    return flip(self, edge)


proximity._FlipMesh.flip = counted
"""

TIMED_CHILD = INPUTS + r"""
import gc, hashlib, json, resource, sys, time
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
""" + FLIP_COUNTER + r"""
gc.disable()
t = time.perf_counter()
out = delaunay(pts, canonical=False)
s = time.perf_counter() - t
gc.enable()
print(json.dumps({"n": pts.n, "dropped": dropped, "s": round(s, 4), "flips": flips[0], "edges": len(out.codes),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "codes_sha256": hashlib.sha256(out.codes.tobytes()).hexdigest()}))
"""

# The flip mesh stage of the whole-mesh route alone, on Qhull's triangles
# with no edge in doubt: a tree whose flip pass takes a certified set gets
# every internal edge in it, so the pass pops and skips each edge; a tree
# whose pass takes the stack of edges in doubt gets an empty one.
MESH_CHILD = INPUTS + r"""
import gc, hashlib, inspect, json, resource, sys, time
from scipy.spatial import Delaunay
from planematch import proximity
from planematch.proximity import Triangulation, _FlipMesh, _canonicalize, _internal_edges, _translated_floats

name = sys.argv[1]
pts = row_input(name)
n = pts.n
tri = Delaunay(_translated_floats(pts)[0])
if "certified" in inspect.signature(_canonicalize).parameters:
    i, k, _ = _internal_edges(tri.simplices, tri.neighbors)
    u = tri.simplices[i, (k + 1) % 3].astype(np.int64)
    v = tri.simplices[i, (k + 2) % 3].astype(np.int64)
    no_doubt = set((np.minimum(u, v) * n + np.maximum(u, v)).tolist())
else:
    no_doubt = []
""" + FLIP_COUNTER + r"""
gc.disable()
t0 = time.perf_counter()
mesh = _FlipMesh(pts, tri.simplices.tolist())
t1 = time.perf_counter()
_canonicalize(pts, mesh, no_doubt, False)
t2 = time.perf_counter()
# A mesh of edge codes gives its Triangulation; one of pairs, its sorted pairs.
out = mesh.triangulation() if hasattr(mesh, "triangulation") else Triangulation.of_pairs(mesh.live_edges(), n)
t3 = time.perf_counter()
gc.enable()
print(json.dumps({"n": n, "s": round(t3 - t0, 4), "build_s": round(t1 - t0, 4), "flip_pass_s": round(t2 - t1, 4),
                  "output_s": round(t3 - t2, 4), "flips": flips[0], "edges": len(out.codes),
                  "triangles": len(tri.simplices),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "codes_sha256": hashlib.sha256(out.codes.tobytes()).hexdigest()}))
"""

CENSUS_CHILD = r"""
import importlib.util, json, sys, types
import numpy as np
from scipy.spatial import Delaunay, QhullError
from planematch import io
from planematch.geometry import PointSet, SCALE as S
from planematch.io import gen_points
from planematch import proximity
from planematch.proximity import _strictly_ccw, _translated_floats, delaunay


def census(pts):
    # The Qhull call of proximity._triangulate, with its joggled retry.
    xy, exact = _translated_floats(pts)
    try:
        tri = Delaunay(xy)
    except QhullError:
        tri = Delaunay(xy, qhull_options="QJ")
    dropped = int((np.bincount(tri.simplices.ravel(), minlength=pts.n) == 0).sum())
    meshes.clear()
    delaunay(pts, canonical=False)
    return dropped, not _strictly_ccw(pts, tri.simplices), bool(meshes)


meshes = []
mesh_init = proximity._FlipMesh.__init__


def recorded_init(self, *args):
    meshes.append(1)
    mesh_init(self, *args)


proximity._FlipMesh.__init__ = recorded_init


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
    dropped, non_ccw, mesh = census(pts)
    out["natural"][name] = {"n": pts.n, "dropped": dropped, "non_ccw": non_ccw, "flip_mesh": mesh}
    print(name, dropped, non_ccw, mesh, file=sys.stderr, flush=True)
for name, count in (("approx2-uniform", 58), ("approx1-clustered", 58), ("udg-lattice", 536)):
    rows = [census(pts) for pts in bench(name, count)]
    out["benchmark"][name] = {"instances": len(rows), "seeds": f"1 to {count}",
                              "with_dropped_points": sum(d > 0 for d, _, _ in rows),
                              "with_non_ccw_triangle": sum(c for _, c, _ in rows),
                              "with_flip_mesh": sum(m for _, _, m in rows)}
    print(name, out["benchmark"][name], file=sys.stderr, flush=True)
print(json.dumps(out))
"""

ROWS = ["line:500", "line:1000", "line:2000", "line:4000", "far_line200", "inside50", "far_slope21:20000",
        "far_slope21:100000", "standin", "clustered:200000", "clustered:1000000", "mesh:200000", "mesh:1000000",
        "wide:200000", "wide:1000000"]
RUNS = {"clustered:200000": 2, "clustered:1000000": 2, "mesh:200000": 2, "mesh:1000000": 2, "wide:200000": 2,
        "wide:1000000": 2}
WORKLOADS = ("approx2-uniform", "approx1-clustered", "crossing-one-third", "udg-lattice")
TRACED = ("unattributed_frac", "proximity.delaunay.self_s", "proximity.delaunay.flipped_edges")
ROW_TEXT = {
    "line": "k points on y = 0 plus (3e12, 1) and (3e12, 5e6) scaled",
    "far_line200": "gen_points(20000, 1, uniform) + 200 points (3e12 + i*1e6, 0) scaled",
    "inside50": "gen_points(20000, 1, uniform) + 50 points (5e8 + i, 5e8 + 7) scaled, 10^-6 apart",
    "far_slope21": "gen_points(n, 1, uniform) + 21 points (3e12 + i*1e6, i) scaled, slope 10^-6",
    "standin": "gen_points(20000, 1, uniform) with a Qhull stand-in that leaves out point n // 2",
    "clustered": "gen_points(n, 1, clustered); at 1M one edge must flip, so all of Qhull's triangles go "
                 "through the flip mesh",
    "mesh": "the flip mesh stage alone on Qhull's triangles of gen_points(n, 1, clustered), no edge in doubt "
            "(every internal edge certified, or an empty stack): build, flip pass, output",
    "wide": "gen_points(n, 1, uniform) with every coordinate times 10: a span near 10^10",
}


def untraced(tree: Path, workload: str, seed: int) -> dict:
    r = run_bench(tree, workload, seed, trace=False)
    if not r["result"]:
        return {"exit": r["exit"], "digest": r["digest"], "stderr": r["stderr"]}
    return {"exit": 0, "digest": r["digest"], **{k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--rows", default=",".join(ROWS), help="comma-separated timed rows (default: all)")
    ap.add_argument("--seed", type=int, default=32101, help="first untraced workload seed (default: 32101)")
    args = ap.parse_args()
    rows = args.rows.split(",")
    if not set(rows) <= set(ROWS):
        ap.error(f"unknown rows: {sorted(set(rows) - set(ROWS))}")
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {os.cpu_count()} vCPU; Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
           "command": f"python3 tools/bench_dropped.py --parent DIR --change DIR --out {args.out.name} "
                      f"--rows {args.rows} --seed {args.seed}",
           "claim": CLAIM,
           "src_lines": {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                   for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES},
           "timed": {}, "census": None, "end_to_end": {}, "traced": {}}

    def save():
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")

    for name in rows:
        row = {"input": ROW_TEXT[name.partition(":")[0]], **{side: [] for side in SIDES}}
        for i in range(RUNS.get(name, 1)):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                code = MESH_CHILD if name.startswith("mesh:") else TIMED_CHILD
                row[side].append(child(dirs[side], code, name))
                print(name, side, row[side][-1], flush=True)
        row["same_output_and_flips"] = len({(r["codes_sha256"], r["flips"]) for s in SIDES for r in row[s]}) == 1
        row["change_over_parent_s"] = round(np.median([r["s"] for r in row["change"]])
                                            / np.median([r["s"] for r in row["parent"]]), 3)
        doc["timed"][name] = row
        save()
    doc["census"] = child(dirs["change"], CENSUS_CHILD)
    save()
    for seed, workload in enumerate(WORKLOADS, args.seed):
        row = {"seed": seed, **{side: untraced(dirs[side], workload, seed) for side in SIDES}}
        row["digests_equal"] = row["parent"]["digest"] == row["change"]["digest"]
        doc["end_to_end"][workload] = row
        print(workload, row, flush=True)
        save()
    for seed, workload in enumerate(WORKLOADS, args.seed + 100):
        doc["traced"][workload] = traced(dirs, workload, seed, TRACED)
        save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
