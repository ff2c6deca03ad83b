"""Time the whole-mesh flip route of ``delaunay`` against a parent commit:
BENCH_stack.json.

Usage:
    python3 tools/bench_stack.py --parent DIR --change DIR --out BENCH_stack.json

DIR is a clean checkout of one side (``git archive`` of the commit). On
``gen_points(10**6, 1, "clustered")`` one internal edge the float filter
leaves undecided must flip under the strict rule, so ``delaunay(pts,
canonical=False)`` builds the flip mesh over all of Qhull's triangles and
runs the Lawson pass. The script runs that call in a child process per side
and run, one process at a time, ``--runs`` times a side with the first side
swapping every run: Qhull warmed up on four points and the cyclic collector
off before the call. Each run records the seconds of the call, the child's
peak RSS (``ru_maxrss``), the seconds inside the flip pass
(``_canonicalize``), the calls of ``_FlipMesh.flip`` and ``_should_flip``
and the sha256 of the output codes. The output file is rewritten after
every run, so an interrupted run keeps what it measured.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np

from bench_mst import SIDES, child

CLAIM = "none: the output digest and the flip count must be equal on both sides"

STACK_CHILD = r"""
import gc, hashlib, json, resource, time
import numpy as np
from scipy.spatial import Delaunay
from planematch import proximity
from planematch.io import gen_points

pts = gen_points(10**6, 1, "clustered")
Delaunay(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))  # warm Qhull up
calls = {"flips": 0, "exact_tests": 0}
flip, should_flip, canonicalize = proximity._FlipMesh.flip, proximity._should_flip, proximity._canonicalize
flip_pass_s = []


def counted_flip(self, code):
    calls["flips"] += 1
    return flip(self, code)


def counted_should_flip(*args):
    calls["exact_tests"] += 1
    return should_flip(*args)


def timed_canonicalize(*args):
    t = time.perf_counter()
    canonicalize(*args)
    flip_pass_s.append(time.perf_counter() - t)


proximity._FlipMesh.flip = counted_flip
proximity._should_flip = counted_should_flip
proximity._canonicalize = timed_canonicalize
gc.disable()
t = time.perf_counter()
out = proximity.delaunay(pts, canonical=False)
s = time.perf_counter() - t
gc.enable()
print(json.dumps({"s": round(s, 3), "flip_pass_s": round(sum(flip_pass_s), 3), **calls, "edges": len(out.codes),
                  "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
                  "codes_sha256": hashlib.sha256(out.codes.tobytes()).hexdigest()}))
"""


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--runs", type=int, default=3, help="runs per side (default: 3)")
    args = ap.parse_args()
    dirs = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    doc = {"hardware": f"{platform.machine()}, {os.cpu_count()} vCPU; Python {platform.python_version()}, "
                       f"numpy {np.__version__}",
           "command": f"python3 tools/bench_stack.py --parent DIR --change DIR --out {args.out.name} "
                      f"--runs {args.runs}",
           "input": 'delaunay(gen_points(10**6, 1, "clustered"), canonical=False)',
           "claim": CLAIM,
           "src_lines": {side: sum(len(f.read_text(encoding="utf-8").splitlines())
                                   for f in (dirs[side] / "src" / "planematch").glob("*.py")) for side in SIDES},
           **{side: [] for side in SIDES}}
    for i in range(args.runs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            doc[side].append(child(dirs[side], STACK_CHILD))
            print(side, doc[side][-1], flush=True)
            doc["same_output_and_flips"] = len({(r["codes_sha256"], r["flips"])
                                                for s in SIDES for r in doc[s]}) == 1
            if doc["parent"] and doc["change"]:
                for key in ("s", "flip_pass_s", "peak_rss_mb"):
                    doc[f"median_{key}"] = {s: float(np.median([r[key] for r in doc[s]])) for s in SIDES}
            args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
