"""Toy-size self-check of the benchmark; finishes in seconds.

Run from the root of a planematch checkout:

    python3 bench/selfcheck.py

It confirms that the checker accepts a correct matching and rejects a
crossing one, a touching one and an undersized one. Then it runs every
workload at its toy size, untraced and traced, and checks that the result
line holds exactly the metrics BENCHMARK.json names, with their units, and
that the printed table shows each of them. Exits 1 if anything failed.
"""
import contextlib
import io
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import checker  # noqa: E402
import run  # noqa: E402


def check_workloads(pm, spec) -> list[str]:
    failures = []
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.load_spec()["workloads"]):
        failures.append(f"BENCHMARK.json workloads {names} differ from workloads.json")
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = run.run_workload(pm, name, 1, 0.2, trace, time.perf_counter(),
                                           toy=True, min_ok=1)
            table = buf.getvalue()
            where = f"{name} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["attempted"] < 1:
                failures.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
            expected = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected:
                failures.append(f"{where}: metrics {got} != BENCHMARK.json {expected}")
            for metric, unit in expected.items():
                if not any(line.split()[:1] == [metric] and unit in line.split() for line in table.splitlines()):
                    failures.append(f"{where}: table has no line for {metric} with unit {unit}")
            print(f"ok  {where}: {result['attempted']} jobs, {len(got)} metrics", flush=True)
    return failures


def check_checker() -> list[str]:
    s = checker.SCALE
    # Corners of a square of side 2 (ids 0..3), then the midpoint of its
    # bottom side and the centre (ids 4, 5); and ten points on a line.
    xs, ys = [0, 2 * s, 0, 2 * s, s, s], [0, 0, 2 * s, 2 * s, 0, s]
    sq_xs, sq_ys = xs[:4], ys[:4]
    square_lower = checker.even_prefix_sq(
        4, [(checker.sq_len(sq_xs, sq_ys, u, v), u, v) for u, v in ((0, 1), (2, 3), (0, 2))])
    line_xs, line_ys = [i * s for i in range(10)], [0] * 10
    # (what, xs, ys, pairs, L^2 for the approx2 guarantees or None, reject?)
    cases = [
        ("a correct plane matching", sq_xs, sq_ys, [(0, 1), (2, 3)], square_lower, False),
        ("two crossing diagonals", sq_xs, sq_ys, [(0, 3), (1, 2)], square_lower, True),
        ("an endpoint touching the other edge", xs, ys, [(0, 1), (4, 5)], None, True),
        ("an undersized matching (1 pair of 10 points)", line_xs, line_ys, [(0, 1)], s * s, True),
    ]
    failures = []
    for what, cx, cy, pairs, lower, should_reject in cases:
        problems = checker.plane_matching_problems(cx, cy, pairs)
        if lower is not None:
            problems += checker.guarantee_problems("approx2", cx, cy, pairs, lower)
        if bool(problems) != should_reject:
            failures.append(f"checker {'accepted' if should_reject else 'rejected'} {what}: {problems}")
        else:
            print(f"ok  checker {'rejects' if should_reject else 'accepts'} {what}", flush=True)
    return failures


def main() -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = check_checker() + check_workloads(run.load_program(), spec)
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
