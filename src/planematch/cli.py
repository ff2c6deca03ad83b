"""Command-line interface: run the matching algorithms on point files or
generated instances, emit JSON reports and optional SVG drawings.

Report schema:
    {"algorithm", "n", "size", "bottleneck", "plane",
     "edges": [[i, j], ...], "checks": {...}, "ms", ...}
Errors exit nonzero with {"error": {"code", "message"}} on stdout.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Optional

from .blossom import bottleneck_crossing
from .bottleneck_one import first_approx
from .bottleneck_two import second_approx
from .errors import FormatError, PlaneMatchError
from .geometry import SCALE, PointSet
from .io import format_points, gen_points, parse_points, render_svg
from .matching import Matching, validate
from .oracle import MAX_ORACLE_POINTS, exact_bottleneck_plane
from .udg import one_third, plane_matching

# Rational upper bound on (sqrt(2)+sqrt(3))^2 = 5 + 2*sqrt(6).
FACTOR2_SQ_NUM = 9_898_979_486
FACTOR2_SQ_DEN = 10**9


def _sq_to_decimal(sq: int) -> float:
    return math.sqrt(sq) / SCALE


def _read(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _load_pairs(path: str) -> list[tuple[int, int]]:
    """The ``edges`` list of a matching JSON object, as id pairs."""
    try:
        payload = json.loads(_read(path))
    except ValueError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise FormatError(f"{path} must hold a JSON object with an 'edges' list")
    edges = payload.get("edges", [])
    if not isinstance(edges, list):
        raise FormatError(f"'edges' in {path} must be a list")
    pairs = []
    for e in edges:
        if not (isinstance(e, list) and len(e) == 2 and all(type(v) is int for v in e)):
            raise FormatError(f"edge {e!r} in {path} is not a pair of integer point ids")
        pairs.append((e[0], e[1]))
    return pairs


def _bracket_report(report: dict, cross) -> None:
    """L, the certified lower bound on the crossing bottleneck, and the
    check that the crossing bottleneck lies in [L, 2L]."""
    report["lambda_lower_bound"] = _sq_to_decimal(cross.lower_sq)
    report["checks"]["crossing_bracket"] = (
        cross.lower_sq <= cross.bottleneck_sq <= 4 * cross.lower_sq
    )


def _load_points(args) -> PointSet:
    if args.input:
        return parse_points(_read(args.input))
    if args.n is not None:
        return gen_points(args.n, args.seed, args.mode)
    raise PlaneMatchError("provide --input FILE or --n N [--seed S --mode M]")


def _emit(args, report: dict, pts: Optional[PointSet], m: Optional[Matching]) -> None:
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    if args.svg and pts is not None:
        with open(args.svg, "wb") as fh:
            fh.write(render_svg(pts, m if m is not None else Matching.of(pts, [])))


def _base_report(algorithm: str, pts: PointSet, m: Matching, ms: float) -> dict:
    rep = validate(pts, m)
    return {
        "algorithm": algorithm,
        "n": pts.n,
        "size": m.size,
        "bottleneck": _sq_to_decimal(m.bottleneck_sq),
        "plane": rep.is_plane and rep.is_matching,
        "edges": [list(e) for e in m.pairs],
        "checks": {},
        "ms": round(ms, 3),
    }


def _oracle_checks(pts: PointSet, m: Matching, size_needed: int, factor_num: int,
                   factor_den: int) -> dict:
    opt = exact_bottleneck_plane(pts)
    return {
        "size_bound": m.size >= size_needed,
        "length_bound": m.bottleneck_sq * factor_den <= factor_num * opt.bottleneck_sq,
        "optimal_bottleneck": _sq_to_decimal(opt.bottleneck_sq),
    }


def cmd_exact(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    res = exact_bottleneck_plane(pts)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("exact", pts, res.matching, ms)
    report["explored"] = res.explored
    report["checks"] = {"size_bound": res.matching.size == pts.n // 2, "length_bound": True}
    _emit(args, report, pts, res.matching)
    return 0


def cmd_udg_match(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    m = plane_matching(pts)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("udg-match", pts, m, ms)
    report["checks"] = {
        "size_bound": m.size >= math.ceil((pts.n - 1) / 5),
        "length_bound": m.bottleneck_sq <= SCALE * SCALE,
    }
    _emit(args, report, pts, m)
    return 0


def cmd_one_third(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    cross = bottleneck_crossing(pts)
    m, trace = one_third(pts, cross.matching, cap=args.cap)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("one-third", pts, m, ms)
    report["rotations"] = len(trace.steps)
    report["cap_exceeded"] = trace.capped
    report["checks"] = {
        "size_bound": m.size >= math.ceil(cross.matching.size / 3),
        "length_bound": m.bottleneck_sq <= cross.bottleneck_sq,
    }
    _bracket_report(report, cross)
    if args.oracle:
        opt = exact_bottleneck_plane(pts)
        report["checks"]["crossing_lower_bound"] = (
            cross.bottleneck_sq <= opt.bottleneck_sq
        )
    _emit(args, report, pts, m)
    return 0


def cmd_approx1(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    m = first_approx(pts, seed_source=args.seed_source)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("approx1", pts, m, ms)
    report["checks"] = {"size_bound": m.size >= math.ceil(pts.n / 5)}
    if args.oracle:
        report["checks"].update(_oracle_checks(pts, m, math.ceil(pts.n / 5), 1, 1))
    _emit(args, report, pts, m)
    return 0


def cmd_approx2(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    m = second_approx(pts)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("approx2", pts, m, ms)
    report["checks"] = {"size_bound": m.size >= math.ceil(2 * pts.n / 5)}
    if args.oracle:
        report["checks"].update(
            _oracle_checks(
                pts, m, math.ceil(2 * pts.n / 5), FACTOR2_SQ_NUM, FACTOR2_SQ_DEN
            )
        )
    _emit(args, report, pts, m)
    return 0


def cmd_crossing(args) -> int:
    pts = _load_points(args)
    t0 = time.perf_counter()
    res = bottleneck_crossing(pts)
    ms = (time.perf_counter() - t0) * 1000
    report = _base_report("crossing-bottleneck", pts, res.matching, ms)
    report["checks"] = {"size_bound": res.matching.size == pts.n // 2}
    _bracket_report(report, res)
    if args.oracle:
        opt = exact_bottleneck_plane(pts)
        report["checks"]["length_bound"] = res.bottleneck_sq <= opt.bottleneck_sq
        report["checks"]["optimal_bottleneck"] = _sq_to_decimal(opt.bottleneck_sq)
    _emit(args, report, pts, res.matching)
    return 0


def cmd_validate(args) -> int:
    pts = _load_points(args)
    m = Matching.of(pts, _load_pairs(args.matching))
    rep = validate(pts, m)
    report = {
        "algorithm": "validate",
        "n": pts.n,
        "size": rep.size,
        "bottleneck": _sq_to_decimal(rep.bottleneck_sq),
        "plane": rep.is_plane,
        "matching": rep.is_matching,
        "violations": [
            {"kind": kind, "edges": [list(e1), list(e2)]}
            for kind, e1, e2 in rep.violations
        ],
        "checks": {"size_bound": True, "length_bound": True},
        "ms": 0.0,
    }
    _emit(args, report, pts, m)
    return 0 if (rep.is_plane and rep.is_matching) else 1


def cmd_gen(args) -> int:
    pts = gen_points(args.n, args.seed, args.mode)
    text = format_points(pts)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.svg:
        with open(args.svg, "wb") as fh:
            fh.write(render_svg(pts, Matching.of(pts, [])))
    return 0


_BENCH_ALGS = {
    "approx1": lambda pts: first_approx(pts),
    "approx2": lambda pts: second_approx(pts),
    "udg-match": plane_matching,
}


def cmd_bench(args) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    rows = []
    for n in sizes:
        pts = gen_points(n, args.seed, args.mode)
        fn = _BENCH_ALGS[args.algorithm]
        t0 = time.perf_counter()
        m = fn(pts)
        ms = (time.perf_counter() - t0) * 1000
        rep = validate(pts, m)
        rows.append(
            {
                "n": pts.n,
                "size": m.size,
                "bottleneck": _sq_to_decimal(m.bottleneck_sq),
                "plane": rep.is_plane and rep.is_matching,
                "ms": round(ms, 3),
            }
        )
    report = {
        "algorithm": args.algorithm,
        "mode": args.mode,
        "seed": args.seed,
        "rows": rows,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return 0


def _add_common(p, oracle=True, cap=False):
    p.add_argument("--input", help="point file (count line, then 'x y' lines)")
    p.add_argument("--n", type=int, help="generate an instance of this size")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.add_argument(
        "--mode",
        default="uniform",
        choices=["uniform", "clustered", "star-chain"],
        help="generator mode",
    )
    p.add_argument("--svg", help="write an SVG drawing to this path")
    p.add_argument("--json", help="write the JSON report to this path")
    if oracle:
        p.add_argument(
            "--oracle",
            action="store_true",
            help=f"verify guarantees against the exact oracle (n <= {MAX_ORACLE_POINTS})",
        )
    if cap:
        p.add_argument("--cap", type=int, default=None, help="rotation cap")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="planematch",
        description="Non-crossing matchings of planar point sets with "
        "bottleneck and cardinality guarantees.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact bottleneck plane perfect matching (n <= 16)")
    _add_common(p, oracle=False)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("udg-match", help="plane matching of a connected unit disk graph")
    _add_common(p, oracle=False)
    p.set_defaults(fn=cmd_udg_match)

    p = sub.add_parser("one-third", help="keep a third of the crossing bottleneck matching")
    _add_common(p, cap=True)
    p.set_defaults(fn=cmd_one_third)

    p = sub.add_parser("approx1", help="size >= n/5 with bottleneck <= optimum")
    _add_common(p)
    p.add_argument(
        "--seed-source",
        default="critical",
        choices=["critical", "crossing"],
        help="where restart seeds come from",
    )
    p.set_defaults(fn=cmd_approx1)

    p = sub.add_parser(
        "approx2", help="size >= 2n/5 with bottleneck <= (sqrt2+sqrt3) * optimum"
    )
    _add_common(p)
    p.set_defaults(fn=cmd_approx2)

    p = sub.add_parser("crossing-bottleneck", help="bottleneck perfect matching, crossings allowed")
    _add_common(p)
    p.set_defaults(fn=cmd_crossing)

    p = sub.add_parser("validate", help="validate a matching JSON against a point file")
    _add_common(p, oracle=False)
    p.add_argument("--matching", required=True, help="JSON file with an 'edges' list")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen", help="generate a deterministic instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", default="uniform", choices=["uniform", "clustered", "star-chain"]
    )
    p.add_argument("--output", help="write the point file here (default stdout)")
    p.add_argument("--svg", help="write an SVG of the bare points")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", help="time algorithms on generated instances")
    p.add_argument("--algorithm", required=True, choices=sorted(_BENCH_ALGS))
    p.add_argument("--sizes", required=True, help="comma-separated instance sizes")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--mode", default="uniform", choices=["uniform", "clustered", "star-chain"]
    )
    p.add_argument("--json", help="write the JSON report to this path")
    p.set_defaults(fn=cmd_bench)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except PlaneMatchError as exc:
        print(json.dumps({"error": {"code": exc.code, "message": str(exc)}}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
