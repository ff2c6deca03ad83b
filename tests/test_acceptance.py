"""Acceptance suite: every guarantee checked against the exact oracle at its
stated tolerance, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""
from __future__ import annotations

import math
import random
import time
from itertools import combinations

import pytest

from planematch.blossom import AbstractGraph, bottleneck_crossing, max_matching
from planematch.bottleneck_one import compare_to_opt, first_approx
from planematch.bottleneck_two import even_forest, second_approx
from planematch.geometry import SCALE, PointSet, cross_ids, point_in_triangle_closed
from planematch.io import gen_points
from planematch.matching import validate
from planematch.oracle import exact_bottleneck_plane
from planematch.proximity import disk_graph, emst5, forest_leq
from planematch.udg import one_third, plane_matching
from test_kruskal import degenerate_corpus

S = SCALE
# Rational upper bound for (sqrt(2)+sqrt(3))^2 = 5 + 2*sqrt(6).
FACTOR2_NUM = 9_898_979_486
FACTOR2_DEN = 10**9


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {name}: {status} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def oracle_instances():
    """The shared 300-instance corpus: uniform, n in {4,6,8,10,12}."""
    rng = random.Random(20260810)
    out = []
    for i in range(300):
        n = (4, 6, 8, 10, 12)[i % 5]
        pts = gen_points(n, rng.randrange(1 << 30), "uniform")
        out.append(pts)
    return out


_CORPUS = None
_ORACLE = {}


def corpus():
    global _CORPUS
    if _CORPUS is None:
        _CORPUS = oracle_instances()
    return _CORPUS


def oracle_of(idx, pts):
    if idx not in _ORACLE:
        _ORACLE[idx] = exact_bottleneck_plane(pts)
    return _ORACLE[idx]


def test_criterion_1_first_approx_vs_oracle():
    t0 = time.perf_counter()
    crossing_ok = True
    for idx, pts in enumerate(corpus()):
        opt = oracle_of(idx, pts)
        m = first_approx(pts)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane, idx
        assert m.size >= math.ceil(pts.n / 5), idx
        assert m.bottleneck_sq <= opt.bottleneck_sq, idx
        # Criterion 7 rides along: the crossing bottleneck never exceeds the
        # plane optimum (exact squared comparison).
        cross = bottleneck_crossing(pts)
        crossing_ok = crossing_ok and cross.bottleneck_sq <= opt.bottleneck_sq
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1 (approx1 plane, size >= n/5, bottleneck <= optimum; 300 instances)",
        elapsed < 60,
        f"({elapsed:.1f}s)",
    )
    _report("criterion 7 (crossing bottleneck <= plane optimum on all instances)", crossing_ok)


def test_criterion_2_second_approx_vs_oracle():
    t0 = time.perf_counter()
    for idx, pts in enumerate(corpus()):
        opt = oracle_of(idx, pts)
        m = second_approx(pts)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane, idx
        assert m.size >= math.ceil(2 * pts.n / 5), idx
        assert m.bottleneck_sq * FACTOR2_DEN <= FACTOR2_NUM * opt.bottleneck_sq, idx
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 2 (approx2 plane, size >= 2n/5, bottleneck <= (sqrt2+sqrt3)*optimum)",
        elapsed < 60,
        f"({elapsed:.1f}s)",
    )


def _connected_udg_points(rng, n):
    coords = [(0, 0)]
    seen = {(0, 0)}
    while len(coords) < n:
        bx, by = coords[rng.randrange(len(coords))]
        ang = rng.random() * 2 * math.pi
        r = 0.2 + 0.75 * rng.random()
        c = (bx + round(r * math.cos(ang) * S), by + round(r * math.sin(ang) * S))
        if c not in seen:
            seen.add(c)
            coords.append(c)
    return PointSet(sorted(coords))


def _path_points(rng, n):
    coords = [(0, 0)]
    x = y = 0.0
    heading = 0.0
    while len(coords) < n:
        heading += (rng.random() - 0.5) * 0.5
        x += 0.9 * math.cos(heading)
        y += 0.9 * math.sin(heading)
        coords.append((round(x * S), round(y * S)))
    return PointSet(coords)


def _cycle_points(n):
    r = 0.95 * n / (2 * math.pi)
    return PointSet(
        (round(r * math.cos(2 * math.pi * k / n) * S),
         round(r * math.sin(2 * math.pi * k / n) * S))
        for k in range(n)
    )


def _blossom_max(pts) -> int:
    g = disk_graph(pts, S * S)
    return len(max_matching(AbstractGraph.from_edges(pts.n, g.edges())))


def test_criterion_3_plane_matching_bound_and_tightness():
    t0 = time.perf_counter()
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randrange(2, 201)
        pts = _connected_udg_points(rng, n)
        tree = emst5(pts)
        m = plane_matching(pts)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane
        assert m.size >= math.ceil((n - 1) / 5)
        tree_edges = set(tree.edges())
        assert all(e in tree_edges for e in m.pairs)
    made = 0
    trial = 0
    while made < 20:
        trial += 1
        if made % 2 == 0:
            pts = _path_points(rng, rng.randrange(3, 40))
            degs = sorted(len(a) for a in disk_graph(pts, S * S).adj)
            if degs[:2] != [1, 1] or any(d > 2 for d in degs):
                continue
        else:
            pts = _cycle_points(rng.randrange(8, 40))
            if any(len(a) != 2 for a in disk_graph(pts, S * S).adj):
                continue
        assert plane_matching(pts).size == _blossom_max(pts)
        made += 1
    for n in (11, 16, 21):
        pts = gen_points(n, 7, "star-chain")
        m = plane_matching(pts)
        assert m.size == (n - 1) // 5 == _blossom_max(pts)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 3 (udg-match >= (n-1)/5; maximum on trees/cycles and the tight family)",
        elapsed < 30,
        f"({elapsed:.1f}s)",
    )


def test_criterion_4_one_third():
    t0 = time.perf_counter()
    rng = random.Random(4)
    for _ in range(100):
        n = rng.choice([4, 6, 8, 10, 12, 14, 16, 18, 20])
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 15 * S), rng.randrange(0, 15 * S)))
        pts = PointSet(sorted(coords))
        cross = bottleneck_crossing(pts)
        m, trace = one_third(pts, cross.matching)
        assert not trace.capped
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane
        assert m.size >= math.ceil(cross.matching.size / 3)
        assert m.bottleneck_sq <= cross.bottleneck_sq
        for step in trace.steps:
            assert step.total_after < step.total_before
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 4 (one-third plane, size >= |Mx|/3, bottleneck kept, strict decrease)",
        elapsed < 30,
        f"({elapsed:.1f}s)",
    )


@pytest.mark.parametrize(
    "name,coords",
    [(name, coords) for name, coords in degenerate_corpus() if len(coords) % 2 == 0],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_degenerate_corpus_meets_every_bound(name, coords):
    # Grids, Pythagorean circles with and without their centre, collinear
    # plus one point and spans past 2^63: ties everywhere, exact paths only.
    pts = PointSet(coords)
    n = pts.n
    m1 = first_approx(pts)
    rep = validate(pts, m1)
    assert rep.is_matching and rep.is_plane
    assert m1.size >= math.ceil(n / 5)
    m2 = second_approx(pts)
    rep = validate(pts, m2)
    assert rep.is_matching and rep.is_plane
    assert m2.size >= math.ceil(2 * n / 5)
    # The even forest's last edge L is a lower bound on the optimum.
    assert m2.bottleneck_sq * FACTOR2_DEN <= FACTOR2_NUM * even_forest(pts).last_sq
    cross = bottleneck_crossing(pts)
    m3, trace = one_third(pts, cross.matching)
    assert not trace.capped
    rep = validate(pts, m3)
    assert rep.is_matching and rep.is_plane
    assert m3.size >= math.ceil(cross.matching.size / 3)
    assert m3.bottleneck_sq <= cross.bottleneck_sq


def test_criterion_5_structure_suites():
    t0 = time.perf_counter()
    rng = random.Random(5)
    # Empty triangles spanned by adjacent MST edges (100 random EMSTs).
    for _ in range(100):
        n = rng.randrange(3, 65)
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 40 * S), rng.randrange(0, 40 * S)))
        pts = PointSet(sorted(coords))
        tree = emst5(pts)
        for v in tree.vertices:
            for a, b in combinations(tree.adj[v], 2):
                for p in range(pts.n):
                    if p not in (a, b, v):
                        assert not point_in_triangle_closed(pts, v, a, b, p)
    # Crossing disk-graph edges share a component (100 random disk graphs).
    for _ in range(100):
        n = rng.randrange(6, 26)
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 6 * S), rng.randrange(0, 6 * S)))
        pts = PointSet(sorted(coords))
        r = rng.randrange(S, 3 * S)
        g = disk_graph(pts, r * r)
        comp = [-1] * pts.n
        c = 0
        for s0 in range(pts.n):
            if comp[s0] != -1:
                continue
            stack = [s0]
            comp[s0] = c
            while stack:
                x = stack.pop()
                for y in g.adj[x]:
                    if comp[y] == -1:
                        comp[y] = c
                        stack.append(y)
            c += 1
        for (a, b), (u, v) in combinations(g.edges(), 2):
            if cross_ids(pts, a, b, u, v):
                assert comp[a] == comp[b] == comp[u] == comp[v]
    # Even forests at the optimal threshold, and the even-forest stop edge.
    for idx, pts in enumerate(corpus()):
        if idx % 3 != 0:
            continue
        opt = oracle_of(idx, pts)
        f = forest_leq(emst5(pts), opt.bottleneck_sq, pts)
        assert all(t.n % 2 == 0 for t in f.trees)
        ef = even_forest(pts)
        assert ef.last_sq <= opt.bottleneck_sq
        assert all(t.n % 2 == 0 for t in ef.forest.trees)
    # Refutations are sound: FALSE at an MST edge length implies the length
    # is strictly below the optimal bottleneck (n <= 12 instances).
    for idx, pts in enumerate(corpus()):
        if idx % 5 != 0:
            continue
        opt = oracle_of(idx, pts)
        mst = emst5(pts)
        for sq in sorted(set(mst.edge_sq.values())):
            if compare_to_opt(pts, mst, sq) is None:
                assert sq < opt.bottleneck_sq
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 5 (empty triangles, crossing components, even forests, "
        "sound refutations)",
        elapsed < 60,
        f"({elapsed:.1f}s)",
    )


def _brute_max_matching_size(n, edges) -> int:
    best = 0

    def rec(idx, used, size):
        nonlocal best
        if size + (len(edges) - idx) <= best:
            return
        if idx == len(edges):
            best = max(best, size)
            return
        u, v = edges[idx]
        if not used & (1 << u) and not used & (1 << v):
            rec(idx + 1, used | (1 << u) | (1 << v), size + 1)
        rec(idx + 1, used, size)

    rec(0, 0, 0)
    return best


def test_criterion_6_blossom_vs_brute_force():
    t0 = time.perf_counter()
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randrange(1, 11)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        g = AbstractGraph.from_edges(n, edges)
        assert len(max_matching(g)) == _brute_max_matching_size(n, edges)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 6 (blossom equals brute-force maximum on 200 graphs)",
        elapsed < 10,
        f"({elapsed:.1f}s)",
    )


def test_criterion_8_performance_smoke():
    pts50 = gen_points(50_000, 1, "uniform")
    t0 = time.perf_counter()
    m50 = second_approx(pts50)
    t_50 = time.perf_counter() - t0
    assert m50.size >= math.ceil(2 * 50_000 / 5)

    pts100 = gen_points(100_000, 1, "uniform")
    t0 = time.perf_counter()
    m100 = second_approx(pts100)
    t_100 = time.perf_counter() - t0
    assert m100.size >= math.ceil(2 * 100_000 / 5)

    pts20 = gen_points(20_000, 1, "uniform")
    t0 = time.perf_counter()
    m20 = first_approx(pts20)
    t_20 = time.perf_counter() - t0
    assert m20.size >= math.ceil(20_000 / 5)

    ok = t_100 < 30 and t_100 < 4.5 * t_50 and t_20 < 30
    _report(
        "criterion 8 (approx2 100k under 30s and under 4.5x the 50k time; "
        "approx1 20k under 30s)",
        ok,
        f"(approx2: {t_50:.1f}s/{t_100:.1f}s, approx1: {t_20:.1f}s)",
    )
