"""Tests for the unit-disk-graph matching algorithms."""
from __future__ import annotations

import hashlib
import json
import math
import random
from decimal import Decimal, getcontext
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planematch.blossom import AbstractGraph, bottleneck_crossing, max_matching
from planematch.errors import DisconnectedInput
from planematch.geometry import SCALE, PointSet, cross_ids
from planematch.io import gen_points
from planematch.matching import Matching, validate
from planematch.proximity import disk_graph, emst5
from planematch.udg import one_third, plane_matching

S = SCALE
getcontext().prec = 50


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def exact_total(pts, pairs) -> Decimal:
    return sum(Decimal(pts.sq_dist(a, b)).sqrt() for a, b in pairs)


def test_one_third_single_edge():
    pts = ps((0, 0), (1, 0))
    m = Matching.of(pts, [(0, 1)])
    out, trace = one_third(pts, m)
    assert out.pairs == ((0, 1),)
    assert trace.steps == []


def test_one_third_empty_matching():
    from planematch.udg import RotationTrace

    for pts in (PointSet([]), ps((0, 0), (1, 0), (0, 1))):
        out, trace = one_third(pts, Matching.of(pts, []))
        assert out == Matching(pairs=(), bottleneck_sq=0)
        assert trace == RotationTrace()


def test_one_third_perpendicular_no_rotation():
    # Crossing at 90 degrees > pi/3: no rotation, classes split them.
    pts = ps((0, 0), (2, 0), (1, 1), (1, -1))
    m = Matching.of(pts, [(0, 1), (2, 3)])
    out, trace = one_third(pts, m)
    assert trace.steps == []
    assert out.size == 1
    assert validate(pts, out).is_plane


def test_one_third_small_angle_rotates():
    # Crossing angle about 11 degrees <= pi/3: rotate to the two short ends.
    pts = ps((0, 0), (2, 0), (0, -0.2), (2, 0.2))
    m = Matching.of(pts, [(0, 1), (2, 3)])
    out, trace = one_third(pts, m)
    assert len(trace.steps) == 1
    assert set(trace.steps[0].added) == {(0, 2), (1, 3)}
    assert out.size == 2
    assert validate(pts, out).is_plane


def test_one_third_trace_strictly_decreasing():
    rng = random.Random(99)
    for _ in range(100):
        n = rng.choice([4, 6, 8, 10, 12])
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 12 * S), rng.randrange(0, 12 * S)))
        pts = PointSet(sorted(coords))
        cross = bottleneck_crossing(pts)
        out, trace = one_third(pts, cross.matching)
        assert not trace.capped
        # Strict decrease, certified with 50-digit decimal arithmetic.
        prev = None
        for step in trace.steps:
            if prev is not None:
                assert exact_total(pts, step_pairs) > exact_total(pts, new_pairs)
            step_pairs = list(step.removed)
            new_pairs = list(step.added)
            assert exact_total(pts, step_pairs) > exact_total(pts, new_pairs)
            prev = step
        rep = validate(pts, out)
        assert rep.is_matching and rep.is_plane
        assert out.size >= math.ceil(cross.matching.size / 3)
        assert out.bottleneck_sq <= cross.matching.bottleneck_sq


def test_one_third_fixpoint_angles_large():
    # At the fixpoint every crossing pair meets at an angle above pi/3 and
    # each direction class is internally non-crossing.
    rng = random.Random(41)
    from planematch.udg import _direction_class, _rotation_pairing

    for _ in range(40):
        n = rng.choice([6, 8, 10])
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 9 * S), rng.randrange(0, 9 * S)))
        pts = PointSet(sorted(coords))
        cross = bottleneck_crossing(pts)
        out, trace = one_third(pts, cross.matching)
        # Recover the fixpoint matching from the trace.
        pairs = set(cross.matching.pairs)
        for step in trace.steps:
            pairs.discard(step.removed[0])
            pairs.discard(step.removed[1])
            pairs.add(step.added[0])
            pairs.add(step.added[1])
        pairs = sorted(pairs)
        for e1, e2 in combinations(pairs, 2):
            if cross_ids(pts, *e1, *e2):
                assert _rotation_pairing(pts, e1, e2) is None
            if _direction_class(pts, *e1) == _direction_class(pts, *e2):
                assert not cross_ids(pts, *e1, *e2)


def test_plane_matching_collinear_four():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    m = plane_matching(pts)
    assert m.pairs == ((0, 1), (2, 3))


def test_plane_matching_star():
    coords = [(0.0, 0.0)]
    for k in range(5):
        a = 2 * math.pi * k / 5
        # Slightly under unit length so 6-decimal rounding stays inside 1.
        coords.append((0.99999 * math.cos(a), 0.99999 * math.sin(a)))
    pts = ps(*coords)
    m = plane_matching(pts)
    assert m.size == 1
    assert 0 in m.pairs[0]


def test_plane_matching_two_points():
    pts = ps((0, 0), (1, 0))
    m = plane_matching(pts)
    assert m.pairs == ((0, 1),)


def test_plane_matching_disconnected_raises():
    pts = ps((0, 0), (10, 0))
    with pytest.raises(DisconnectedInput):
        plane_matching(pts)


def connected_udg_points(rng, n):
    """Random points whose unit disk graph is connected (growth process)."""
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


def test_plane_matching_bound_and_mst_edges_random():
    rng = random.Random(2718)
    for _ in range(40):
        n = rng.randrange(2, 80)
        pts = connected_udg_points(rng, n)
        tree = emst5(pts)
        m = plane_matching(pts)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane
        assert m.size >= math.ceil((n - 1) / 5)
        tree_edges = set(tree.edges())
        assert all(e in tree_edges for e in m.pairs)


def path_points(rng, n):
    """Points whose unit disk graph is exactly a path."""
    coords = [(0, 0)]
    x, y = 0.0, 0.0
    heading = 0.0
    while len(coords) < n:
        heading += (rng.random() - 0.5) * 0.5
        x += 0.9 * math.cos(heading)
        y += 0.9 * math.sin(heading)
        coords.append((round(x * S), round(y * S)))
    return PointSet(coords)


def cycle_points(n):
    r = 0.95 * n / (2 * math.pi)
    return PointSet(
        (round(r * math.cos(2 * math.pi * k / n) * S),
         round(r * math.sin(2 * math.pi * k / n) * S))
        for k in range(n)
    )


def blossom_max_size(pts, sq_radius) -> int:
    g = disk_graph(pts, sq_radius)
    ag = AbstractGraph.from_edges(pts.n, g.edges())
    return len(max_matching(ag))


def test_tree_and_cycle_udg_maximum():
    rng = random.Random(5)
    for trial in range(20):
        if trial % 2 == 0:
            n = rng.randrange(3, 30)
            pts = path_points(rng, n)
        else:
            n = rng.randrange(8, 30)
            pts = cycle_points(n)
        g = disk_graph(pts, S * S)
        degs = sorted(len(a) for a in g.adj)
        # Confirm the instance really is a path or a cycle.
        if trial % 2 == 0:
            if degs[:2] != [1, 1] or any(d > 2 for d in degs):
                continue
        else:
            if any(d != 2 for d in degs):
                continue
        m = plane_matching(pts)
        assert m.size == blossom_max_size(pts, S * S)


def reference_one_third(pts, m, cap=None):
    """The rescan: after every rotation, scan the sorted edges again from
    the start for the first pair crossing at an angle <= pi/3."""
    from planematch.udg import RotationStep, RotationTrace, _direction_class, _rotation_pairing

    if cap is None:
        cap = 10 * pts.n**3
    pairs = sorted(m.pairs)
    trace = RotationTrace()
    while True:
        found = None
        for i, j in combinations(range(len(pairs)), 2):
            if cross_ids(pts, *pairs[i], *pairs[j]):
                repl = _rotation_pairing(pts, pairs[i], pairs[j])
                if repl is not None:
                    found = i, j, repl
                    break
        if found is None:
            break
        if len(trace.steps) >= cap:
            trace.capped = True
            break
        i, j, repl = found
        removed = (pairs[i], pairs[j])
        new1, new2 = tuple(sorted(repl[0])), tuple(sorted(repl[1]))
        del pairs[j]
        del pairs[i]
        pairs = sorted(pairs + [new1, new2])
        trace.steps.append(RotationStep(removed, (new1, new2)))
    classes = [[], [], []]
    for pair in pairs:
        classes[_direction_class(pts, *pair)].append(pair)
    trace.class_sizes = tuple(len(c) for c in classes)
    chosen = classes[max(range(3), key=lambda i: (len(classes[i]), -i))]
    if trace.capped:
        kept = []
        for pair in chosen:
            if all(not cross_ids(pts, *pair, *other) for other in kept):
                kept.append(pair)
        chosen = kept
    return Matching.of(pts, chosen), trace


def assert_one_third_equals_reference(pts, m):
    rotations = len(one_third(pts, m)[1].steps)
    for cap in (None, 0, 1, rotations):
        out, trace = one_third(pts, m, cap=cap)
        ref_out, ref_trace = reference_one_third(pts, m, cap=cap)
        assert out.pairs == ref_out.pairs
        assert trace == ref_trace
        # The cap fires only when rotatable pairs are left after it.
        assert trace.capped == (cap is not None and cap < rotations)
        assert len(trace.steps) == (rotations if cap is None else min(cap, rotations))


def shuffled_matching(pts, seed):
    ids = list(range(pts.n))
    random.Random(seed).shuffle(ids)
    return Matching.of(pts, [(ids[k], ids[k + 1]) for k in range(0, pts.n - 1, 2)])


def one_third_corpus():
    yield "grid6", [(x * S, y * S) for x in range(6) for y in range(6)]
    circle = sorted(
        (x, y) for x in range(-25, 26) for y in range(-25, 26) if x * x + y * y == 625
    )
    yield "circle25", circle
    yield "collinear", [(k * S, 0) for k in range(20)]
    yield "collinear+1", [(k * S, 0) for k in range(19)] + [(7 * S, 2 * S)]
    rng = random.Random(8)
    shift = 2**60
    yield "beyond-2^53", [(shift + rng.randrange(10**7), shift + rng.randrange(10**7)) for _ in range(40)]
    big = 10**21
    yield "2span^2>=2^63", sorted({(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(40)})
    for n in (140, 200):
        pts = gen_points(n, 3, "uniform")
        yield f"uniform{n}", list(zip(pts.xs, pts.ys))


@pytest.mark.parametrize("name,coords", list(one_third_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_one_third_equals_rescan_degenerate(name, coords):
    pts = PointSet(coords)
    # A shuffled matching crosses often (63 rotations on uniform140); the
    # crossing bottleneck matching rarely.
    assert_one_third_equals_reference(pts, shuffled_matching(pts, len(coords)))
    if pts.n <= 40:
        assert_one_third_equals_reference(pts, bottleneck_crossing(pts).matching)


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=2, max_size=30),
    st.integers(0, 2**32),
)
def test_one_third_equals_rescan_small(coords, seed):
    pts = PointSet(sorted(coords))
    assert_one_third_equals_reference(pts, shuffled_matching(pts, seed))


def test_one_third_crossing_tests_few(monkeypatch):
    from planematch import udg

    calls = []
    real = udg.cross_ids

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(udg, "cross_ids", counted)
    for seed in range(1, 9):
        pts = gen_points(300, seed, "uniform")
        m = bottleneck_crossing(pts).matching
        calls.clear()
        one_third(pts, m)
        # The rescan made 14k-73k tests here.
        assert len(calls) <= 3000, (seed, len(calls))


def test_one_third_steps_on_20k_uniform_are_pinned(monkeypatch):
    # The crossing matching of 20k uniform points rotates 84 times. The
    # digests of the steps (removed, then added edges) and of the output,
    # and the number of crossing tests, are those of the per-rotation
    # Python box scan this loop replaced.
    from planematch import udg

    def digest(obj) -> str:
        return hashlib.sha256(json.dumps(obj).encode()).hexdigest()

    calls = []
    real = udg.cross_ids

    def counted(*args):
        calls.append(1)
        return real(*args)

    pts = gen_points(20000, 1, "uniform")
    m = bottleneck_crossing(pts).matching
    monkeypatch.setattr(udg, "cross_ids", counted)
    out, trace = one_third(pts, m)
    assert (len(trace.steps), trace.class_sizes, trace.capped, len(calls)) == (84, (1605, 6740, 1655), False, 450)
    steps = [[list(e) for e in step.removed + step.added] for step in trace.steps]
    assert digest(steps) == "1a39ce4053d5e44a7c501898a67027681d11472fd26b66fe2cb8134262a2f8d2"
    assert digest([list(p) for p in out.pairs]) == "c4d93af9dee02ff94acc38781a2102f3716438ed553ffef64e1fdbfc24ff5138"
