"""Tests for the exact geometry predicates."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planematch.errors import DegenerateAngle, DegeneratePolygon, UnknownPointId
from planematch.geometry import (
    PointSet,
    Segment,
    cmp_cw_angle,
    cmp_unsigned_angle,
    convex_empty,
    cw_angle,
    cw_ge_pi,
    segments_cross,
    segments_cross_coords,
    sort_clockwise,
)

S = 10**6


def ps(*coords):
    return PointSet((int(x * S), int(y * S)) for x, y in coords)


def seg(pts, a, b):
    return Segment.of(pts, a, b)


def reference_cross(a, b, c, d) -> bool:
    """Rational-arithmetic crossing reference.

    Solves the segment intersection parametrically with Fractions and then
    decides interiority, fully independently of the orientation-based path.
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx, dy = d
    r = (bx - ax, by - ay)
    s = (dx - cx, dy - cy)
    denom = r[0] * s[1] - r[1] * s[0]
    qp = (cx - ax, cy - ay)
    if denom != 0:
        t = Fraction(qp[0] * s[1] - qp[1] * s[0], denom)
        u = Fraction(qp[0] * r[1] - qp[1] * r[0], denom)
        if not (0 <= t <= 1 and 0 <= u <= 1):
            return False
        interior_first = 0 < t < 1
        interior_second = 0 < u < 1
        return interior_first or interior_second
    # Parallel. Cross only if collinear with overlapping interiors.
    if qp[0] * r[1] - qp[1] * r[0] != 0:
        return False
    if r == (0, 0) or s == (0, 0):
        return False
    # Project onto r.
    rr = r[0] * r[0] + r[1] * r[1]
    t0 = Fraction(qp[0] * r[0] + qp[1] * r[1], rr)
    t1 = t0 + Fraction(s[0] * r[0] + s[1] * r[1], rr)
    lo, hi = min(t0, t1), max(t0, t1)
    return max(lo, Fraction(0)) < min(hi, Fraction(1))


def test_x_crossing():
    pts = ps((0, 0), (2, 2), (0, 2), (2, 0))
    assert segments_cross(pts, seg(pts, 0, 1), seg(pts, 2, 3)) is True


def test_shared_endpoint_only():
    pts = ps((0, 0), (1, 0), (1, 1))
    assert segments_cross(pts, seg(pts, 0, 1), seg(pts, 1, 2)) is False


def test_collinear_interior_overlap():
    pts = ps((0, 0), (2, 0), (1, 0), (3, 0))
    assert segments_cross(pts, seg(pts, 0, 1), seg(pts, 2, 3)) is True


def test_t_junction_crosses():
    pts = ps((0, 0), (2, 0), (1, 0), (1, 1))
    assert segments_cross(pts, seg(pts, 0, 1), seg(pts, 2, 3)) is True


def test_shared_endpoint_collinear_disjoint():
    pts = ps((1, 0), (0, 0), (2, 0))
    assert segments_cross(pts, seg(pts, 0, 1), seg(pts, 0, 2)) is False


def test_unknown_id_raises():
    pts = ps((0, 0), (1, 0))
    with pytest.raises(UnknownPointId):
        segments_cross(pts, Segment(0, 5, 1), Segment(0, 1, 1))


def test_cross_symmetry_random():
    rng = random.Random(7)
    pts = PointSet(
        (rng.randrange(-50, 50), rng.randrange(-50, 50))
        for _ in range(0)
    )
    for _ in range(2000):
        coords = []
        seen = set()
        while len(coords) < 4:
            c = (rng.randrange(-8, 9), rng.randrange(-8, 9))
            if c not in seen:
                seen.add(c)
                coords.append(c)
        p = PointSet(coords)
        s1, s2 = Segment.of(p, 0, 1), Segment.of(p, 2, 3)
        assert segments_cross(p, s1, s2) == segments_cross(p, s2, s1)


def test_exactness_against_rational_reference():
    # 10^5 random integer-coordinate segment pairs, small ranges so that
    # collinear and endpoint-touching configurations actually occur.
    rng = random.Random(20260810)
    for trial in range(100_000):
        span = 6 if trial % 2 == 0 else 40
        a = (rng.randrange(-span, span), rng.randrange(-span, span))
        b = (rng.randrange(-span, span), rng.randrange(-span, span))
        c = (rng.randrange(-span, span), rng.randrange(-span, span))
        d = (rng.randrange(-span, span), rng.randrange(-span, span))
        if a == b or c == d:
            continue
        shared = len({a, b} & {c, d})
        got = segments_cross_coords(*a, *b, *c, *d)
        want = reference_cross(a, b, c, d)
        if shared == 1 and not want:
            # Reference treats a shared endpoint as boundary contact only;
            # both must agree it is not a crossing unless interiors overlap.
            assert got == want, (a, b, c, d)
        else:
            assert got == want, (a, b, c, d)


def test_cw_angle_quarter_turns():
    pts = ps((0, 1), (0, 0), (1, 0))
    assert cw_angle(pts, 0, 1, 2) == pytest.approx(math.pi / 2)
    assert cw_angle(pts, 2, 1, 0) == pytest.approx(3 * math.pi / 2)


def test_cw_angle_identity_and_pi():
    pts = ps((1, 0), (0, 0), (2, 0), (-1, 0))
    assert cw_angle(pts, 0, 1, 2) == 0.0
    assert cw_angle(pts, 0, 1, 3) == math.pi


def test_cw_angle_sum_property():
    rng = random.Random(3)
    for _ in range(500):
        coords = set()
        while len(coords) < 3:
            coords.add((rng.randrange(-30, 30), rng.randrange(-30, 30)))
        a, v, b = list(coords)
        pts = PointSet([a, v, b])
        if a == v or b == v:
            continue
        from planematch.geometry import orientation

        if orientation(pts, 1, 0, 2) == 0:
            continue
        total = cw_angle(pts, 0, 1, 2) + cw_angle(pts, 2, 1, 0)
        assert total == pytest.approx(2 * math.pi)


def test_cw_angle_degenerate_raises():
    pts = ps((0, 0), (1, 0))
    with pytest.raises(DegenerateAngle):
        cw_angle(pts, 0, 0, 1)


def test_cw_lt_pi_matches_orientation_sign():
    rng = random.Random(11)
    from planematch.geometry import orientation

    for _ in range(2000):
        coords = set()
        while len(coords) < 3:
            coords.add((rng.randrange(-20, 20), rng.randrange(-20, 20)))
        lst = list(coords)
        pts = PointSet(lst)
        a, v, b = 0, 1, 2
        if orientation(pts, v, a, b) == 0:
            continue
        strictly_cw = orientation(pts, v, a, b) < 0
        assert (cw_angle(pts, a, v, b) < math.pi) == strictly_cw
        assert cw_ge_pi(pts, a, v, b) == (not strictly_cw)


def test_convex_empty_square():
    pts = ps((0, 0), (1, 0), (1, 1), (0, 1))
    assert convex_empty(pts, [0, 1, 2, 3]) is True


def test_convex_empty_center_blocks():
    pts = ps((0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5))
    assert convex_empty(pts, [0, 1, 2, 3]) is False


def test_convex_empty_boundary_point_blocks():
    pts = ps((0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0))
    assert convex_empty(pts, [0, 1, 2, 3]) is False


def test_convex_empty_reflex_dart():
    pts = ps((0, 0), (2, 0), (1, 0.2), (2, 2))
    assert convex_empty(pts, [0, 1, 2, 3]) is False


def test_convex_empty_collinear_raises():
    pts = ps((0, 0), (1, 0), (2, 0), (2, 2))
    with pytest.raises(DegeneratePolygon):
        convex_empty(pts, [0, 1, 2, 3])


def test_cmp_angles_against_float():
    rng = random.Random(5)
    for _ in range(3000):
        coords = set()
        while len(coords) < 5:
            coords.add((rng.randrange(-40, 40), rng.randrange(-40, 40)))
        lst = list(coords)
        pts = PointSet(lst)
        v = 0
        a, b, c, d = 1, 2, 3, 4
        th1 = cw_angle(pts, a, v, b)
        th2 = cw_angle(pts, c, v, d)
        if abs(th1 - th2) < 1e-9:
            continue
        want = -1 if th1 < th2 else 1
        assert cmp_cw_angle(pts, a, v, b, c, v, d) == want
        u1 = min(th1, 2 * math.pi - th1)
        u2 = min(th2, 2 * math.pi - th2)
        if abs(u1 - u2) > 1e-9:
            wantu = -1 if u1 < u2 else 1
            assert cmp_unsigned_angle(pts, a, v, b, c, v, d) == wantu


def test_sort_clockwise_matches_float_angles():
    rng = random.Random(13)
    for _ in range(300):
        coords = {(0, 0)}
        while len(coords) < 6:
            coords.add((rng.randrange(-30, 30), rng.randrange(-30, 30)))
        lst = [(0, 0)] + [c for c in coords if c != (0, 0)]
        pts = PointSet(lst)
        ids = list(range(2, 6))
        got = sort_clockwise(pts, 0, ids, 1)
        keyed = sorted(ids, key=lambda i: (cw_angle(pts, 1, 0, i), i))
        angles = [cw_angle(pts, 1, 0, i) for i in ids]
        if len(set(round(a, 9) for a in angles)) < len(angles):
            continue
        assert got == keyed


@given(
    st.lists(
        st.tuples(st.integers(-30, 30), st.integers(-30, 30)),
        min_size=4,
        max_size=4,
        unique=True,
    )
)
@settings(max_examples=300, deadline=None)
def test_cross_symmetric_property(coords):
    pts = PointSet(coords)
    s1, s2 = Segment.of(pts, 0, 1), Segment.of(pts, 2, 3)
    assert segments_cross(pts, s1, s2) == segments_cross(pts, s2, s1)
    assert segments_cross(pts, s1, s2) == reference_cross(
        coords[0], coords[1], coords[2], coords[3]
    )
