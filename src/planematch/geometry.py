"""Exact planar geometry on integer-scaled coordinates.

Coordinates are decimal values with at most six fractional digits, scaled by
10**6 and stored as Python ints. All orientation, distance and
angle-threshold comparisons below are therefore exact; only angle magnitudes
(``cw_angle``) are returned in double precision. The incircle test lives with
the Delaunay triangulation in ``proximity``.

Angle conventions: ``cw_angle(a, v, b)`` is the clockwise rotation in
[0, 2*pi) taking ray v->a onto ray v->b. Threshold tests against pi/3, pi/2
and pi are separate exact predicates and never go through floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DegenerateAngle, DegeneratePolygon, DuplicatePoint, UnknownPointId

SCALE = 10**6
# Coordinates translated by their minimum are kept in int64 below this span,
# which leaves room for the difference of two of them.
INT64_SPAN = 2**62


@dataclass(frozen=True)
class Point:
    """A point with exact scaled-integer coordinates and its index."""

    x: int
    y: int
    id: int


class PointSet:
    """Immutable indexed set of distinct points.

    Ids are dense in [0, n). Coordinate arrays are plain Python ints so all
    derived predicates stay exact regardless of magnitude. ``_kdtree``,
    ``_peel`` (the skeleton-peeling working arrays) and ``_xy`` (see
    ``translated``) are built on first use.
    """

    __slots__ = ("xs", "ys", "_kdtree", "_peel", "_xy")

    def __init__(self, coords: Iterable[tuple[int, int]]):
        xs: list[int] = []
        ys: list[int] = []
        seen: set[tuple[int, int]] = set()
        for x, y in coords:
            key = (x, y)
            if key in seen:
                raise DuplicatePoint(f"duplicate point ({x}, {y})")
            seen.add(key)
            xs.append(x)
            ys.append(y)
        self.xs = xs
        self.ys = ys
        self._kdtree = None
        self._peel = None
        self._xy = None

    @property
    def n(self) -> int:
        return len(self.xs)

    def __len__(self) -> int:
        return len(self.xs)

    def check_id(self, i: int) -> None:
        if not 0 <= i < len(self.xs):
            raise UnknownPointId(f"point id {i} out of range [0, {len(self.xs)})")

    def point(self, i: int) -> Point:
        self.check_id(i)
        return Point(self.xs[i], self.ys[i], i)

    def sq_dist(self, i: int, j: int) -> int:
        dx = self.xs[i] - self.xs[j]
        dy = self.ys[i] - self.ys[j]
        return dx * dx + dy * dy

    def translated(self) -> tuple[int, int, int, Optional[np.ndarray]]:
        """(x0, y0, span, xy): the least x and y, the largest coordinate
        range, and the (n, 2) int64 array of the coordinates minus (x0, y0)
        when the span is below ``INT64_SPAN``, else None. Computed once.

        Differences and comparisons of the translated values are exact in
        int64; squared lengths are too while 2 * span^2 < 2^63."""
        if self._xy is None:
            xs, ys = self.xs, self.ys
            if not xs:
                self._xy = (0, 0, 0, np.zeros((0, 2), dtype=np.int64))
                return self._xy
            x0, y0 = min(xs), min(ys)
            x1, y1 = max(xs), max(ys)
            span = max(x1 - x0, y1 - y0)
            xy = None
            if span < INT64_SPAN:
                if -(2**63) <= min(x0, y0) and max(x1, y1) < 2**63:
                    xy = np.array((xs, ys), dtype=np.int64).T - np.array((x0, y0), dtype=np.int64)
                else:
                    xy = np.array(([x - x0 for x in xs], [y - y0 for y in ys]), dtype=np.int64).T
                xy = np.ascontiguousarray(xy)
            self._xy = (x0, y0, span, xy)
        return self._xy


@dataclass(frozen=True)
class Segment:
    """A segment between two point ids with its exact squared length."""

    a: int
    b: int
    sq_length: int

    @classmethod
    def of(cls, pts: PointSet, a: int, b: int) -> "Segment":
        pts.check_id(a)
        pts.check_id(b)
        if a == b:
            raise DegeneratePolygon(f"segment endpoints coincide: {a}")
        return cls(a, b, pts.sq_dist(a, b))


def orient(ax: int, ay: int, bx: int, by: int, cx: int, cy: int) -> int:
    """Sign of the cross product (b-a) x (c-a): >0 ccw, <0 cw, 0 collinear."""
    v = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def orientation(pts: PointSet, i: int, j: int, k: int) -> int:
    """Exact orientation of the point triple (i, j, k)."""
    xs, ys = pts.xs, pts.ys
    return orient(xs[i], ys[i], xs[j], ys[j], xs[k], ys[k])


def _on_open_segment(ax, ay, bx, by, px, py) -> bool:
    """True iff p lies on segment ab strictly between its endpoints.

    Assumes p is already known to be collinear with a and b.
    """
    if ax != bx:
        lo, hi = (ax, bx) if ax < bx else (bx, ax)
        return lo < px < hi
    lo, hi = (ay, by) if ay < by else (by, ay)
    return lo < py < hi


def segments_cross_coords(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Exact crossing test on raw coordinates; see ``segments_cross``."""
    o1 = orient(ax, ay, bx, by, cx, cy)
    o2 = orient(ax, ay, bx, by, dx, dy)
    o3 = orient(cx, cy, dx, dy, ax, ay)
    o4 = orient(cx, cy, dx, dy, bx, by)
    if o1 != o2 and o3 != o4 and o1 != 0 and o2 != 0 and o3 != 0 and o4 != 0:
        return True
    if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
        # All four points collinear: cross iff the interiors overlap.
        if ax != bx or cx != dx:
            lo1, hi1 = (ax, bx) if ax < bx else (bx, ax)
            lo2, hi2 = (cx, dx) if cx < dx else (dx, cx)
        else:
            lo1, hi1 = (ay, by) if ay < by else (by, ay)
            lo2, hi2 = (cy, dy) if cy < dy else (dy, cy)
        return max(lo1, lo2) < min(hi1, hi2)
    # An endpoint strictly interior to the other segment is a crossing.
    if o1 == 0 and _on_open_segment(ax, ay, bx, by, cx, cy):
        return True
    if o2 == 0 and _on_open_segment(ax, ay, bx, by, dx, dy):
        return True
    if o3 == 0 and _on_open_segment(cx, cy, dx, dy, ax, ay):
        return True
    if o4 == 0 and _on_open_segment(cx, cy, dx, dy, bx, by):
        return True
    return False


def cross_ids(pts: PointSet, a: int, b: int, c: int, d: int) -> bool:
    """Crossing test on point ids without constructing Segment objects."""
    xs, ys = pts.xs, pts.ys
    return segments_cross_coords(
        xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
    )


def segments_cross(pts: PointSet, s1: Segment, s2: Segment) -> bool:
    """True iff the closed segments intersect at a point interior to at least
    one of them.

    Segments that share exactly one endpoint and are otherwise disjoint do
    not cross; collinear segments with overlapping interiors do. Evaluated
    with exact integer orientation tests.
    """
    for i in (s1.a, s1.b, s2.a, s2.b):
        pts.check_id(i)
    return cross_ids(pts, s1.a, s1.b, s2.a, s2.b)


def cw_angle(pts: PointSet, a: int, v: int, b: int) -> float:
    """Clockwise rotation in [0, 2*pi) taking ray v->a onto ray v->b.

    The branch between 0, pi and the open ranges is decided by exact sign
    tests; only the magnitude within a range is floating point.
    """
    pts.check_id(a)
    pts.check_id(v)
    pts.check_id(b)
    if a == v or b == v:
        raise DegenerateAngle("angle apex coincides with a ray endpoint")
    xs, ys = pts.xs, pts.ys
    ux, uy = xs[a] - xs[v], ys[a] - ys[v]
    wx, wy = xs[b] - xs[v], ys[b] - ys[v]
    cross = ux * wy - uy * wx
    dot = ux * wx + uy * wy
    if cross == 0:
        return 0.0 if dot > 0 else math.pi
    theta = math.atan2(cross, dot)  # ccw signed angle in (-pi, pi)
    if cross > 0:
        return 2.0 * math.pi - theta
    return -theta


def cw_ge_pi(pts: PointSet, a: int, v: int, b: int) -> bool:
    """Exact test: cw_angle(a, v, b) >= pi."""
    xs, ys = pts.xs, pts.ys
    ux, uy = xs[a] - xs[v], ys[a] - ys[v]
    wx, wy = xs[b] - xs[v], ys[b] - ys[v]
    cross = ux * wy - uy * wx
    if cross != 0:
        return cross > 0
    return ux * wx + uy * wy < 0


def cw_le_half_pi(pts: PointSet, a: int, v: int, b: int) -> bool:
    """Exact test: cw_angle(a, v, b) <= pi/2."""
    xs, ys = pts.xs, pts.ys
    ux, uy = xs[a] - xs[v], ys[a] - ys[v]
    wx, wy = xs[b] - xs[v], ys[b] - ys[v]
    cross = ux * wy - uy * wx
    dot = ux * wx + uy * wy
    if cross > 0:
        return False
    if cross < 0:
        return dot >= 0
    return dot > 0


def dot_sign(pts: PointSet, a: int, v: int, b: int) -> int:
    """Sign of (a-v).(b-v); zero means the rays are perpendicular."""
    xs, ys = pts.xs, pts.ys
    d = (xs[a] - xs[v]) * (xs[b] - xs[v]) + (ys[a] - ys[v]) * (ys[b] - ys[v])
    return (d > 0) - (d < 0)


def angle_lt_third_pi(pts: PointSet, a: int, v: int, b: int) -> bool:
    """Exact test: the unsigned angle a-v-b is strictly below pi/3."""
    xs, ys = pts.xs, pts.ys
    ux, uy = xs[a] - xs[v], ys[a] - ys[v]
    wx, wy = xs[b] - xs[v], ys[b] - ys[v]
    dot = ux * wx + uy * wy
    if dot <= 0:
        return False
    return 4 * dot * dot > (ux * ux + uy * uy) * (wx * wx + wy * wy)


def cmp_unsigned_angle(
    pts: PointSet, a1: int, v1: int, b1: int, a2: int, v2: int, b2: int
) -> int:
    """Exactly compare two unsigned angles in [0, pi].

    Returns -1/0/1 as angle(a1,v1,b1) is less than / equal to / greater than
    angle(a2,v2,b2). Cosine is monotone decreasing on [0, pi], so the
    comparison reduces to exact sign and squared-cosine tests.
    """
    xs, ys = pts.xs, pts.ys
    ux1, uy1 = xs[a1] - xs[v1], ys[a1] - ys[v1]
    wx1, wy1 = xs[b1] - xs[v1], ys[b1] - ys[v1]
    ux2, uy2 = xs[a2] - xs[v2], ys[a2] - ys[v2]
    wx2, wy2 = xs[b2] - xs[v2], ys[b2] - ys[v2]
    d1 = ux1 * wx1 + uy1 * wy1
    d2 = ux2 * wx2 + uy2 * wy2
    s1 = (d1 > 0) - (d1 < 0)
    s2 = (d2 > 0) - (d2 < 0)
    if s1 != s2:
        # Larger cosine sign means smaller angle.
        return -1 if s1 > s2 else 1
    n1 = d1 * d1 * ((ux2 * ux2 + uy2 * uy2) * (wx2 * wx2 + wy2 * wy2))
    n2 = d2 * d2 * ((ux1 * ux1 + uy1 * uy1) * (wx1 * wx1 + wy1 * wy1))
    if s1 >= 0:
        # cos >= 0: bigger squared cosine => smaller angle.
        if n1 != n2:
            return -1 if n1 > n2 else 1
        return 0
    if n1 != n2:
        return -1 if n1 < n2 else 1
    return 0


def cmp_cw_angle(
    pts: PointSet, a1: int, v1: int, b1: int, a2: int, v2: int, b2: int
) -> int:
    """Exactly compare two clockwise angles in [0, 2*pi)."""

    def bucket_and_vecs(a, v, b):
        xs, ys = pts.xs, pts.ys
        ux, uy = xs[a] - xs[v], ys[a] - ys[v]
        wx, wy = xs[b] - xs[v], ys[b] - ys[v]
        cross = ux * wy - uy * wx
        dot = ux * wx + uy * wy
        if cross == 0:
            bucket = 0 if dot > 0 else 2
        elif cross < 0:
            bucket = 1  # cw angle in (0, pi)
        else:
            bucket = 3  # cw angle in (pi, 2*pi)
        return bucket, dot, (ux * ux + uy * uy) * (wx * wx + wy * wy)

    b1_, d1, m1 = bucket_and_vecs(a1, v1, b1)
    b2_, d2, m2 = bucket_and_vecs(a2, v2, b2)
    if b1_ != b2_:
        return -1 if b1_ < b2_ else 1
    if b1_ in (0, 2):
        return 0
    s1 = (d1 > 0) - (d1 < 0)
    s2 = (d2 > 0) - (d2 < 0)
    # Within (0, pi): angle grows as cos falls. Within (pi, 2*pi): cw angle
    # is 2*pi - ccw angle, so it grows as cos grows.
    if s1 != s2:
        less = s1 > s2 if b1_ == 1 else s1 < s2
        return -1 if less else 1
    n1 = d1 * d1 * m2
    n2 = d2 * d2 * m1
    if n1 == n2:
        return 0
    if s1 >= 0:
        cos_bigger = n1 > n2
    else:
        cos_bigger = n1 < n2
    less = cos_bigger if b1_ == 1 else not cos_bigger
    return -1 if less else 1


def sort_clockwise(pts: PointSet, center: int, ids: Sequence[int], ref: int) -> list[int]:
    """Sort ``ids`` by clockwise angle around ``center`` starting at ray
    center->ref. Ties (collinear equal directions) fall back to id order.
    """
    import functools

    def cmp(u: int, w: int) -> int:
        c = cmp_cw_angle(pts, ref, center, u, ref, center, w)
        if c != 0:
            return c
        return -1 if u < w else (1 if u > w else 0)

    return sorted(ids, key=functools.cmp_to_key(cmp))


def point_in_convex_polygon(pts: PointSet, poly: Sequence[int], p: int) -> bool:
    """True iff point p lies inside or on the boundary of the convex polygon.

    The polygon must be strictly convex and consistently oriented.
    """
    xs, ys = pts.xs, pts.ys
    sign = 0
    m = len(poly)
    for idx in range(m):
        a, b = poly[idx], poly[(idx + 1) % m]
        o = orient(xs[a], ys[a], xs[b], ys[b], xs[p], ys[p])
        if o == 0:
            continue
        if sign == 0:
            sign = o
        elif o != sign:
            return False
    # Also when p is collinear with every edge: degenerate, on the boundary.
    return True


def convex_empty(pts: PointSet, poly: Sequence[int]) -> bool:
    """True iff ``poly`` (3 to 5 vertex ids, in order) is strictly convex and
    contains no other point of ``pts`` inside or on its boundary.

    Raises DegeneratePolygon when three consecutive vertices are collinear.
    """
    m = len(poly)
    if not 3 <= m <= 5:
        raise DegeneratePolygon(f"polygon must have 3..5 vertices, got {m}")
    if len(set(poly)) != m:
        raise DegeneratePolygon("polygon vertices must be distinct")
    for i in poly:
        pts.check_id(i)
    xs, ys = pts.xs, pts.ys
    sign = 0
    for idx in range(m):
        a = poly[idx]
        b = poly[(idx + 1) % m]
        c = poly[(idx + 2) % m]
        o = orient(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c])
        if o == 0:
            raise DegeneratePolygon("three consecutive polygon vertices are collinear")
        if sign == 0:
            sign = o
        elif o != sign:
            return False
    vertex_set = set(poly)
    for p in range(pts.n):
        if p in vertex_set:
            continue
        if point_in_convex_polygon(pts, poly, p):
            return False
    return True


def point_in_triangle_closed(pts: PointSet, u: int, v: int, w: int, p: int) -> bool:
    """True iff p lies inside or on the (possibly degenerate) triangle uvw."""
    xs, ys = pts.xs, pts.ys
    o = orient(xs[u], ys[u], xs[v], ys[v], xs[w], ys[w])
    if o == 0:
        # Degenerate triangle: p must lie on one of the segments.
        for a, b in ((u, v), (u, w), (v, w)):
            if orient(xs[a], ys[a], xs[b], ys[b], xs[p], ys[p]) == 0:
                lox, hix = min(xs[a], xs[b]), max(xs[a], xs[b])
                loy, hiy = min(ys[a], ys[b]), max(ys[a], ys[b])
                if lox <= xs[p] <= hix and loy <= ys[p] <= hiy:
                    return True
        return False
    for a, b in ((u, v), (v, w), (w, u)):
        side = orient(xs[a], ys[a], xs[b], ys[b], xs[p], ys[p])
        if side != 0 and side != o:
            return False
    return True
