"""Proximity structures: Delaunay triangulation, the Borůvka MST
kernel, degree-bounded Euclidean MST, threshold forests, disk graphs,
short-pair lists, second-closest queries and skeletons.

The Delaunay triangulation is exact: every internal edge is locally Delaunay
under an exact integer incircle test. It has two tie rules. The canonical
one (the default of ``delaunay``) also flips exactly co-circular quads to
the lexicographically smaller diagonal, so the result is unique and
deterministic. The strict one flips only where the incircle determinant is
strictly positive and keeps whichever diagonal of a co-circular quad it was
given; the pipeline (``emst5``, the even forest) uses it. Either result
contains the Euclidean MST under the (length, id) order of the passes: the
closed disk with diameter pq of an MST edge pq holds no other point, since a
point r on or inside it has |pr|, |rq| < |pq| and pq would be the strict
maximum of a cycle. An edge with such an empty closed disk lies in every
Delaunay triangulation, so Kruskal takes the same edges in the same order
from either. The strict triangulation is kept on the PointSet, and a
second-closest query reads the Delaunay neighbours of its two points
(``second_closest_batch``).

scipy (Qhull) proposes a triangulation of the coordinates translated by
their exact integer minimum. Floats then serve only as a certified filter:
when the coordinate span is below 2^53 the translated doubles are exact, and
Shewchuk's static error bounds prove most internal edges strictly locally
Delaunay. The edges the filter cannot decide, such as the co-circular
diagonals of every lattice square, get the exact integer test in one numpy
pass (``_incircle_signs``): int64 on the coordinates divided by their gcd
where every intermediate provably fits, object arrays of Python ints
otherwise, and the scalar canonical tie rule only where the determinant is
zero. When no edge must flip, Qhull's triangulation is returned as is;
otherwise a Lawson flip pass repairs it, testing exactly every edge whose
certificate does not hold. A span of 2^53 or more, or Qhull's joggled
fallback, skips the filter: every edge goes to the exact stage. Past that
span Qhull gets the translated coordinates shifted right to 53 bits, which
keeps its arithmetic in the float range at any coordinate size. The shift
can merge points, and then some of Qhull's triangles are not strictly
counterclockwise in exact coordinates, which no flip repairs: on those two
routes such a triangle sends the whole set to an exact lexicographic sweep
(``_swept_mesh``) before the flip pass. So does any point Qhull leaves out
(near-collinear input can lose some, with wrongly oriented triangles
beside them), at any span. Exactness therefore depends on the span of the
coordinates, not on their magnitude. Every array kernel reads one exact
copy of them, ``PointSet.translated`` (int64 or Python ints), and squared
lengths come from ``geometry.sq_lengths``, which ``sorted_candidate_edges``
orders by one stable argsort.

The MST comes from ``boruvka``: Borůvka's rounds in numpy over the index
order of ``sorted_candidate_edges``, which is total, so they take exactly
the edges a Kruskal pass would. A tree needs no pass: ``Tree.rooted`` hangs
it from its smallest vertex once, by an Euler tour ranked by pointer
jumping (``_hang``), and keeps each vertex's parent and subtree size. The
first all-even Kruskal prefix of the MST ends at its last edge with an odd
subtree below it (``last_odd_edge``), whose length is the even threshold
of both approximations. The parts of any subset of a tree's edges are
labelled by the parent array with every removed edge's lower end made a
root (``subtrees``, ``forest_leq``).

The fixed-radius queries, ``disk_graph`` and ``pairs_within``, share one
numpy kernel, ``_near_pairs``: the points are sorted by the code of their
grid cell, cells as wide as the radius, and each is joined to its
half-neighbourhood in a 3 x 3 block of cells by two runs of the sorted
codes (``searchsorted``); the candidates are kept by their exact squared
length. It runs in int64 where every intermediate provably fits, and the
same steps on object arrays of Python ints otherwise. ``pairs_within``
returns the pairs as arrays (sq, u, v) sorted by (sq, u, v), the shape of
``sorted_candidate_edges``; ``disk_graph`` sorts them into neighbour lists.

Every ``Tree`` comes from one builder, ``_build_forest``, and is its edge
arrays: the int64 ends and squared lengths ``sorted_candidate_edges``
returned, at the indices ``boruvka`` took (``emst5``), or a masked copy of
a tree's own arrays (``forest_leq``, ``subtrees``, ``skeleton``).
Components are the roots (``_roots``) of a parent array: ``boruvka``'s
labels, or the cut parent array of the rooted tree. Besides the
arrays a tree holds the sorted ``adj`` lists that the peeling reads and its
forest's degree counts; its ``edge_sq`` dict is built only when something
reads it.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import isqrt
from typing import NamedTuple, Optional

import numpy as np

from .errors import InvariantViolation, OddPointCount, TooFewPoints
from .geometry import PointSet, orient, orientation, sq_lengths


class Triangulation:
    """The distinct edges (u, v), u < v, of a planar triangulation over
    point ids below ``n``, held as their int64 codes ``u * n + v`` in
    increasing order, which is the lexicographic order of the pairs.

    ``edges`` spells them out as a tuple of pairs on first use; the
    pipeline's Kruskal order (``sorted_candidate_edges``) reads the codes.
    """

    __slots__ = ("codes", "n", "_edges")

    def __init__(self, codes: np.ndarray, n: int):
        self.codes = codes
        self.n = n
        self._edges: Optional[tuple[tuple[int, int], ...]] = None

    @classmethod
    def of_pairs(cls, pairs, n: int) -> "Triangulation":
        """The Triangulation of distinct (u, v) pairs with u < v."""
        return cls(np.sort(np.array([u * n + v for u, v in pairs], dtype=np.int64)), n)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        if self._edges is None:
            lo, hi = np.divmod(self.codes, self.n)
            self._edges = tuple(zip(lo.tolist(), hi.tolist()))
        return self._edges


class Rooting(NamedTuple):
    """A tree hung from its smallest vertex, as int64 arrays: ``parent`` and
    ``size`` by point id up to the largest vertex (the root, and every id
    outside the tree, is its own parent; ``size`` counts the vertices of
    each subtree), and ``below``, the lower end of every edge in the order
    of the tree's edge arrays."""

    parent: np.ndarray
    size: np.ndarray
    below: np.ndarray


@dataclass(eq=False)
class Tree:
    """A tree over a subset of point ids with exact squared edge lengths, as
    the forest builder (``_build_forest``) made it; it is not edited
    afterwards, since the views and the rooting it keeps would go stale.

    ``adj`` lists each vertex's neighbours in increasing order, with the
    vertices in increasing order. The edges (u[i], v[i]), u < v, are int64
    arrays in lexicographic order, with their squared lengths ``sq`` (int64,
    or Python ints in an object array when they may not fit). ``deg`` and
    ``int_deg`` are lists by point id of every vertex's degree and number of
    neighbours of degree at least two, shared by the trees of one forest.
    ``edge_sq`` maps each (u, v) to its squared length, in the same order;
    it is built from the arrays on first read and kept. Two trees are equal
    when their vertices, ``adj`` and ``edge_sq`` are."""

    vertices: tuple[int, ...]
    adj: dict[int, list[int]]
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)
    sq: np.ndarray = field(repr=False)
    deg: list[int] = field(repr=False)
    int_deg: list[int] = field(repr=False)
    _edge_sq: Optional[dict[tuple[int, int], int]] = field(default=None, init=False, repr=False)
    _rooting: Optional[Rooting] = field(default=None, init=False, repr=False)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return (self.vertices, self.adj, self.edge_sq) == (other.vertices, other.adj, other.edge_sq)

    @property
    def n(self) -> int:
        return len(self.vertices)

    @property
    def edge_sq(self) -> dict[tuple[int, int], int]:
        if self._edge_sq is None:
            self._edge_sq = dict(zip(zip(self.u.tolist(), self.v.tolist()), self.sq.tolist()))
        return self._edge_sq

    def rooted(self) -> Rooting:
        """The tree hung from its smallest vertex (``_hang``), computed on
        first use and kept."""
        if self._rooting is None:
            size = self.vertices[-1] + 1 if self.vertices else 0
            self._rooting = _hang(self.u, self.v, size, self.vertices[0] if self.vertices else 0)
        return self._rooting

    def edges(self) -> list[tuple[int, int]]:
        return list(self.edge_sq.keys())


@dataclass
class Forest:
    """Vertex-disjoint trees jointly covering a point set."""

    trees: list[Tree]

    def tree_of(self) -> dict[int, int]:
        owner: dict[int, int] = {}
        for idx, t in enumerate(self.trees):
            for v in t.vertices:
                owner[v] = idx
        return owner


@dataclass
class DiskGraph:
    """All point pairs at squared distance <= sq_radius: ``adj`` lists each
    point's neighbours in increasing order, and ``u``, ``v`` are the int64
    ends u < v of every pair, in the order ``_near_pairs`` found them
    (``_component_labels`` reads them)."""

    adj: list[list[int]]
    sq_radius: int
    u: np.ndarray = field(repr=False, compare=False)
    v: np.ndarray = field(repr=False, compare=False)

    @property
    def n(self) -> int:
        return len(self.adj)

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u, nbrs in enumerate(self.adj):
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        return out


@dataclass
class SkeletonTree:
    """Induced subtree on the internal (degree >= 2) vertices of a tree."""

    tree: Tree
    back_map: tuple[int, ...]  # skeleton vertex ids, identical to source ids

    @property
    def n(self) -> int:
        return self.tree.n


# Shewchuk's static error bounds (orient2d and incircle, stage A) for
# double-precision evaluation on exactly representable inputs.
_EPS = 2.0**-53
_CCW_ERRBOUND_A = (3.0 + 16.0 * _EPS) * _EPS
_ICC_ERRBOUND_A = (10.0 + 96.0 * _EPS) * _EPS
# Internal edges certified per vectorized step, which bounds the temporaries.
_CERTIFY_CHUNK = 2048


def _edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _translated_floats(pts: PointSet) -> tuple[np.ndarray, bool]:
    """The coordinates minus their exact integer minimum, shifted right to
    53 bits when the span is 2^53 or more, as an (n, 2) float array; and
    whether the span is below 2^53, so that they are exact."""
    _, _, span, xy = pts.translated()
    shift = max(0, span.bit_length() - 53)
    return (xy >> shift).astype(float), shift == 0


def _coord_edge_key(pts: PointSet, u: int, v: int):
    a = (pts.xs[u], pts.ys[u])
    b = (pts.xs[v], pts.ys[v])
    return (a, b) if a < b else (b, a)


def _collinear_chain(pts: PointSet) -> Triangulation:
    order = sorted(range(pts.n), key=lambda i: (pts.xs[i], pts.ys[i]))
    return Triangulation.of_pairs((_edge_key(order[i], order[i + 1]) for i in range(pts.n - 1)), pts.n)


def _incircle(adx, ady, bdx, bdy, cdx, cdy):
    """The incircle determinant of triangle abc and point d from the
    differences a - d, b - d and c - d: positive when d lies strictly inside
    the circumcircle of ccw abc, zero on it. One expression for Python ints,
    int64 arrays and object arrays of Python ints."""
    ad2 = adx * adx + ady * ady
    bd2 = bdx * bdx + bdy * bdy
    cd2 = cdx * cdx + cdy * cdy
    return (
        adx * (bdy * cd2 - cdy * bd2)
        - ady * (bdx * cd2 - cdx * bd2)
        + ad2 * (bdx * cdy - cdx * bdy)
    )


def _incircle_det_int(pts: PointSet, a: int, b: int, c: int, d: int) -> int:
    xs, ys = pts.xs, pts.ys
    return _incircle(xs[a] - xs[d], ys[a] - ys[d], xs[b] - xs[d], ys[b] - ys[d], xs[c] - xs[d], ys[c] - ys[d])


def _incircle_signs(pts: PointSet, a, b, c, d) -> np.ndarray:
    """The sign (int8) of the exact incircle determinant of each triangle
    (a[i], b[i], c[i]), put in ccw order as ``_ccw`` does, and point d[i]:
    the sign of ``_incircle_det_int(pts, *_ccw(pts, a, b, c), d)``, over
    the translated coordinates of ``PointSet.translated`` (int64 below a
    span of 2^62, Python ints past it).

    The translated coordinates are divided by their gcd g, which changes
    neither sign: both determinants are homogeneous in the differences, and
    g > 0. With S the reduced span, every difference is at most S in
    absolute value, every lift dx^2 + dy^2 at most 2 S^2, each of the three
    terms of ``_incircle`` at most S * 4 S^3 or 2 S^2 * 2 S^2, that is
    4 S^4, and so every partial sum at most 12 S^4; the orientation is at
    most 2 S^2. The arithmetic is therefore int64 when 12 S^4 < 2^63, and
    the same expression runs on object arrays of Python ints otherwise.
    Rows are taken ``_CERTIFY_CHUNK`` at a time, which bounds the
    temporaries.
    """
    _, _, span, xy = pts.translated()
    g = max(int(np.gcd.reduce(xy, axis=None)), 1)
    xy = xy // g
    wide = 12 * (span // g) ** 4 >= 1 << 63
    out = np.empty(len(d), dtype=np.int8)
    for lo in range(0, len(d), _CERTIFY_CHUNK):
        part = slice(lo, lo + _CERTIFY_CHUNK)
        p = xy[np.stack((a[part], b[part], c[part], d[part]))]
        if wide:
            p = p.astype(object)
        ad, bd, cd = p[0] - p[3], p[1] - p[3], p[2] - p[3]
        det = _incircle(ad[:, 0], ad[:, 1], bd[:, 0], bd[:, 1], cd[:, 0], cd[:, 1])
        ba, ca = p[1] - p[0], p[2] - p[0]
        cw = ba[:, 0] * ca[:, 1] - ba[:, 1] * ca[:, 0] < 0
        sign = (det > 0).astype(np.int8) - (det < 0)
        out[part] = np.where(cw, -sign, sign)
    return out


def _ccw(pts: PointSet, a: int, b: int, c: int) -> list[int]:
    """The triangle's vertices in counterclockwise order (as given when
    degenerate)."""
    xs, ys = pts.xs, pts.ys
    if orient(xs[a], ys[a], xs[b], ys[b], xs[c], ys[c]) < 0:
        return [a, c, b]
    return [a, b, c]


def _should_flip(
    pts: PointSet, tri, p: int, q: int, edge: tuple[int, int], canonical: bool
) -> bool:
    """Whether the triangulation replaces ``edge`` of the ccw triangle
    ``tri`` (third vertex p) by the diagonal p-q: q lies strictly inside the
    circumcircle of tri, or, under the canonical tie rule, on it with p-q
    the lexicographically smaller diagonal."""
    det = _incircle_det_int(pts, *tri, q)
    if det != 0 or not canonical:
        return det > 0
    return _coord_edge_key(pts, p, q) < _coord_edge_key(pts, *edge)


def _certified_delaunay(xy: np.ndarray, a, b, c, d) -> np.ndarray:
    """True where static error bounds prove, for the exact coordinates in
    ``xy``, that triangle abc is nondegenerate and d lies strictly outside
    its circumcircle (Shewchuk 1997, orient2d and incircle stage A)."""
    ax, ay = xy[a, 0], xy[a, 1]
    bx, by = xy[b, 0], xy[b, 1]
    cx, cy = xy[c, 0], xy[c, 1]
    dx, dy = xy[d, 0], xy[d, 1]
    detleft = (ax - cx) * (by - cy)
    detright = (ay - cy) * (bx - cx)
    orientation = detleft - detright
    sure = np.abs(orientation) > _CCW_ERRBOUND_A * (np.abs(detleft) + np.abs(detright))
    adx, ady = ax - dx, ay - dy
    bdx, bdy = bx - dx, by - dy
    cdx, cdy = cx - dx, cy - dy
    bdxcdy, cdxbdy = bdx * cdy, cdx * bdy
    cdxady, adxcdy = cdx * ady, adx * cdy
    adxbdy, bdxady = adx * bdy, bdx * ady
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    det = alift * (bdxcdy - cdxbdy) + blift * (cdxady - adxcdy) + clift * (adxbdy - bdxady)
    permanent = (
        (np.abs(bdxcdy) + np.abs(cdxbdy)) * alift
        + (np.abs(cdxady) + np.abs(adxcdy)) * blift
        + (np.abs(adxbdy) + np.abs(bdxady)) * clift
    )
    sure &= np.abs(det) > _ICC_ERRBOUND_A * permanent
    # Outside means a negative determinant for the ccw ordering of abc.
    return sure & (np.sign(orientation) * det < 0)


class _FlipMesh:
    """Minimal editable triangulation supporting Lawson flips."""

    def __init__(self, pts: PointSet, triangles: list[list[int]]):
        self.pts = pts
        self.tris: list[Optional[list[int]]] = []
        self.edge_map: dict[tuple[int, int], list[int]] = {}
        for t in triangles:
            self._add_tri(t)

    def _add_tri(self, t) -> int:
        a, b, c = _ccw(self.pts, *t)
        idx = len(self.tris)
        self.tris.append([a, b, c])
        for e in (_edge_key(a, b), _edge_key(b, c), _edge_key(a, c)):
            self.edge_map.setdefault(e, []).append(idx)
        return idx

    def _remove_tri(self, idx: int) -> None:
        a, b, c = self.tris[idx]
        for e in (_edge_key(a, b), _edge_key(b, c), _edge_key(a, c)):
            lst = self.edge_map[e]
            lst.remove(idx)
            if not lst:
                del self.edge_map[e]
        self.tris[idx] = None

    def opposite(self, tri_idx: int, edge: tuple[int, int]) -> int:
        for v in self.tris[tri_idx]:
            if v not in edge:
                return v
        raise AssertionError("edge not part of triangle")

    def flip(self, edge: tuple[int, int]) -> Optional[tuple[int, int]]:
        """Replace the diagonal ``edge`` of its two incident triangles by the
        other diagonal; returns the new edge, or None if not flippable."""
        tris = self.edge_map.get(edge)
        if tris is None or len(tris) != 2:
            return None
        t1, t2 = tris
        p = self.opposite(t1, edge)
        q = self.opposite(t2, edge)
        u, v = edge
        xs, ys = self.pts.xs, self.pts.ys
        # The quad u-p-v-q must be strictly convex for the flip to be valid.
        o_up = orient(xs[p], ys[p], xs[q], ys[q], xs[u], ys[u])
        o_vq = orient(xs[p], ys[p], xs[q], ys[q], xs[v], ys[v])
        if o_up == 0 or o_vq == 0 or o_up == o_vq:
            return None
        self._remove_tri(max(t1, t2))
        self._remove_tri(min(t1, t2))
        self._add_tri([p, q, u])
        self._add_tri([p, q, v])
        return _edge_key(p, q)

    def live_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edge_map.keys())


def _canonicalize(
    pts: PointSet, mesh: _FlipMesh, certified: Optional[set[int]] = None, canonical: bool = True
) -> None:
    """Lawson flip loop with exact incircle tests.

    Flips every locally non-Delaunay internal edge and, under the canonical
    tie rule, exactly co-circular quads whose other diagonal has a
    lexicographically smaller coordinate key. Terminates because each flip
    strictly decreases the lifted potential or, at equal potential (a tie
    flip), the sorted edge-key multiset.

    Edges (u, v) whose code ``u * n + v`` is in ``certified`` are known to be
    strictly locally Delaunay and skip the exact test; an edge leaves the set
    when a flip replaces one of its two triangles. The flip sequence is the
    same as without certificates.
    """
    if certified is None:
        certified = set()
    n = pts.n
    pending = list(mesh.edge_map.keys())
    in_queue = set(pending)
    guard = 0
    limit = 20 * max(1, len(mesh.edge_map)) + 1000
    while pending:
        guard += 1
        if guard > limit:
            raise InvariantViolation("delaunay canonicalization did not converge")
        edge = pending.pop()
        in_queue.discard(edge)
        if edge[0] * n + edge[1] in certified:
            continue
        tris = mesh.edge_map.get(edge)
        if tris is None or len(tris) != 2:
            continue
        t1, t2 = tris
        p = mesh.opposite(t1, edge)
        q = mesh.opposite(t2, edge)
        if not _should_flip(pts, mesh.tris[t1], p, q, edge, canonical):
            continue
        new_edge = mesh.flip(edge)
        if new_edge is None:
            continue
        for t in mesh.edge_map[new_edge]:
            tri = mesh.tris[t]
            for e in (
                _edge_key(tri[0], tri[1]),
                _edge_key(tri[1], tri[2]),
                _edge_key(tri[0], tri[2]),
            ):
                if e != new_edge:
                    certified.discard(e[0] * n + e[1])
                    if e not in in_queue:
                        pending.append(e)
                        in_queue.add(e)


def _internal_edges(simplices: np.ndarray, neighbors: np.ndarray):
    """Each internal edge once, as (lower triangle i, local vertex k of i
    opposite the edge, apex q of the other triangle)."""
    i, k = np.nonzero(neighbors > np.arange(len(simplices))[:, None])
    j = neighbors[i, k]
    q = simplices[j, np.argmax(neighbors[j] == i[:, None], axis=1)]
    return i, k, q


def _certify_or_flip(pts: PointSet, xy: Optional[np.ndarray], tri, canonical: bool) -> Optional[set[int]]:
    """None when Qhull's triangulation ``tri`` already meets the tie rule;
    otherwise the codes ``u * n + v`` of its edges (u, v) certified strictly
    locally Delaunay by the float filter on the exact coordinates ``xy``,
    none without them. Codes, unlike tuples, add nothing for the garbage
    collector to scan.

    The other edges get the exact test that the flip pass would apply to
    them, so None means that pass would flip nothing: one vectorised
    evaluation of their incircle signs (``_incircle_signs``), and the
    scalar ``_should_flip`` only for the exact ties the canonical rule may
    flip.
    """
    simplices = tri.simplices
    i, k, q = _internal_edges(simplices, tri.neighbors)
    ok = np.zeros(len(i), dtype=bool)
    if xy is not None:
        for lo in range(0, len(i), _CERTIFY_CHUNK):
            part = slice(lo, lo + _CERTIFY_CHUNK)
            t = simplices[i[part]]
            ok[part] = _certified_delaunay(xy, t[:, 0], t[:, 1], t[:, 2], q[part])
    undecided = np.flatnonzero(~ok)
    if len(undecided) == 0:
        return None
    t = simplices[i[undecided]]
    sign = _incircle_signs(pts, t[:, 0], t[:, 1], t[:, 2], q[undecided])
    flips = bool((sign > 0).any())
    if canonical and not flips:
        for e in undecided[sign == 0].tolist():
            t = simplices[i[e]].tolist()
            kk = int(k[e])
            p, u, v = t[kk], t[(kk + 1) % 3], t[(kk + 2) % 3]
            if _should_flip(pts, _ccw(pts, *t), p, int(q[e]), _edge_key(u, v), canonical):
                flips = True
                break
    if not flips:
        return None
    u = simplices[i, (k + 1) % 3][ok].astype(np.int64)
    v = simplices[i, (k + 2) % 3][ok].astype(np.int64)
    return set((np.minimum(u, v) * pts.n + np.maximum(u, v)).tolist())


def _triangulation_of(simplices: np.ndarray, n: int) -> Triangulation:
    """The Triangulation of a triangle array: its sorted distinct edges."""
    pairs = np.concatenate((simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]))
    pairs.sort(axis=1)
    codes = np.sort(pairs[:, 0].astype(np.int64) * n + pairs[:, 1])
    return Triangulation(codes[np.append(True, codes[1:] != codes[:-1])], n)


def _strictly_ccw(pts: PointSet, simplices: np.ndarray) -> bool:
    """Whether every triangle of Qhull's ``simplices``, which Qhull orients
    counterclockwise, is strictly counterclockwise in exact coordinates:
    int64 products of the translated coordinates while 2 * span^2 < 2^63,
    Python ints past it, ``_CERTIFY_CHUNK`` triangles at a time."""
    span, xy = pts.translated()[2:]
    wide = 2 * span * span >= 1 << 63
    for lo in range(0, len(simplices), _CERTIFY_CHUNK):
        p = xy[simplices[lo : lo + _CERTIFY_CHUNK].T]
        if wide:
            p = p.astype(object)
        ba, ca = p[1] - p[0], p[2] - p[0]
        if not (ba[:, 0] * ca[:, 1] > ba[:, 1] * ca[:, 0]).all():
            return False
    return True


def _swept_mesh(pts: PointSet) -> _FlipMesh:
    """A triangulation of ``pts``, which must not all be collinear, built
    exactly: the points are inserted in lexicographic order, and each, which
    lies outside the hull of the earlier ones, is fanned to every hull edge
    it strictly sees. Those edges are one run of the counterclockwise hull
    that holds an edge of the previous point, the lexicographically largest
    so far, so each insertion walks the run from there. It is ``delaunay``'s
    one exact construction wherever Qhull's output cannot be repaired by
    flips: a dropped point, or a triangle that is not strictly
    counterclockwise."""
    xs, ys = pts.xs, pts.ys
    order = sorted(range(pts.n), key=lambda i: (xs[i], ys[i]))
    k = 2
    while orientation(pts, order[0], order[1], order[k]) == 0:
        k += 1
    first = order[k]
    mesh = _FlipMesh(pts, [[order[i], order[i + 1], first] for i in range(k - 1)])
    # The counterclockwise hull as successor and predecessor maps.
    ring = order[:k] + [first]
    if orientation(pts, order[0], order[1], first) < 0:
        ring = [order[0], first] + order[k - 1 : 0 : -1]
    nxt = dict(zip(ring, ring[1:] + ring[:1]))
    prv = {b: a for a, b in nxt.items()}
    last = first
    for r in order[k + 1 :]:
        right = last
        while orientation(pts, right, nxt[right], r) < 0:
            mesh._add_tri([right, nxt[right], r])
            right = nxt[right]
        left = last
        while orientation(pts, prv[left], left, r) < 0:
            mesh._add_tri([prv[left], left, r])
            left = prv[left]
        nxt[left], prv[r], nxt[r], prv[right] = r, left, right, r
        last = r
    return mesh


def delaunay(pts: PointSet, *, canonical: bool = True) -> Triangulation:
    """Delaunay triangulation by exact integer incircle tests.

    With ``canonical`` (the default) exactly co-circular ties are resolved
    toward the lexicographically smallest diagonal, so the triangulation is
    unique. Without it only strictly non-Delaunay edges flip, and a tie
    keeps the diagonal Qhull chose: still a Delaunay triangulation, and
    still one that contains the Euclidean MST, whose edges have empty
    closed diametral disks and so lie in every Delaunay triangulation (see
    the module docstring). That strict triangulation is kept on the
    PointSet, where ``second_closest_batch`` reads it. Fully collinear
    input degenerates to the consecutive-pair chain, which still contains
    the Euclidean MST.
    """
    out = _triangulate(pts, canonical)
    if not canonical:
        pts._delaunay = out
    return out


def _triangulate(pts: PointSet, canonical: bool) -> Triangulation:
    """``delaunay``'s triangulation.

    Past a span of 2^53, or after Qhull's joggled fallback, the float filter
    is skipped, and Qhull's triangles may not all be strictly
    counterclockwise in exact coordinates: the shift to 53 bits can merge
    points. At any span Qhull can drop near-collinear points, and the
    triangles around them need not be strictly counterclockwise either.
    The flip pass repairs neither, so in both cases the triangulation is
    built exactly (``_swept_mesh``) and flipped from there."""
    n = pts.n
    if n < 2:
        raise TooFewPoints(f"need at least 2 points, got {n}")
    if n == 2:
        return Triangulation.of_pairs([(0, 1)], n)
    xs, ys = pts.xs, pts.ys
    collinear = True
    for k in range(2, n):
        if orient(xs[0], ys[0], xs[1], ys[1], xs[k], ys[k]) != 0:
            collinear = False
            break
    if collinear:
        return _collinear_chain(pts)
    if n == 3:
        # Qhull's joggled retry needs four points.
        return Triangulation.of_pairs([(0, 1), (0, 2), (1, 2)], n)

    from scipy.spatial import Delaunay as _SciDelaunay
    from scipy.spatial import QhullError

    xy, exact_floats = _translated_floats(pts)
    try:
        tri = _SciDelaunay(xy)
    except QhullError:
        tri = _SciDelaunay(xy, qhull_options="QJ")
        exact_floats = False

    # Qhull merging can drop near-collinear points (exact duplicates are
    # impossible); only the sweep rebuilds them exactly.
    missing = (np.bincount(tri.simplices.ravel(), minlength=n) == 0).any()
    if missing or not exact_floats and not _strictly_ccw(pts, tri.simplices):
        mesh = _swept_mesh(pts)
        _canonicalize(pts, mesh, None, canonical)
        return Triangulation.of_pairs(mesh.live_edges(), n)
    certified = _certify_or_flip(pts, xy if exact_floats else None, tri, canonical)
    if certified is None:
        return _triangulation_of(tri.simplices, n)
    mesh = _FlipMesh(pts, tri.simplices.tolist())
    _canonicalize(pts, mesh, certified, canonical)
    return Triangulation.of_pairs(mesh.live_edges(), n)


def sorted_candidate_edges(pts: PointSet, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edges as arrays (sq, u, v) of squared lengths and int64 ends u < v,
    sorted by (length, lexicographic pair).

    ``edges`` is a Triangulation of ``pts``, whose sorted codes are read
    as they are, or any iterable of (u, v) pairs. The squared lengths come
    from ``sq_lengths``: int64, or Python ints in an object array past
    2 * span^2 >= 2^63, which numpy sorts all the same.
    """
    u, v = _edge_ends(edges)
    sq = sq_lengths(pts, u, v)
    # A stable sort by length keeps equal lengths in lexicographic order.
    order = np.argsort(sq, kind="stable")
    return sq[order], u[order], v[order]


def _edge_ends(edges) -> tuple[np.ndarray, np.ndarray]:
    """Int64 arrays u <= v of ``edges`` (see ``sorted_candidate_edges``) in
    lexicographic order, repeats kept."""
    if isinstance(edges, Triangulation):
        return np.divmod(edges.codes, edges.n)
    ends = np.fromiter(chain.from_iterable(edges), dtype=np.int64)
    u = np.minimum(ends[0::2], ends[1::2])
    v = np.maximum(ends[0::2], ends[1::2])
    order = np.lexsort((v, u))
    return u[order], v[order]


def _roots(parent) -> np.ndarray:
    """The root of every id in a parent list or array, such as
    ``boruvka``'s labels or a ``Rooting``'s ``parent``, by pointer
    jumping."""
    root = np.array(parent, dtype=np.int64)
    while True:
        up = root[root]
        if np.array_equal(up, root):
            return root
        root = up


def _component_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The smallest vertex of the component of every id below n in the
    graph with edges (u[i], v[i]), by hook-and-shortcut (Shiloach & Vishkin
    1982).

    Each round every root hooks to the smallest label across its edges
    that leave its component, when that label is smaller (``np.minimum.at``),
    and ``_roots`` compresses the labels; only the edges still between
    components are kept. Labels only fall, so they stay ids of the
    component and end at its smallest. A root that hooks nowhere and that
    no root hooks to has only larger neighbours, and they all hook to
    smaller labels, so it has a smaller neighbour in the next round: every
    component merges within two rounds, and there are O(log n) rounds.
    """
    label = np.arange(n, dtype=np.int64)
    while True:
        lu, lv = label[u], label[v]
        between = lu != lv
        if not between.any():
            return label
        u, v, lu, lv = u[between], v[between], lu[between], lv[between]
        np.minimum.at(label, lu, lv)
        np.minimum.at(label, lv, lu)
        label = _roots(label)


def _directed(u: np.ndarray, v: np.ndarray, n: int):
    """(order, tail, head, deg): the edges (u[i], v[i]) over ids below n in
    both directions, sorted by (tail, head); ``order`` maps them back to the
    index into ``concatenate((u, v))``, and ``deg`` counts each id's tails."""
    tail = np.concatenate((u, v))
    head = np.concatenate((v, u))
    order = np.argsort(tail * n + head)
    tail, head = tail[order], head[order]
    return order, tail, head, np.bincount(tail, minlength=n)


def _hang(u: np.ndarray, v: np.ndarray, size: int, root: int) -> Rooting:
    """The ``Rooting`` from ``root`` of the tree with edges (u[i], v[i])
    over ids below ``size``.

    The Euler tour (Tarjan & Vishkin 1985): after the directed edge a -> b
    the tour leaves b by the edge that follows b -> a in b's list, cyclically,
    on the sort of ``_directed``. Cut open before the root's first edge and
    ranked by pointer jumping (Wyllie 1979), it enters each subtree by the
    edge from the parent and leaves it by the reverse edge, so of an edge's
    two directions the earlier points down, and the two are 2 (s - 1) + 1
    places apart for the s vertices below.
    """
    m = len(u)
    parent = np.arange(size, dtype=np.int64)
    count = np.ones(size, dtype=np.int64)
    if m == 0:
        return Rooting(parent, count, u)
    order, _, head, deg = _directed(u, v, size)
    # at[i]: the place in the sort of direction i of concatenate((u, v)).
    at = np.empty(2 * m, dtype=np.int64)
    at[order] = np.arange(2 * m)
    nxt = at[np.where(order < m, order + m, order - m)] + 1
    ends = np.cumsum(deg)
    wrap = nxt == ends[head]
    nxt[wrap] = (ends - deg)[head[wrap]]
    last = int(np.flatnonzero(nxt == ends[root] - deg[root])[0])
    nxt[last] = last
    # Steps to the end of the tour: after k rounds each pointer spans 2^k
    # steps or reaches the end, and no place is more than 2m - 1 from it.
    rank = np.ones(2 * m, dtype=np.int64)
    rank[last] = 0
    for _ in range((2 * m - 1).bit_length()):
        rank += rank[nxt]
        nxt = nxt[nxt]
    forward, backward = rank[at[:m]], rank[at[m:]]
    down = forward > backward
    below = np.where(down, v, u)
    parent[below] = np.where(down, u, v)
    count[below] = (np.abs(forward - backward) + 1) // 2
    count[root] = m + 1
    return Rooting(parent, count, below)


def _build_forest(
    n: int,
    u: np.ndarray,
    v: np.ndarray,
    sq: np.ndarray,
    vertices: Optional[np.ndarray],
    parent,
) -> list[Tree]:
    """The trees of the forest with edges (u[i], v[i]), u < v, of squared
    length sq[i] over the sorted int64 point ids ``vertices`` below ``n``
    (every id when None), ordered by their smallest vertex.

    Every tree of the package comes from here. The components are the
    roots (``_roots``) of ``parent``: the labels of ``boruvka``, or a
    rooted tree's parent array with the lower end of every edge left out
    pointing to itself. One sort of the directed edges by (tail, head)
    gives the sorted ``adj`` lists; the edges with tail < head, stably
    sorted by component, are slices of one array per tree in lexicographic
    order, with the given squared lengths. No vertices make one empty tree.
    """
    if vertices is None:
        vertices = np.arange(n, dtype=np.int64)
    # Number the components by their smallest vertex: the first of the
    # sorted vertices with each root.
    _, first, inverse = np.unique(_roots(parent)[vertices], return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.int64)
    rank[np.argsort(first)] = np.arange(len(first))
    vcomp = rank[inverse]
    k = max(len(first), 1)
    comp = np.full(n, -1, dtype=np.int64)
    comp[vertices] = vcomp
    members = vertices[np.argsort(vcomp, kind="stable")]
    vbound = np.cumsum(np.bincount(vcomp, minlength=k)).tolist()

    order, tail, head, deg = _directed(u, v, n)
    ends = np.cumsum(deg)
    out = tail < head
    u, v, sq = tail[out], head[out], sq[order[out]]
    ecomp = comp[u]
    if k > 1:
        by_comp = np.argsort(ecomp, kind="stable")
        u, v, sq = u[by_comp], v[by_comp], sq[by_comp]
    ebound = np.cumsum(np.bincount(ecomp, minlength=k)).tolist()

    heads = head.tolist()
    lists = [heads[a:b] for a, b in zip((ends - deg)[members].tolist(), ends[members].tolist())]
    int_deg = np.bincount(tail[deg[head] >= 2], minlength=n).tolist()
    deg = deg.tolist()
    members = members.tolist()

    trees = []
    vlo = elo = 0
    for vhi, ehi in zip(vbound, ebound):
        verts = members[vlo:vhi]
        adj = dict(zip(verts, lists[vlo:vhi]))
        trees.append(Tree(tuple(verts), adj, u[elo:ehi], v[elo:ehi], sq[elo:ehi], deg, int_deg))
        vlo, elo = vhi, ehi
    return trees


def subtrees(pts: PointSet, tree: Tree, keep: Optional[np.ndarray] = None, drop=()) -> list[Tree]:
    """The trees ``tree`` falls into when the vertices in ``drop`` leave
    and, when given, only the edges where ``keep`` (a boolean array in the
    order of the tree's edge arrays) holds remain.

    Each part hangs from the top of the rooted tree (``Tree.rooted``) that
    it keeps: the lower end of every edge that goes is a root of its own,
    and no kept vertex reaches a dropped one, whose edges all go.
    """
    u, v, sq = tree.u, tree.v, tree.sq
    vertices = np.array(tree.vertices, dtype=np.int64)
    if drop:
        drop = np.array(drop, dtype=np.int64)
        vertices = vertices[~np.isin(vertices, drop)]
        stay = ~(np.isin(u, drop) | np.isin(v, drop))
        keep = stay if keep is None else keep & stay
    vertices.sort()
    parent, _, below = tree.rooted()
    if keep is not None:
        u, v, sq = u[keep], v[keep], sq[keep]
        cut = below[~keep]
        parent = parent.copy()
        parent[cut] = cut
    return _build_forest(pts.n, u, v, sq, vertices, parent)


def boruvka(n: int, edges) -> tuple[np.ndarray, np.ndarray]:
    """(taken, label): the sorted indices of the minimum spanning forest of
    the arrays ``edges`` = (sq, u, v) of ``sorted_candidate_edges`` over
    ids below n, by Borůvka's rounds (Borůvka 1926) in numpy, and for every
    id a vertex of its tree, a parent array for ``_build_forest``.

    An edge's weight is its index, so the order is total: the forest is the
    unique minimum one, which is exactly the edges a Kruskal pass takes
    from the same arrays in index order. Only ids and indices are read,
    never the lengths, so the rounds run in int64 at every span. Each round
    every component picks its lowest-index edge to another component
    (``np.minimum.at`` on both ends) and hooks to the component at the
    other end. Under a total order the only cycles of the hooks are mutual
    picks of one edge; such an edge is taken once, and the smaller
    component stays a root. ``_roots`` compresses the hooks, the components
    are renumbered densely, and the edges inside one component drop out.
    Every component with an edge out merges, so there are at most log2(n)
    rounds.
    """
    _, u, v = edges
    idx = np.arange(len(u), dtype=np.int64)
    rep = np.arange(n, dtype=np.int64)  # a vertex of each component
    label = rep  # each vertex's component
    taken = [idx[:0]]
    while len(idx):
        k, m = len(rep), len(idx)
        # Positions in this round's arrays rise with the edge index.
        pos = np.arange(m, dtype=np.int64)
        pick = np.full(k, m, dtype=np.int64)
        np.minimum.at(pick, u, pos)
        np.minimum.at(pick, v, pos)
        comp = np.flatnonzero(pick < m)
        at = pick[comp]
        other = np.where(u[at] == comp, v[at], u[at])
        mutual = pick[other] == at
        taken.append(idx[at[~mutual | (comp < other)]])
        hook = ~mutual | (comp > other)
        parent = np.arange(k, dtype=np.int64)
        parent[comp[hook]] = other[hook]
        root = _roots(parent)
        keep = root == np.arange(k)
        to = (np.cumsum(keep) - 1)[root]
        rep, label = rep[keep], to[label]
        u, v = to[u], to[v]
        between = u != v
        u, v, idx = u[between], v[between], idx[between]
    return np.sort(np.concatenate(taken)), rep[label]


def emst5(pts: PointSet) -> Tree:
    """Euclidean minimum spanning tree with maximum degree at most five.

    The edges ``boruvka`` takes from the strict-tie Delaunay edges in
    (length, lexicographic) order: the n - 1 edges a Kruskal pass in that
    order takes. Both approximations start from it.

    No vertex of it, or of any MST forest on integer coordinates, has
    degree six. Two MST edges vu, vw meet at an angle of at least pi/3:
    below it the third side uw is shorter than the longer of the two, which
    then is not in the MST. Exactly pi/3 needs 4 dot^2 = |vu|^2 |vw|^2 with
    dot > 0, that is cross^2 = 3 dot^2 by Lagrange's identity, and since
    sqrt(3) is irrational no two integer vectors satisfy it. So every angle
    at a vertex exceeds pi/3, and six of them do not fit in 2 pi. The
    degree-six exchange that real coordinates need (Monma & Suri, DCG 1992)
    never applies.
    """
    n = pts.n
    if n < 1:
        raise TooFewPoints("need at least 1 point")
    if n == 1:
        none = np.zeros(0, dtype=np.int64)
        return _build_forest(n, none, none, none, None, [0])[0]
    sq, u, v = sorted_candidate_edges(pts, delaunay(pts, canonical=False))
    taken, label = boruvka(n, (sq, u, v))
    return _build_forest(n, u[taken], v[taken], sq[taken], None, label)[0]


def forest_leq(tree: Tree, sq_limit: int, pts: PointSet) -> Forest:
    """Forest of the tree edges with squared length at most ``sq_limit``.

    Its trees are labelled off the rooted tree (``Tree.rooted``), with no
    Kruskal pass: the lower end of each edge longer than ``sq_limit`` is
    made a root (``subtrees``). Every tree is even exactly when each such
    edge has an even subtree below it, the rule ``last_odd_edge`` proves
    and reads. At or above the longest edge the forest is a tree of the
    forest builder itself, already in the form ``subtrees`` would rebuild.
    """
    keep = np.asarray(tree.sq <= sq_limit, dtype=bool)
    if keep.all():
        return Forest(trees=[tree])
    return Forest(trees=subtrees(pts, tree, keep=keep))


def last_odd_edge(tree: Tree) -> int:
    """The index into the even tree's edge arrays of its last edge in
    (length, lexicographic) order with an odd subtree below it in the
    rooted tree (``Tree.rooted``): among the odd edges of the greatest
    length, the last, since the arrays are in lexicographic order.

    Cutting a set of edges of an even tree leaves only even parts exactly
    when every cut edge has an even subtree below it: the part hanging from
    a cut edge is its subtree less the subtrees of the cut edges under it,
    and the top part is the whole tree less those of the highest cut edges,
    so even subtrees leave even parts; and the parts inside an odd subtree
    add up to an odd count, so one is odd. So the first all-even prefix in
    that order, where a Kruskal pass stops, ends at this edge. A leaf other
    than the root has an odd subtree, so an even tree has the edge.
    """
    if tree.n % 2 != 0:
        raise OddPointCount(f"tree has an odd number of vertices: {tree.n}")
    _, size, below = tree.rooted()
    odd = np.flatnonzero(size[below] % 2 == 1)
    if len(odd) == 0:
        raise TooFewPoints("no edge length leaves every component even")
    sq = tree.sq[odd]
    return int(odd[np.flatnonzero(sq == sq.max())[-1]])


def even_threshold(tree: Tree) -> int:
    """The smallest squared edge length L of ``tree`` at which every tree of
    ``forest_leq(tree, L)``, which cuts the edges longer than L, has an even
    number of vertices: the length of ``last_odd_edge``."""
    return int(tree.sq[last_odd_edge(tree)])


def disk_graph(pts: PointSet, sq_radius: int) -> DiskGraph:
    """Graph joining point pairs at squared distance <= sq_radius.

    Its edges come from the fixed-radius kernel ``_near_pairs``; one sort
    of the directed edges by (tail, head), the one ``_build_forest`` makes,
    gives every vertex its sorted neighbour list.
    """
    _, u, v = _near_pairs(pts, sq_radius)
    _, _, head, deg = _directed(u, v, pts.n)
    ends = np.cumsum(deg)
    heads = head.tolist()
    adj = [heads[a:b] for a, b in zip((ends - deg).tolist(), ends.tolist())]
    return DiskGraph(adj=adj, sq_radius=sq_radius, u=u, v=v)


def pairs_within(pts: PointSet, sq_radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair u < v at squared distance at most ``sq_radius``, as the
    arrays (sq, u, v) of ``sorted_candidate_edges``: exact squared lengths
    (int64 or Python ints, see ``_near_pairs``) and int64 ends, sorted by
    (sq, u, v)."""
    sq, u, v = _near_pairs(pts, sq_radius)
    by = np.argsort(u * pts.n + v)
    by = by[np.argsort(sq[by], kind="stable")]
    # One column at a time, so that a single old column is alive with it.
    sq = sq[by]
    u = u[by]
    return sq, u, v[by]


# Candidate pairs ``_near_pairs`` measures per step, which bounds its
# temporaries to a few MB.
_JOIN_CHUNK = 1 << 16


def _near_pairs(pts: PointSet, sq_radius: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(sq, u, v): every pair of point ids u < v at squared distance sq at
    most ``sq_radius``, in no particular order.

    The one fixed-radius kernel of the package, under ``pairs_within`` and
    ``disk_graph``: the cell method of Bentley, Stanat and Williams (IPL
    1977) in numpy. Cells have side c = isqrt(sq_radius) + 1, so a pair
    within the radius lies at most one cell apart on each axis. The points
    are sorted by the code cx * side + cy + 1 of their cell (cx, cy) of the
    translated coordinates, and ``searchsorted`` joins each point to two
    runs of the sorted codes: the later points of its own cell and the cell
    above, up to code + 1, and the next column's lower, same and upper
    cells, codes code + side - 1 to code + side + 1; the other three
    neighbours reach it through their own runs. With side = span // c + 3,
    column cx holds the codes cx * side + 1 to cx * side + side - 2, so
    code + 1 and code + side +- 1 stay inside the point's own and the next
    column: every candidate lies in one of the five cells. The candidates
    are taken ``_JOIN_CHUNK`` at a time and filtered by their exact squared
    length before the next chunk, which bounds the temporaries.

    The arithmetic is int64 when every intermediate provably fits: the
    translated coordinates (span below 2^62), ``sq_radius``, every
    candidate's squared length, which is below 2 * min(span, 2c)^2, and the
    codes, with code + side + 1 below side^2. So the test is max(sq_radius,
    2 * min(span, 2c)^2, side^2) < 2^63. Otherwise the same steps run on
    object arrays of Python ints, so ``sq`` is exact at any coordinate size.
    """
    n = pts.n
    if n < 2 or sq_radius < 0:
        none = np.zeros(0, dtype=np.int64)
        return none, none, none
    _, _, span, xy = pts.translated()
    cell = isqrt(sq_radius) + 1
    side = span // cell + 3
    if max(sq_radius, 2 * min(span, 2 * cell) ** 2, side * side) >= 1 << 63:
        xy = xy.astype(object)
    cxy = xy // cell
    code = cxy[:, 0] * side + cxy[:, 1] + 1
    order = np.argsort(code, kind="stable")
    code, xs, ys = code[order], xy[order, 0], xy[order, 1]
    lo = np.concatenate((np.arange(1, n + 1), np.searchsorted(code, code + (side - 1))))
    hi = np.searchsorted(code, np.concatenate((code + 1, code + (side + 1))), side="right")
    ends = np.cumsum(hi - lo)
    cuts = np.searchsorted(ends, np.arange(_JOIN_CHUNK, ends[-1], _JOIN_CHUNK), side="right")
    bounds = [0, *cuts.tolist(), len(lo)]
    parts = [_joined(order, xs, ys, a, lo[a:b], hi[a:b], sq_radius) for a, b in zip(bounds, bounds[1:])]
    return tuple(np.concatenate(col) for col in zip(*parts))


def _joined(order, xs, ys, first: int, lo, hi, sq_radius):
    """(sq, u, v) of the pairs of sorted positions p and q in [lo[k],
    hi[k]), where p is (first + k) mod n, at squared distance at most
    ``sq_radius``; ``xs`` and ``ys`` are the sorted coordinates, and u < v
    the point ids ``order`` gives the positions."""
    count = hi - lo
    p = np.repeat(np.arange(first, first + len(lo)) % len(order), count)
    q = np.arange(len(p)) + np.repeat(lo - (np.cumsum(count) - count), count)
    dx, dy = xs[p] - xs[q], ys[p] - ys[q]
    sq = dx * dx + dy * dy
    near = sq <= sq_radius
    p, q = order[p[near]], order[q[near]]
    return sq[near], np.minimum(p, q), np.maximum(p, q)


def second_closest_batch(pts: PointSet, queries: list[tuple[int, int]]) -> list[int]:
    """For each (p, v), the nearest point to p among all points except p and
    v; distance ties break toward the smaller id.

    The answer is a neighbour of p or of v in the strict Delaunay
    triangulation that ``delaunay(pts, canonical=False)`` keeps on the
    PointSet (made here when no call has kept one yet). A nearest neighbour
    q of p in P less v has no other point in the closed disk with diameter
    pq (a point r there has |pr| < |pq|), so pq is an edge of every Delaunay
    triangulation of P less v; one of them is this triangulation with v's
    star retriangulated on v's neighbours (de Berg et al., *Computational
    Geometry*, ch. 9). So pq is an edge of this triangulation, or p and q
    are both neighbours of v. Exact integer squared distances pick the
    answer among those neighbours.
    """
    if not queries:
        return []
    n = pts.n
    if n < 3:
        raise TooFewPoints("second_closest needs at least 3 points")
    tri = pts._delaunay
    if tri is None:
        tri = delaunay(pts, canonical=False)
    # The neighbour lists of the queried points only.
    lo, hi = np.divmod(tri.codes, n)
    asked = np.zeros(n, dtype=bool)
    asked[np.array(queries, dtype=np.int64).ravel()] = True
    near = asked[lo] | asked[hi]
    nbrs: dict[int, list[int]] = {}
    for a, b in zip(lo[near].tolist(), hi[near].tolist()):
        nbrs.setdefault(a, []).append(b)
        nbrs.setdefault(b, []).append(a)
    return [
        min((pts.sq_dist(p, j), j) for j in chain(nbrs.get(p, ()), nbrs.get(v, ())) if j != p and j != v)[1]
        for p, v in queries
    ]


def second_closest(pts: PointSet, p: int, v: int) -> int:
    """The nearest point to p among all points except p and v.

    Distance ties break toward the smaller id.
    """
    pts.check_id(p)
    pts.check_id(v)
    return second_closest_batch(pts, [(p, v)])[0]


def skeleton(tree: Tree) -> SkeletonTree:
    """The induced subtree on vertices of degree >= 2.

    Empty for trees with at most two vertices; an isolated vertex also
    yields an empty skeleton. A tree less its leaves is connected, so the
    builder gets one component: every parent is 0.
    """
    internal = np.array([v for v in tree.vertices if len(tree.adj[v]) >= 2], dtype=np.int64)
    keep = np.isin(tree.u, internal) & np.isin(tree.v, internal)
    n = tree.vertices[-1] + 1 if tree.vertices else 0
    (sk,) = _build_forest(n, tree.u[keep], tree.v[keep], tree.sq[keep], internal, np.zeros(n, dtype=np.int64))
    return SkeletonTree(tree=sk, back_map=sk.vertices)
