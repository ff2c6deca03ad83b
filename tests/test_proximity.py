"""Tests for proximity structures, with brute-force oracles."""
from __future__ import annotations

import functools
import hashlib
import math
import random
from itertools import chain, combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from planematch.bottleneck_two import even_forest
from planematch.errors import OddPointCount, TooFewPoints
from planematch.geometry import PointSet, cross_ids, orient, orientation, point_in_triangle_closed
from planematch.io import gen_points
from planematch.proximity import (
    _build_forest,
    _ccw,
    _canonicalize,
    _certified_delaunay,
    _component_labels,
    _FlipMesh,
    _incircle_det_int,
    _incircle_signs,
    _internal_edges,
    _strictly_ccw,
    _swept_mesh,
    _translated_floats,
    _triangulation_of,
    delaunay,
    disk_graph,
    emst5,
    even_threshold,
    forest_leq,
    pairs_within,
    second_closest,
    second_closest_batch,
    skeleton,
    sorted_candidate_edges,
    subtrees,
)
from planematch.udg import plane_matching
from test_kruskal import built_tree, kruskal

S = 10**6


def rows(edges) -> list[tuple[int, int, int]]:
    """The arrays (sq, u, v) of sorted_candidate_edges as rows of Python
    ints; the ends must be int64 and the lengths int64 or Python ints."""
    sq, u, v = edges
    assert u.dtype == v.dtype == np.int64 and sq.dtype in (np.int64, object)
    assert all(type(x) is int for x in sq.tolist())
    return list(zip(sq.tolist(), u.tolist(), v.tolist()))


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def brute_mst_edges(pts: PointSet) -> list[tuple[int, int]]:
    """Kruskal on the complete graph in (length, id) order; returns the
    edges it takes, sorted."""
    n = pts.n
    edges = sorted(
        (pts.sq_dist(i, j), i, j) for i, j in combinations(range(n), 2)
    )
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out = []
    for _, i, j in edges:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            out.append((i, j))
    return sorted(out)


def brute_mst_sq_lengths(pts: PointSet) -> list[int]:
    """Kruskal on the complete graph; returns the sorted squared lengths."""
    return sorted(pts.sq_dist(i, j) for i, j in brute_mst_edges(pts))


def random_pointset(rng, n, span=100):
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, span * S), rng.randrange(0, span * S)))
    return PointSet(sorted(coords))


def test_delaunay_triangle():
    pts = ps((0, 0), (4, 0), (1, 3))
    t = delaunay(pts)
    assert len(t.edges) == 3


def test_delaunay_near_collinear_triangle():
    # Qhull finds the lifted simplex flat, and its joggled retry needs four
    # points; three points off one line are their own triangulation.
    pts = PointSet([(0, 0), (0, 1), (1, -13423798)])
    assert delaunay(pts).edges == delaunay(pts, canonical=False).edges == ((0, 1), (0, 2), (1, 2))
    assert sorted(emst5(pts).edges()) == brute_mst_edges(pts)


def test_delaunay_square_tie_break():
    pts = ps((0, 0), (1, 0), (0, 1), (1, 1))
    # Both diagonals are exactly co-circular: verify with the incircle test.
    assert _incircle_det_int(pts, 0, 1, 3, 2) == 0
    t = delaunay(pts)
    edges = set(t.edges)
    assert (0, 1) in edges and (0, 2) in edges and (1, 3) in edges and (2, 3) in edges
    # The canonical diagonal joins the lexicographically least corner (0,0).
    assert (0, 3) in edges
    assert (1, 2) not in edges
    assert len(edges) == 5


def test_delaunay_collinear_chain():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    t = delaunay(pts)
    assert set(t.edges) == {(0, 1), (1, 2), (2, 3)}


def test_delaunay_too_few():
    with pytest.raises(TooFewPoints):
        delaunay(ps((0, 0)))


def test_delaunay_contains_mst_random():
    rng = random.Random(42)
    for _ in range(30):
        pts = random_pointset(rng, rng.randrange(4, 40))
        t = delaunay(pts)
        tri_edges = set(t.edges)
        mst_sq = brute_mst_sq_lengths(pts)
        # Kruskal restricted to triangulation edges must reach the same
        # total: compare sorted squared length multisets.
        tree = emst5(pts)
        assert sorted(tree.edge_sq.values()) == mst_sq
        assert set(tree.edges()) <= tri_edges


def test_delaunay_planar_random():
    rng = random.Random(9)
    pts = random_pointset(rng, 24, span=20)
    t = delaunay(pts)
    for (a, b), (c, d) in combinations(t.edges, 2):
        assert not cross_ids(pts, a, b, c, d), ((a, b), (c, d))


def exact_reference_edges(pts: PointSet) -> tuple[tuple[int, int], ...]:
    """Delaunay edges by the unfiltered route: Qhull on the untranslated
    coordinates, then the exact flip pass over every edge."""
    from scipy.spatial import Delaunay

    xy = np.column_stack((np.asarray(pts.xs, dtype=float), np.asarray(pts.ys, dtype=float)))
    mesh = _FlipMesh(pts, Delaunay(xy).simplices.tolist())
    _canonicalize(pts, mesh)
    return tuple(mesh.live_edges())


def pythagorean_circle(r: int) -> list[tuple[int, int]]:
    return sorted(
        (x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y == r * r
    )


def degenerate_corpus():
    yield "grid5", [(x * S, y * S) for x in range(5) for y in range(5)]
    yield "grid12x9", [(x * S, y * S) for x in range(12) for y in range(9)]
    yield "grid-unscaled", [(x, y) for x in range(7) for y in range(6)]
    for r in (5, 25, 65):
        circle = pythagorean_circle(r)
        yield f"circle{r}", circle
        yield f"circle{r}+centre", circle + [(0, 0)]
        yield f"circle{r}-scaled", [(x * S, y * S) for x, y in circle]
    yield "collinear+1", [(k * S, 0) for k in range(40)] + [(13 * S, 2 * S)]
    rng = random.Random(21)
    for n in (40, 400):
        big = 10**21
        yield f"1e21-{n}", sorted({(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(n)})
    for mode in ("uniform", "clustered"):
        pts = gen_points(1500, 4, mode)
        yield mode, list(zip(pts.xs, pts.ys))


@pytest.mark.parametrize("name,coords", list(degenerate_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_delaunay_equals_exact_reference(name, coords):
    pts = PointSet(coords)
    assert delaunay(pts).edges == exact_reference_edges(pts)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=4, max_size=30))
def test_delaunay_equals_exact_reference_small_grid(coords):
    coords = sorted(coords)
    x0, y0 = coords[0]
    x1, y1 = coords[1]
    assume(any(orient(x0, y0, x1, y1, x, y) != 0 for x, y in coords[2:]))
    pts = PointSet(coords)
    assert delaunay(pts).edges == exact_reference_edges(pts)


def test_delaunay_joggled_fallback_uses_exact_path(monkeypatch):
    # When Qhull needs QJ, every edge of its triangulation goes to the exact
    # flip pass, with no certificate. Joggling the grid leaves flat slivers
    # along its hull, which no flip removes: the triangulation is then built
    # exactly, and it equals the unjoggled one.
    import scipy.spatial
    from scipy.spatial import QhullError

    real = scipy.spatial.Delaunay
    returned = []

    def strict_only_with_qj(points, qhull_options=None):
        if qhull_options != "QJ":
            raise QhullError("forced")
        tri = real(points, qhull_options=qhull_options)
        returned.append(tri.simplices)
        return tri

    grid = PointSet((x * S, y * S) for x in range(8) for y in range(7))
    uniform = gen_points(300, 5, "uniform")
    want = {id(pts): exact_reference_edges(pts) for pts in (grid, uniform)}
    monkeypatch.setattr(scipy.spatial, "Delaunay", strict_only_with_qj)
    for pts, swept in ((grid, True), (uniform, False)):
        got = delaunay(pts).edges
        assert got == want[id(pts)]
        assert _strictly_ccw(pts, returned[-1]) != swept
        if not swept:
            mesh = _FlipMesh(pts, returned[-1].tolist())
            _canonicalize(pts, mesh)
            assert got == tuple(mesh.live_edges())
    assert len(want[id(grid)]) == 3 * 56 - 3 - 26


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=30),
    st.sampled_from([(1, 1), (1, -1), (-1, 1), (2, -3)]),
)
def test_swept_mesh_is_a_triangulation_that_flips_to_delaunay(cells, axes):
    # Lexicographic order starts with collinear runs going up, down or
    # sideways, and the first point off the line lies on either side.
    coords = sorted((x * axes[0] * S, (y * axes[1] + x) * S) for x, y in cells)
    x0, y0 = coords[0]
    x1, y1 = coords[1]
    assume(any(orient(x0, y0, x1, y1, x, y) != 0 for x, y in coords[2:]))
    pts = PointSet(coords)
    mesh = _swept_mesh(pts)
    live = [t for t in mesh.tris if t is not None]
    assert all(orientation(pts, *t) > 0 for t in live)
    assert set(chain.from_iterable(live)) == set(range(pts.n))
    hull = [e for e, ts in mesh.edge_map.items() if len(ts) == 1]
    assert len(live) == 2 * pts.n - 2 - len(hull)
    _canonicalize(pts, mesh)
    assert tuple(mesh.live_edges()) == exact_reference_edges(pts)


def drops_point(real, k):
    """A Qhull stand-in that triangulates every point but k, as Qhull does
    when it merges a point away."""
    from types import SimpleNamespace

    def delaunay_without_k(points, qhull_options=None):
        tri = real(np.delete(points, k, axis=0), qhull_options=qhull_options)
        return SimpleNamespace(simplices=tri.simplices + (tri.simplices >= k), neighbors=tri.neighbors)

    return delaunay_without_k


@pytest.mark.parametrize("canonical", [True, False])
def test_delaunay_dropped_point_is_inserted(monkeypatch, canonical):
    # A dropped point, on the hull or inside it, sends the set to the exact
    # sweep, whose flip pass restores the triangulation of the undropped
    # call.
    import scipy.spatial

    real = scipy.spatial.Delaunay
    sets = [gen_points(50, 3, "uniform")]
    if canonical:
        # A dropped grid point lies on a hull edge of the rest, or, at a
        # corner, in line with two hull edges that it must not be fanned to.
        sets.append(PointSet((x * S, y * S) for x in range(6) for y in range(5)))
    for pts in sets:
        want = delaunay(pts, canonical=canonical).edges
        for k in range(pts.n):
            monkeypatch.setattr(scipy.spatial, "Delaunay", drops_point(real, k))
            assert delaunay(pts, canonical=canonical).edges == want
        monkeypatch.setattr(scipy.spatial, "Delaunay", real)


def near_collinear_with_far_points():
    """Sets on which Qhull drops collinear points: ten or twenty points on a
    line and far points just off it."""
    far = 3 * 10**12
    yield "line10+2", [(x * S, 0) for x in range(10)] + [(far, 1), (far, 5 * S)]
    yield "line20+2", [(x * S, 0) for x in range(20)] + [(far, 1), (far, 5 * S)]
    yield "line20+2-left", [(x * S, 0) for x in range(20)] + [(-far, 1), (-far, -5 * S)]
    yield "line10+3", [(x * S, 0) for x in range(10)] + [(far, 1), (far, 5 * S), (-far, -1)]


def brute_delaunay_edges(pts: PointSet) -> tuple[tuple[int, int], ...]:
    """Edges of every nondegenerate triangle with no point strictly inside
    its circumcircle: the Delaunay edges when no four points are
    co-circular (with a tie it holds both diagonals, so a comparison fails)."""
    edges = set()
    for tri in combinations(range(pts.n), 3):
        a, b, c = _ccw(pts, *tri)
        if orient(pts.xs[a], pts.ys[a], pts.xs[b], pts.ys[b], pts.xs[c], pts.ys[c]) == 0:
            continue
        if all(_incircle_det_int(pts, a, b, c, d) <= 0 for d in range(pts.n)):
            edges.update(tuple(sorted(e)) for e in ((a, b), (b, c), (a, c)))
    return tuple(sorted(edges))


@pytest.mark.parametrize("name,coords", list(near_collinear_with_far_points()), ids=lambda v: v if isinstance(v, str) else "")
def test_delaunay_inserts_points_qhull_drops(name, coords):
    from scipy.spatial import Delaunay

    pts = PointSet(coords)
    xy = np.array(coords, dtype=float)
    assert len(np.unique(Delaunay(xy - xy.min(axis=0)).simplices)) < pts.n  # the defect repaired here
    want = brute_delaunay_edges(pts)
    assert delaunay(pts).edges == want
    assert delaunay(pts, canonical=False).edges == want


# Qhull drops 15 of these 22 points, and one of its 7 triangles is not
# strictly counterclockwise in exact coordinates; the span is below 2^53, so
# no float-rounding check looks at the triangles.
DROPPED_WITH_A_WRONG_TRIANGLE = (
    [(-7825336, -2844661), (1821629, -2101274)]
    + [(2766981 + i, -4798053 + i) for i in range(17)]
    + [(999999999999991, 5195187), (999999999999992, 8916885), (1000000000000001, 5110262)]
)


def crossing_pairs(pts: PointSet, edges) -> list:
    return [(e, f) for e, f in combinations(edges, 2) if cross_ids(pts, *e, *f)]


@pytest.mark.parametrize("canonical", [True, False])
def test_points_qhull_drops_beside_a_wrong_triangle_are_swept(canonical):
    from scipy.spatial import Delaunay

    pts = PointSet(DROPPED_WITH_A_WRONG_TRIANGLE)
    xy = np.array(DROPPED_WITH_A_WRONG_TRIANGLE, dtype=float)
    simplices = Delaunay(xy - xy.min(axis=0)).simplices
    assert len(np.unique(simplices)) < pts.n and not _strictly_ccw(pts, simplices)
    edges = delaunay(pts, canonical=canonical).edges
    assert crossing_pairs(pts, edges) == []
    assert edges == brute_delaunay_edges(pts)
    tree = emst5(pts)
    assert sorted(zip(tree.u.tolist(), tree.v.tolist())) == brute_mst_edges(pts)


def drop_prone(rng) -> PointSet:
    """3 to 39 points on a line of step (1, 1), one to three points about
    10^15 away and up to five random points near the line, in scaled units:
    Qhull drops points from almost every such set."""
    x0, y0 = rng.randrange(-10**7, 10**7), rng.randrange(-10**7, 10**7)
    coords = {(x0 + i, y0 + i) for i in range(rng.randrange(3, 40))}
    for _ in range(rng.randrange(1, 4)):
        coords.add((10**15 + rng.randrange(-10, 10), rng.randrange(-10**7, 10**7)))
    for _ in range(rng.randrange(0, 6)):
        coords.add((rng.randrange(-10**7, 10**7), rng.randrange(-10**7, 10**7)))
    return PointSet(sorted(coords))


def test_drop_prone_sets_triangulate_without_crossings():
    rng = random.Random(1)
    for _ in range(40):
        pts = drop_prone(rng)
        for canonical in (True, False):
            assert crossing_pairs(pts, delaunay(pts, canonical=canonical).edges) == []
        tree = emst5(pts)
        assert sorted(zip(tree.u.tolist(), tree.v.tolist())) == brute_mst_edges(pts)


def collinear_with_two_far_points(k: int) -> list[tuple[int, int]]:
    """k points on y = 0 and two points 3 * 10^6 units away, one of them
    10^-6 off the line: Qhull drops most of the line."""
    far = 3 * 10**12
    return [(x * S, 0) for x in range(k)] + [(far, 1), (far, 5 * S)]


@pytest.mark.parametrize("k", [500, 1000, 2000])
def test_dropped_collinear_points_take_linear_work(monkeypatch, k):
    # Counter pins, no clock: the sweep makes one orientation test per point
    # and flips each of the k - 1 fan edges to the far point once. A scan
    # per dropped point would grow the tests with k^2.
    from planematch import proximity

    counts = {"flip": 0, "orientation": 0}

    def counted(name, real):
        def call(*args):
            counts[name] += 1
            return real(*args)

        return call

    monkeypatch.setattr(proximity._FlipMesh, "flip", counted("flip", proximity._FlipMesh.flip))
    monkeypatch.setattr(proximity, "orientation", counted("orientation", proximity.orientation))
    delaunay(PointSet(collinear_with_two_far_points(k)), canonical=False)
    assert counts == {"flip": k - 1, "orientation": k + 3}


def strict_corpus():
    yield from degenerate_corpus()
    yield from near_collinear_with_far_points()
    yield "lattice-offset", [(x * S + 2**53 + 7, y * S + 2**54 - 3) for x in range(30) for y in range(25)]
    yield "lattice-unscaled-offset", [(x + 2**60, y - 2**55) for x in range(40) for y in range(30)]
    yield "circle5x12-scaled", [(x * S, y * S) for x, y in pythagorean_circle(5)]


@pytest.mark.parametrize("name,coords", list(strict_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_strict_ties_give_the_same_kruskal_sequence(name, coords):
    # Every MST edge has an empty closed diametral disk, so it lies in every
    # Delaunay triangulation and Kruskal takes the same edges in the same
    # order from either tie rule.
    pts = PointSet(coords)
    runs = [
        list(kruskal(rows(sorted_candidate_edges(pts, delaunay(pts, canonical=c).edges)), pts.n, pts.n))
        for c in (True, False)
    ]
    assert runs[0] == runs[1]
    assert len(runs[0]) == pts.n - 1


@pytest.mark.parametrize(
    "coords",
    [
        [(x * S, y * S) for x in range(30) for y in range(20)],
        [(x, y) for x in range(25) for y in range(25)],
        [(x * S + 2**53 + 1, y * S + 2**53) for x in range(24) for y in range(20)],
    ],
    ids=["scaled", "unscaled", "offset-past-2^53"],
)
def test_strict_lattice_never_builds_the_flip_mesh(monkeypatch, coords):
    # Every flip the canonical rule makes on a lattice is a co-circular tie,
    # so the strict rule, which the EMST and the even forest use, returns
    # Qhull's triangulation as is.
    from planematch import proximity

    pts = PointSet(coords)

    def no_mesh(*args):
        raise AssertionError("built the flip mesh")

    monkeypatch.setattr(proximity, "_FlipMesh", no_mesh)
    delaunay(pts, canonical=False)
    emst5(pts)
    if pts.n % 2 == 0:
        even_forest(pts)
    with pytest.raises(AssertionError, match="flip mesh"):
        delaunay(pts)


def test_uniform_points_at_span_1e17_never_build_the_flip_mesh(monkeypatch):
    # Past a span of 2^53 the float filter certifies nothing, so every
    # internal edge gets the exact stage; on uniform points none flips under
    # either tie rule, and Qhull's triangulation is returned without the
    # Python mesh.
    from planematch import proximity

    rng = random.Random(17)
    pts = PointSet(sorted({(rng.randrange(10**17), rng.randrange(10**17)) for _ in range(1000)}))
    assert not _translated_floats(pts)[1]
    want = exact_reference_edges(pts)

    def no_mesh(*args):
        raise AssertionError("built the flip mesh")

    monkeypatch.setattr(proximity, "_FlipMesh", no_mesh)
    assert delaunay(pts).edges == want
    assert delaunay(pts, canonical=False).edges == want
    emst5(pts)
    even_forest(pts)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exact_stage_past_2_53_finds_the_edges_qhull_gets_wrong(seed):
    # A lattice of spacing 2^58 spans past 2^61, so Qhull sees it shifted
    # right by 8 bits. Each point is moved by less than 2^7 (seed 0 moves
    # none): Qhull triangulates the unmoved lattice and picks its diagonals
    # freely, while the exact points decide them, and the unmoved lattice's
    # co-circular squares take the canonical rule's diagonals. With no float
    # filter on this route, the exact stage must find every edge to flip.
    rng = random.Random(seed)
    step, moved = 2**58, 2**7 if seed else 1
    pts = PointSet(
        [(x * step + rng.randrange(moved), y * step + rng.randrange(moved)) for x in range(8) for y in range(8)]
    )
    assert not _translated_floats(pts)[1]
    want = exact_reference_edges(pts)
    assert delaunay(pts).edges == want
    if seed:
        assert delaunay(pts, canonical=False).edges == want


def test_strict_ties_on_the_joggled_path_leave_no_strictly_non_delaunay_edge(monkeypatch):
    import scipy.spatial
    from scipy.spatial import QhullError

    from planematch import proximity

    real = scipy.spatial.Delaunay
    returned = []

    def strict_only_with_qj(points, qhull_options=None):
        if qhull_options != "QJ":
            raise QhullError("forced")
        tri = real(points, qhull_options=qhull_options)
        returned.append(tri)
        return tri

    meshes = []

    class RecordedMesh(_FlipMesh):
        def __init__(self, *args):
            super().__init__(*args)
            meshes.append(self)

    monkeypatch.setattr(scipy.spatial, "Delaunay", strict_only_with_qj)
    monkeypatch.setattr(proximity, "_FlipMesh", RecordedMesh)
    grid = PointSet((x * S, y * S) for x in range(8) for y in range(7))
    circle = PointSet(pythagorean_circle(65) + [(0, 0)])
    uniform = gen_points(300, 5, "uniform")
    built = []
    for pts in (grid, circle, uniform):
        before = len(meshes)
        got = delaunay(pts, canonical=False).edges
        built.append(len(meshes) > before)
        if built[-1]:
            mesh = meshes[-1]
            assert got == tuple(mesh.live_edges())
            internal = [
                (mesh.tris[t1], mesh.opposite(t2, edge))
                for edge, (t1, t2) in ((e, ts) for e, ts in mesh.edge_map.items() if len(ts) == 2)
            ]
        else:
            # No edge flips: Qhull's joggled triangles are returned as they
            # are, and their internal edges are checked exactly here.
            tri = returned[-1]
            assert got == _triangulation_of(tri.simplices, pts.n).edges
            i, _, q = _internal_edges(tri.simplices, tri.neighbors)
            internal = list(zip(tri.simplices[i].tolist(), q.tolist()))
        for t, d in internal:
            assert _incircle_det_int(pts, *_ccw(pts, *t), d) <= 0
    assert built[2] is False


def test_filter_never_certifies_an_edge_that_flips():
    # Quads one scaled unit off co-circular, at coordinates near 2^46: the
    # float determinant there is dominated by rounding.
    rng = random.Random(13)
    triples = [(3, 4, 5), (5, 12, 13), (8, 15, 17), (7, 24, 25), (20, 21, 29)]
    rows = []
    for _ in range(400):
        a, b, r = rng.choice(triples)
        k = rng.randrange(2**40, 2**46) // r
        on_circle = [(a * k, b * k), (-b * k, a * k), (-a * k, -b * k), (b * k, -a * k),
                     (b * k, a * k), (-a * k, b * k)]
        p, q, s, d = rng.sample(on_circle, 4)
        d = (d[0] + rng.choice((-1, 0, 1)), d[1] + rng.choice((-1, 0, 1)))
        rows.append((p, q, s, d))
    # Triangles of orientation determinant 1 at coordinates near 2^51, whose
    # float orientation rounds to zero, against a far apex.
    while len(rows) < 800:
        px, py = rng.randrange(2**48, 2**49), rng.randrange(2**48, 2**49)
        if math.gcd(px, py) != 1:
            continue
        sy = pow(px, -1, py)
        sx = (px * sy - 1) // py  # px * sy - py * sx == 1
        a = (2**51, 2**51)
        b = (a[0] + px, a[1] + py)
        c = (a[0] + sx, a[1] + sy)
        d = (a[0] + rng.randrange(-(2**49), 2**49), a[1] + rng.randrange(-(2**49), 2**49))
        rows.append((a, b, c, d))
    coords = [pt for row in rows for pt in row]
    pts = PointSet.__new__(PointSet)  # the quads share points, so skip deduplication
    pts.xs = [x for x, _ in coords]
    pts.ys = [y for _, y in coords]
    xy = np.array(coords, dtype=float)
    idx = np.arange(len(coords)).reshape(-1, 4)
    certified = _certified_delaunay(xy, idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3])
    outside = 0
    for (a, b, c, d), ok in zip(idx.tolist(), certified.tolist()):
        det = _incircle_det_int(pts, *_ccw(pts, a, b, c), d)
        outside += det < 0
        if ok:
            assert det < 0
    assert outside > 0


def random_convex_triangulation(rng, polygon):
    """A random triangulation of a convex polygon given in boundary order."""
    if len(polygon) < 3:
        return []
    k = rng.randrange(1, len(polygon) - 1)
    return (
        [[polygon[0], polygon[k], polygon[-1]]]
        + random_convex_triangulation(rng, polygon[: k + 1])
        + random_convex_triangulation(rng, polygon[k:])
    )


def test_canonicalize_certificates_keep_the_flip_sequence():
    # Non-Delaunay triangulations of points on a parabola (never four
    # co-circular): certified edges whose triangles a flip replaces must be
    # tested again, so the flips and the result match the uncertified pass.
    rng = random.Random(31)
    for _ in range(60):
        xs = sorted(rng.sample(range(60), rng.randrange(5, 25)))
        pts = PointSet((x * S, x * x * S) for x in xs)
        triangles = random_convex_triangulation(rng, list(range(pts.n)))
        plain = _FlipMesh(pts, triangles)
        _canonicalize(pts, plain)
        mesh = _FlipMesh(pts, triangles)
        internal = [(e, ts) for e, ts in mesh.edge_map.items() if len(ts) == 2]
        xy = np.column_stack((np.array(pts.xs, dtype=float), np.array(pts.ys, dtype=float)))
        abc = np.array([triangles[t1] for _, (t1, _) in internal]).reshape(-1, 3)
        far = np.array([mesh.opposite(t2, e) for e, (_, t2) in internal], dtype=int)
        ok = _certified_delaunay(xy, abc[:, 0], abc[:, 1], abc[:, 2], far)
        _canonicalize(pts, mesh, {u * pts.n + v for ((u, v), _), keep in zip(internal, ok.tolist()) if keep})
        assert mesh.tris == plain.tris


def test_filter_certifies_clear_cases():
    pts = gen_points(300, 8, "uniform")
    xy = np.column_stack((np.array(pts.xs, dtype=float), np.array(pts.ys, dtype=float)))
    rng = random.Random(2)
    quads = np.array([rng.sample(range(pts.n), 4) for _ in range(500)])
    certified = _certified_delaunay(xy, *quads.T)
    exact = [_incircle_det_int(pts, *_ccw(pts, a, b, c), d) < 0 for a, b, c, d in quads.tolist()]
    assert certified.tolist() == exact


def reduced_span(pts: PointSet) -> int:
    """The span of the translated coordinates over their gcd, which decides
    the arithmetic of ``_incircle_signs``."""
    _, _, span, xy = pts.translated()
    return span // max(math.gcd(*xy.ravel().tolist()), 1)


def wide(pts: PointSet) -> bool:
    """Whether ``_incircle_signs`` takes object arrays for ``pts``."""
    return 12 * reduced_span(pts) ** 4 >= 2**63


def assert_stage_signs_on_undecided_edges(pts: PointSet) -> int:
    """On every internal edge of Qhull's triangulation that the float filter
    cannot decide, the vectorised stage's sign equals the scalar determinant
    after ``_ccw``; returns how many there were."""
    from scipy.spatial import Delaunay

    xy, exact = _translated_floats(pts)
    assert exact
    tri = Delaunay(xy)
    i, _, q = _internal_edges(tri.simplices, tri.neighbors)
    t = tri.simplices[i]
    undecided = ~_certified_delaunay(xy, t[:, 0], t[:, 1], t[:, 2], q)
    a, b, c, d = (col[undecided] for col in (t[:, 0], t[:, 1], t[:, 2], q))
    got = _incircle_signs(pts, a, b, c, d)
    assert got.dtype == np.int8
    want = [
        (det > 0) - (det < 0)
        for det in (_incircle_det_int(pts, *_ccw(pts, *abc), dd) for *abc, dd in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist()))
    ]
    assert got.tolist() == want
    return len(want)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(2, 9),
    st.integers(2, 9),
    st.sampled_from([1, 7, S, 3 * 2**40]),
    st.sampled_from([0, -(2**61), 2**70 + 3]),
    st.sampled_from([None, (31_000, 4), (2**20 + 1, -3)]),
)
def test_incircle_stage_equals_the_scalar_test_on_lattices(w, h, scale, shift, far):
    # A scaled lattice has gcd ``scale`` and reduces to a unit lattice: int64.
    # One far point takes the reduced span past 29,600, where 12 S^4 passes
    # 2^63: object arrays.
    coords = [(shift + x * scale, shift + y * scale) for x in range(w) for y in range(h)]
    if far is not None:
        coords.append((shift + far[0] * scale, shift + far[1] * scale))
    pts = PointSet(coords)
    assume(reduced_span(pts) * scale < 2**53)
    assert wide(pts) == (far is not None)
    assert assert_stage_signs_on_undecided_edges(pts) > 0


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([5, 25, 65]),
    st.booleans(),
    st.sampled_from([1, S, 2**40 + 1]),
    st.dictionaries(st.integers(0, 36), st.sampled_from([(1, 0), (0, -1), (1, 1), (-1, 1)]), max_size=3),
)
def test_incircle_stage_equals_the_scalar_test_on_circles(r, centre, scale, nudges):
    # Scaled Pythagorean points are exactly co-circular and reduce to the
    # unit circle's integers: int64. Spread to a span near 2^52 with one to
    # three points moved by one unit, they are near co-circular with gcd 1:
    # object arrays.
    circle = pythagorean_circle(r) + ([(0, 0)] if centre else [])
    k = 2**51 // r if nudges else scale
    nudge = {j % len(circle): d for j, d in nudges.items()}
    pts = PointSet((x * k + dx, y * k + dy) for j, (x, y) in enumerate(circle) for dx, dy in [nudge.get(j, (0, 0))])
    assert wide(pts) == bool(nudges)
    assert_stage_signs_on_undecided_edges(pts)


def test_incircle_stage_on_any_ordered_or_degenerate_triangle():
    # Clockwise triangles take the ccw sign fix of ``_ccw``; degenerate ones
    # keep their given order, as the scalar test does. Both arithmetic
    # branches, with more rows than one chunk.
    rng = random.Random(17)
    for coords in (
        [(x * 3, y * 3) for x in range(9) for y in range(9)],
        [(x, y) for x in range(9) for y in range(9)] + [(2**49 + 1, 3)],
    ):
        pts = PointSet(coords)
        quads = np.array([rng.sample(range(pts.n), 4) for _ in range(5000)], dtype=np.int64)
        quads[::7, 2] = quads[::7, 1]  # two equal corners: a degenerate triangle
        got = _incircle_signs(pts, *quads.T)
        want = []
        for a, b, c, d in quads.tolist():
            det = _incircle_det_int(pts, *_ccw(pts, a, b, c), d)
            want.append((det > 0) - (det < 0))
        assert got.tolist() == want
        assert {-1, 0, 1} <= set(want)


def codes_digest(tri) -> str:
    return hashlib.sha256(tri.codes.tobytes()).hexdigest()[:16]


def pinned_triangulation_corpus():
    yield from strict_corpus()
    yield "lattice40x30", [(x * S, y * S) for x in range(40) for y in range(30)]
    yield "unit-lattice+far", [(x, y) for x in range(20) for y in range(15)] + [(40_000, 7)]
    yield "scaled-lattice+far", [(x * 7, y * 7) for x in range(20) for y in range(15)] + [(7 * 31_000, 7 * 3)]


# sha256 (first 16 hex digits) of delaunay(pts, canonical=c).codes for the
# canonical and the strict rule, recorded before the exact stage of
# ``_certify_or_flip`` was vectorised.
TRIANGULATION_PINS = {
    "grid5": ("768701ffe87183cd", "ca37c1aa0861481c"),
    "grid12x9": ("52a4eefc43579ccc", "3bfda9a36084cfdd"),
    "grid-unscaled": ("1f75957ad4fe17cd", "2ea0698e8e31c84f"),
    "circle5": ("c6760c98b44e7c61", "0b1edfd77776fee4"),
    "circle5+centre": ("7879720edb00cde5", "7879720edb00cde5"),
    "circle5-scaled": ("c6760c98b44e7c61", "5727a0d457e9079c"),
    "circle25": ("a6be4edc9f3783e1", "45b0c79779084858"),
    "circle25+centre": ("3dd66c4b0c008258", "3dd66c4b0c008258"),
    "circle25-scaled": ("a6be4edc9f3783e1", "45b0c79779084858"),
    "circle65": ("735eb85714d174cf", "0ee88fb18e1ea547"),
    "circle65+centre": ("e50d928a3d38fbb0", "e50d928a3d38fbb0"),
    "circle65-scaled": ("735eb85714d174cf", "6a3c93d9882965b3"),
    "collinear+1": ("afcad9c8ea88b23b", "afcad9c8ea88b23b"),
    "1e21-40": ("80b79c3af4e312e5", "80b79c3af4e312e5"),
    "1e21-400": ("581c550e82e71bf1", "581c550e82e71bf1"),
    "uniform": ("918d79234d245458", "918d79234d245458"),
    "clustered": ("1dd61eeb4e6ba311", "1dd61eeb4e6ba311"),
    "line10+2": ("b8b0e467f4adf507", "b8b0e467f4adf507"),
    "line20+2": ("8ebf43276d7494d3", "8ebf43276d7494d3"),
    "line20+2-left": ("f41d06c01005a587", "f41d06c01005a587"),
    "line10+3": ("bc477086d86e9e75", "bc477086d86e9e75"),
    "lattice-offset": ("1cd0aca6a661a175", "a253c7b138057e8e"),
    "lattice-unscaled-offset": ("8499d13e3f6d07d8", "c1ad302eba44b373"),
    "circle5x12-scaled": ("c6760c98b44e7c61", "5727a0d457e9079c"),
    "lattice40x30": ("8499d13e3f6d07d8", "2aca693159c0affb"),
    "unit-lattice+far": ("4c0f48b96131338e", "18adf51a178f3e93"),
    "scaled-lattice+far": ("4c0f48b96131338e", "11dcd053f1a5fc9b"),
}


@pytest.mark.parametrize("name,coords", list(pinned_triangulation_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_triangulation_codes_are_pinned_for_both_tie_rules(name, coords):
    pts = PointSet(coords)
    got = tuple(codes_digest(delaunay(pts, canonical=c)) for c in (True, False))
    assert got == TRIANGULATION_PINS[name]


def test_strict_lattice_makes_no_scalar_exact_test(monkeypatch):
    # Every square of a 40 x 30 lattice is a co-circular tie the float filter
    # cannot decide; the strict rule decides all of them in the vectorised
    # stage, so a return to a per-edge loop fails here on any machine.
    from planematch import proximity

    pts = PointSet((x * S, y * S) for x in range(40) for y in range(30))

    def no_scalar(*args):
        raise AssertionError("scalar _should_flip")

    monkeypatch.setattr(proximity, "_should_flip", no_scalar)
    assert codes_digest(delaunay(pts, canonical=False)) == TRIANGULATION_PINS["lattice40x30"][1]
    with pytest.raises(AssertionError, match="scalar"):
        delaunay(pts)


def shifted(coords, dx, dy):
    return PointSet((x + dx, y + dy) for x, y in coords)


def test_translation_past_2_53_keeps_delaunay_and_udg_matching():
    lattice = [(x * S, y * S) for x in range(24) for y in range(20)]
    rng = random.Random(6)
    walk, x, y = set(), 0, 0
    while len(walk) < 300:
        walk.add((x, y))
        x += rng.randrange(-S // 2, S // 2 + 1)
        y += rng.randrange(-S // 2, S // 2 + 1)
    walk = sorted(walk)
    cases = [
        (lattice, rng.randrange(2**53, 2**54), rng.randrange(2**53, 2**54)),
        (walk, 10**15 + rng.randrange(S), 10**15 - rng.randrange(S)),
    ]
    for coords, dx, dy in cases:
        base, moved = PointSet(coords), shifted(coords, dx, dy)
        assert delaunay(moved).edges == delaunay(base).edges
        assert plane_matching(moved).pairs == plane_matching(base).pairs


def random_edges(rng, n, m):
    return [tuple(rng.sample(range(n), 2)) for _ in range(m)]


def _sorted_edges_exact(pts: PointSet, edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The reference for sorted_candidate_edges: a Python sort of the rows
    (sq_dist, u, v), u < v, of the pairs ``edges``, as its three arrays."""
    table = sorted((pts.sq_dist(a, b), min(a, b), max(a, b)) for a, b in edges)
    sq = np.empty(len(table), dtype=object)
    sq[:] = [row[0] for row in table]
    return sq, np.array([row[1] for row in table], dtype=np.int64), np.array([row[2] for row in table], dtype=np.int64)


def test_sorted_candidate_edges_int64_equals_python_ints():
    rng = random.Random(17)
    for span in (10, S, 2**31 - 1):
        for _ in range(5):
            n = rng.randrange(3, 60)
            pts = PointSet(sorted({(rng.randint(0, span), rng.randint(0, span)) for _ in range(n)}))
            edges = random_edges(rng, pts.n, 3 * pts.n)
            want = rows(_sorted_edges_exact(pts, edges))
            assert want == sorted((pts.sq_dist(*e), *sorted(e)) for e in edges)
            got = sorted_candidate_edges(pts, edges)
            assert got[0].dtype == np.int64
            assert rows(got) == want


def test_sorted_candidate_edges_int64_boundary():
    # 2 * span^2 < 2^63 exactly when span < 2^31; the longest possible edge
    # must come out exact on both sides of that boundary.
    for span in (2**31 - 1, 2**31):
        pts = PointSet([(0, 0), (span, span), (span, 0), (1, 5)])
        edges = [(0, 1), (1, 2), (3, 0), (2, 3), (3, 1)]
        out = sorted_candidate_edges(pts, edges)
        assert out[0].dtype == (np.int64 if span < 2**31 else object)
        got = rows(out)
        assert got == rows(_sorted_edges_exact(pts, edges))
        assert got[-1] == (2 * span * span, 0, 1)


def test_sorted_candidate_edges_above_2_63():
    rng = random.Random(23)
    for base, span in ((2**64 + 3, S), (-(2**70), 2**40), (2**63, 2**65)):
        pts = PointSet(sorted({(base + rng.randint(0, span), base - rng.randint(0, span)) for _ in range(40)}))
        edges = random_edges(rng, pts.n, 100)
        assert rows(sorted_candidate_edges(pts, edges)) == rows(_sorted_edges_exact(pts, edges))



@pytest.mark.parametrize("canonical", [True, False])
def test_sorted_candidate_edges_reads_triangulation_codes(canonical):
    # The codes a Triangulation keeps give the order its pairs give, with
    # and without int64, and reading them builds no pair tuple.
    sets = [gen_points(300, 5, "uniform"), gen_points(300, 6, "clustered"),
            PointSet((x * S, y * S) for x in range(12) for y in range(9)),
            PointSet((x * S + 2**62, y * 2**32 - 2**70) for x in range(7) for y in range(6)),
            PointSet((k * S, 0) for k in range(9)), PointSet([(0, 0), (S, 3)])]
    for pts in sets:
        tri = delaunay(pts, canonical=canonical)
        got = rows(sorted_candidate_edges(pts, tri))
        assert tri._edges is None
        assert got == rows(sorted_candidate_edges(pts, list(tri.edges))) == rows(_sorted_edges_exact(pts, tri.edges))
        assert type(tri.edges) is tuple and tri.edges is tri.edges
        assert list(tri.edges) == sorted(tri.edges) and all(type(e) is tuple and e[0] < e[1] for e in tri.edges)
        assert np.array_equal(tri.codes, [u * pts.n + v for u, v in tri.edges])

def test_emst5_chain():
    pts = ps((0, 0), (1, 0), (2, 0))
    tree = emst5(pts)
    assert set(tree.edges()) == {(0, 1), (1, 2)}


def test_emst5_square_weight():
    pts = ps((0, 0), (1, 0), (0, 1), (1, 1))
    tree = emst5(pts)
    # Brute force over all 16 labelled spanning trees gives weight 3.
    assert sorted(tree.edge_sq.values()) == [S * S] * 3


def test_emst5_hexagon_center_degree_reduction():
    # Regular hexagon of radius 1 plus the center: weight 6, max degree <= 5.
    # Center placed first so that it leads Kruskal's ties; rounded to
    # integers no two spokes meet at exactly pi/3, so no exchange is needed.
    coords = [(0.0, 0.0)]
    for k in range(6):
        coords.append((math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)))
    pts = ps(*coords)
    tree = emst5(pts)
    assert max(len(tree.adj[v]) for v in tree.vertices) <= 5
    got = sorted(tree.edge_sq.values())
    want = brute_mst_sq_lengths(pts)
    assert got == want
    assert len(got) == 6


def angle_lt_third_pi(pts: PointSet, a: int, v: int, b: int) -> bool:
    """Exact test: the unsigned angle a-v-b is strictly below pi/3."""
    xs, ys = pts.xs, pts.ys
    ux, uy = xs[a] - xs[v], ys[a] - ys[v]
    wx, wy = xs[b] - xs[v], ys[b] - ys[v]
    dot = ux * wx + uy * wy
    if dot <= 0:
        return False
    return 4 * dot * dot > (ux * ux + uy * uy) * (wx * wx + wy * wy)


def assert_degree_five_and_wide_angles(pts: PointSet, tree) -> None:
    """Every vertex of ``tree`` has degree at most five, and no two of its
    tree edges meet below pi/3."""
    assert max(len(tree.adj[v]) for v in tree.vertices) <= 5
    for v in tree.vertices:
        for a, b in combinations(tree.adj[v], 2):
            assert not angle_lt_third_pi(pts, a, v, b)


def test_emst5_weight_and_degree_random():
    rng = random.Random(2024)
    for _ in range(100):
        n = rng.randrange(2, 64)
        pts = random_pointset(rng, n)
        tree = emst5(pts)
        assert sorted(tree.edge_sq.values()) == brute_mst_sq_lengths(pts)
        assert_degree_five_and_wide_angles(pts, tree)


@st.composite
def near_equilateral_sets(draw) -> list[tuple[int, int]]:
    """Integer points as close to exact pi/3 angles as rounding allows: a
    regular hexagon with its centre first (so that the centre leads
    Kruskal's ties) at random radius, rotation and offset, or a patch of
    the triangular lattice at random scale and offset."""
    ox, oy = draw(st.integers(-(2**40), 2**40)), draw(st.integers(-(2**40), 2**40))
    if draw(st.booleans()):
        r = draw(st.integers(2, 10**12))
        turn = draw(st.floats(0, math.pi / 3))
        ring = [
            (ox + round(r * math.cos(turn + k * math.pi / 3)), oy + round(r * math.sin(turn + k * math.pi / 3)))
            for k in range(6)
        ]
        coords = [(ox, oy)] + ring
    else:
        s = draw(st.integers(1, 10**9))
        w, h = draw(st.integers(2, 7)), draw(st.integers(2, 7))
        dy = round(math.sqrt(3) * s)
        coords = [(ox + 2 * x * s + (y % 2) * s, oy + y * dy) for y in range(h) for x in range(w)]
    return list(dict.fromkeys(coords))


@settings(max_examples=200, deadline=None)
@given(near_equilateral_sets())
def test_emst5_and_even_forest_stay_below_degree_six_near_equilateral(coords):
    # No two integer vectors meet at exactly pi/3, so no MST vertex reaches
    # degree six even where rounding leaves every angle next to pi/3.
    pts = PointSet(coords)
    tree = emst5(pts)
    assert sorted(tree.edge_sq.values()) == brute_mst_sq_lengths(pts)
    assert_degree_five_and_wide_angles(pts, tree)
    even = PointSet(coords[: len(coords) - len(coords) % 2])
    for t in even_forest(even).forest.trees:
        assert_degree_five_and_wide_angles(even, t)


def test_empty_triangle_property_random():
    # Adjacent MST edge pairs span triangles free of other input points.
    rng = random.Random(77)
    for _ in range(100):
        n = rng.randrange(3, 64)
        pts = random_pointset(rng, n)
        tree = emst5(pts)
        for v in tree.vertices:
            nbrs = tree.adj[v]
            for a, b in combinations(nbrs, 2):
                for p in range(pts.n):
                    if p in (a, b, v):
                        continue
                    assert not point_in_triangle_closed(pts, v, a, b, p)


def test_forest_leq_thresholds():
    pts = ps((0, 0), (1, 0), (4, 0), (5, 0))
    tree = emst5(pts)
    f1 = forest_leq(tree, S * S, pts)
    assert sorted(t.n for t in f1.trees) == [2, 2]
    f9 = forest_leq(tree, 9 * S * S, pts)
    assert [t.n for t in f9.trees] == [4]
    fhalf = forest_leq(tree, (S // 2) ** 2, pts)
    assert sorted(t.n for t in fhalf.trees) == [1, 1, 1, 1]


def assert_even_threshold_matches_forests(pts: PointSet) -> None:
    tree = emst5(pts)
    even_sq = even_threshold(tree)
    for sq in sorted(set(tree.edge_sq.values())):
        has_odd = any(t.n % 2 for t in forest_leq(tree, sq, pts).trees)
        assert (sq < even_sq) == has_odd


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=2, max_size=40))
def test_even_threshold_matches_forest_parity_small(coords):
    coords = sorted(coords)
    assert_even_threshold_matches_forests(PointSet(coords[: len(coords) // 2 * 2]))


@pytest.mark.parametrize(
    "name,coords",
    [(name, coords) for name, coords in degenerate_corpus() if len(coords) <= 200],
    ids=lambda v: v if isinstance(v, str) else "",
)
def test_even_threshold_matches_forest_parity_degenerate(name, coords):
    assert_even_threshold_matches_forests(PointSet(coords[: len(coords) // 2 * 2]))


def reference_even_threshold(tree) -> int:
    """The even threshold by a Kruskal pass over the sorted (sq, u, v)
    tuples, from odd singletons: the length of the edge that leaves no odd
    component."""
    edges = sorted((sq, u, v) for (u, v), sq in tree.edge_sq.items())
    return next(sq for sq, _, _, odd in kruskal(edges, max(tree.vertices) + 1, tree.n) if odd == 0)


def reference_subtrees(pts, tree, keep=None, drop=()):
    """``subtrees`` with the components labelled by a Kruskal pass over the
    edges that stay."""
    u, v, sq = tree.u, tree.v, tree.sq
    stay = ~(np.isin(u, drop) | np.isin(v, drop)) if drop else np.ones(len(u), dtype=bool)
    if keep is not None:
        stay &= keep
    u, v, sq = u[stay], v[stay], sq[stay]
    parent = list(range(pts.n))
    for _ in kruskal(zip(sq.tolist(), u.tolist(), v.tolist()), pts.n, pts.n, parent):
        pass
    vertices = np.array(sorted(set(tree.vertices) - set(drop)), dtype=np.int64)
    return _build_forest(pts.n, u, v, sq, vertices, parent)


def reference_rooting(tree):
    """Parent and subtree size of every vertex of ``tree`` hung from its
    smallest vertex, by a walk over ``adj``."""
    root = tree.vertices[0]
    parent, walk = {root: root}, [root]
    for x in walk:
        for y in tree.adj[x]:
            if y not in parent:
                parent[y] = x
                walk.append(y)
    size = dict.fromkeys(walk, 1)
    for x in reversed(walk[1:]):
        size[parent[x]] += size[x]
    return parent, size


def assert_rooting_equals_reference_passes(pts: PointSet, drop_at: int) -> None:
    mst = emst5(pts)
    for tree in (mst, skeleton(mst).tree):
        if not tree.vertices:
            continue
        rooting = tree.rooted()
        parent, size = reference_rooting(tree)
        assert {x: int(rooting.parent[x]) for x in tree.vertices} == parent
        assert {x: int(rooting.size[x]) for x in tree.vertices} == size
        if tree.n % 2 == 0:
            assert even_threshold(tree) == reference_even_threshold(tree)
        for limit in sorted(set(tree.edge_sq.values())) + [-1]:
            keep = np.asarray(tree.sq <= limit, dtype=bool)
            assert forest_leq(tree, limit, pts).trees == reference_subtrees(pts, tree, keep)
        x = tree.vertices[drop_at % tree.n]
        for drop in ((x,), (x, tree.adj[x][0]) if tree.adj[x] else (x,)):
            assert subtrees(pts, tree, drop=drop) == reference_subtrees(pts, tree, drop=drop)


circle_points = functools.cache(pythagorean_circle)


def cocircular(r: int, keep: list[bool], centre: bool) -> list[tuple[int, int]]:
    """The lattice points of the circle of radius r that ``keep`` selects
    (cyclically), with the centre when asked."""
    circle = circle_points(r)
    return [p for i, p in enumerate(circle) if keep[i % len(keep)]] + [(0, 0)] * centre


def path_like(gaps: list[int], wobble: list[int]) -> list[tuple[int, int]]:
    """Points along the x-axis at the given gaps, each moved up or down a
    little: the MST is a path or nearly one, with repeated lengths."""
    coords, x = [], 0
    for i, gap in enumerate(gaps):
        x += gap
        coords.append((x, wobble[i % len(wobble)]))
    return coords


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=2, max_size=48).map(sorted),
        st.builds(
            cocircular,
            st.sampled_from([5, 25, 65, 325]),
            st.lists(st.booleans(), min_size=1, max_size=12),
            st.booleans(),
        ),
        st.builds(
            path_like,
            st.lists(st.integers(4, 9), min_size=2, max_size=60),
            st.lists(st.integers(-1, 1), min_size=1, max_size=5),
        ),
    ),
    st.integers(0, 10**6),
)
def test_rooting_equals_kruskal_passes_on_ties_and_paths(coords, drop_at):
    # The rooted tree, and the even threshold and forests read off it, equal
    # the Kruskal passes they replace: an even prefix over the sorted tuples,
    # and a union-find labelling of the kept edges.
    assume(len(coords) >= 2)
    assert_rooting_equals_reference_passes(PointSet(coords), drop_at)


@pytest.mark.parametrize("seed", [1, 2])
def test_rooting_equals_kruskal_passes_on_a_deep_arc(seed):
    # A path-like MST of 240 points: the Euler tour is as long and the
    # parent chains as deep as they get.
    rng = random.Random(seed)
    x, coords = 0, []
    for _ in range(240):
        x += rng.randrange(S // 2, 2 * S)
        coords.append((x, x * x // (240 * S)))
    assert_rooting_equals_reference_passes(PointSet(coords), seed)


def test_even_threshold_examples():
    # Pairs at distance 1, joined by an edge of length 3: the pairs are even.
    assert even_threshold(emst5(ps((0, 0), (1, 0), (4, 0), (5, 0)))) == S * S
    # Only the middle pair is at distance 1; the outer points join at 2.
    assert even_threshold(emst5(ps((0, 0), (2, 0), (3, 0), (5, 0)))) == 4 * S * S
    with pytest.raises(OddPointCount):
        even_threshold(emst5(ps((0, 0), (1, 0), (3, 0))))


def test_disk_graph_examples():
    pts = ps((0, 0), (1, 0), (3, 0))
    g1 = disk_graph(pts, S * S)
    assert g1.edges() == [(0, 1)]
    g3 = disk_graph(pts, 9 * S * S)
    assert g3.edges() == [(0, 1), (0, 2), (1, 2)]
    gh = disk_graph(pts, (S // 2) ** 2)
    assert gh.edges() == []


def test_disk_graph_matches_brute_force_random():
    rng = random.Random(5)
    for _ in range(20):
        pts = random_pointset(rng, 40, span=10)
        r = rng.randrange(1, 5 * S)
        g = disk_graph(pts, r * r)
        want = sorted(
            (i, j)
            for i, j in combinations(range(pts.n), 2)
            if pts.sq_dist(i, j) <= r * r
        )
        assert g.edges() == want


def near_rows(pts: PointSet, sq_radius: int) -> list[tuple[int, int, int]]:
    """(sq, u, v) of every pair u < v at squared distance at most
    ``sq_radius``, sorted: the exact O(n^2) scan."""
    pairs = ((pts.sq_dist(u, v), u, v) for u, v in combinations(range(pts.n), 2))
    return sorted(row for row in pairs if row[0] <= sq_radius)


def assert_near_pairs(pts: PointSet, sq_radius: int) -> None:
    """pairs_within and disk_graph against the exact scan."""
    want = near_rows(pts, sq_radius)
    got = pairs_within(pts, sq_radius)
    assert rows(got) == want
    adj = [[] for _ in range(pts.n)]
    for _, u, v in want:
        adj[u].append(v)
        adj[v].append(u)
    g = disk_graph(pts, sq_radius)
    assert g.adj == [sorted(a) for a in adj]
    assert g.sq_radius == sq_radius
    assert g.u.dtype == g.v.dtype == np.int64
    assert sorted(zip(g.u.tolist(), g.v.tolist())) == sorted((u, v) for _, u, v in want)


def collinear_row(xs, step) -> set:
    return {(x * step[0], x * step[1]) for x in xs}


def unit_grid(w, h) -> set:
    return {(x, y) for x in range(w) for y in range(h)}


NEAR_SHAPES = st.one_of(
    st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), max_size=24),
    st.builds(
        collinear_row, st.sets(st.integers(-15, 15), max_size=16), st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)])
    ),
    st.builds(unit_grid, st.integers(1, 6), st.integers(1, 6)),
)


@settings(max_examples=300, deadline=None)
@given(
    NEAR_SHAPES,
    # 2^52 + 1 takes the span past 2^53 and 2^61 + 3 past 2^62.
    st.sampled_from([1, 7, S, 2**24 + 1, 2**52 + 1, 2**61 + 3]),
    st.sampled_from([0, -(2**70), 2**63]),
    # A lone far point stretches the grid far past the radius.
    st.sampled_from([None, 2**31 + 7, 2**55 + 3, 2**70 + 5]),
    st.data(),
)
def test_pairs_within_and_disk_graph_equal_the_exact_scan(coords, scale, shift, far, data):
    pts = [(shift + x * scale, shift + y * scale) for x, y in sorted(coords)]
    if far is not None:
        pts.append((shift - far, shift + far))
    pts = PointSet(pts)
    lengths = sorted({pts.sq_dist(u, v) for u, v in combinations(range(pts.n), 2)})
    kind = data.draw(st.sampled_from(["pair", "below", "above", "zero", "negative", "past 2^63"]))
    if kind in ("pair", "below", "above") and lengths:
        # The bound is inclusive: a pair at exactly the radius is in.
        sq_radius = data.draw(st.sampled_from(lengths)) + {"pair": 0, "below": -1, "above": 1}[kind]
    elif kind == "negative":
        sq_radius = -data.draw(st.integers(1, 2**80))
    elif kind == "past 2^63":
        sq_radius = 2**63 + data.draw(st.integers(0, 2**80))
    else:
        sq_radius = 0
    assert_near_pairs(pts, sq_radius)


@pytest.mark.parametrize("sq_radius", [-(2**64), -1, 0, 1, S * S, 2**63 - 1, 2**63, 2**200])
@pytest.mark.parametrize("coords", [[], [(5, -3)], [(0, 0), (S, 0)], [(-(2**90), 0), (2**90, 1)]], ids=len)
def test_pairs_within_at_most_two_points(coords, sq_radius):
    assert_near_pairs(PointSet(coords), sq_radius)


@pytest.mark.parametrize("mode", ["uniform", "clustered"])
def test_pairs_within_equals_the_exact_scan_on_generated_points(mode):
    pts = gen_points(200, 3, mode)
    lengths = sorted(pts.sq_dist(0, v) for v in range(1, pts.n))
    for sq_radius in lengths[:: len(lengths) // 5]:
        assert_near_pairs(pts, sq_radius)


# The five cells _near_pairs joins a point to, as the cell offset of q from
# p, with p's place in its cell and q - p for a pair at squared distance
# k^2 + 1, where the cells have side k + 1: p on a corner of its cell and q
# on the edge of its own, on a corner too when k = 1.
NEAR_JOINS = {
    "own cell": ((0, 0), lambda k: ((0, 0), (k, 1))),
    "cell above": ((0, 1), lambda k: ((0, k), (k, 1))),
    "next column, lower cell": ((1, -1), lambda k: ((k, 0), (1, -k))),
    "next column, same cell": ((1, 0), lambda k: ((k, 0), (1, k))),
    "next column, upper cell": ((1, 1), lambda k: ((k, k), (1, k))),
}


@pytest.mark.parametrize("row", ["bottom", "top"])
@pytest.mark.parametrize("k", [1, 5, S])
@pytest.mark.parametrize("join", sorted(NEAR_JOINS))
@pytest.mark.parametrize("shift", [0, -(2**40) + 7])
def test_near_pairs_join_each_cell_of_the_half_neighbourhood(join, k, row, shift):
    # A pair at exactly the radius is found, and the same pair one unit
    # farther apart is not, in the bottom row (cy = 0) and the top row of
    # the grid, where code +- 1 and code + side +- 1 border the codes of
    # another column. A point at the origin fixes the translation.
    offset, place = NEAR_JOINS[join]
    sq_radius = k * k + 1
    cell = math.isqrt(sq_radius) + 1
    (px, py), (dx, dy) = place(k)
    # Column 1, in rows 0 and 1 or 4 and 5, the pair's upper row the top.
    px, py = px + cell, py + (0 if row == "bottom" else 4) * cell + (cell if offset[1] < 0 else 0)
    cp, cq = (px // cell, py // cell), ((px + dx) // cell, (py + dy) // cell)
    assert (cq[0] - cp[0], cq[1] - cp[1]) == offset
    rows_of_pair = {cp[1], cq[1]}
    for far in (0, 1):
        pts = PointSet([(shift, shift), (shift + px, shift + py), (shift + px + dx + far, shift + py + dy)])
        if row == "bottom":
            assert min(rows_of_pair) == 0
        else:
            assert max(rows_of_pair) == pts.translated()[2] // cell
        assert ((sq_radius, 1, 2) in rows(pairs_within(pts, sq_radius))) == (far == 0)
        assert_near_pairs(pts, sq_radius)


@pytest.mark.parametrize(
    "coords, sq_radius, dtype",
    [
        # sq_radius reaches 2^63.
        ([(0, 0), (1, 0), (0, 3)], 2**63 - 1, np.int64),
        ([(0, 0), (1, 0), (0, 3)], 2**63, object),
        # 2 * span^2 reaches 2^63; c = 2^31 + 1 is past the span.
        ([(0, 0), (2**31 - 1, 0), (0, 2**31 - 1)], 2**62, np.int64),
        ([(0, 0), (2**31, 0), (0, 2**31)], 2**62, object),
        # 2 * (2c)^2 reaches 2^63 at c = 2^30; the span 2^40 is past 2c.
        ([(0, 0), (2**30 - 2, 0), (2**30 - 1, 0), (2**40, 2**40)], (2**30 - 2) ** 2, np.int64),
        ([(0, 0), (2**30 - 1, 0), (2**30, 0), (2**40, 2**40)], (2**30 - 1) ** 2, object),
        # side^2 reaches 2^63: c = 2, side = span // 2 + 3 = 3037000499 and
        # 3037000500, the integers around 2^31.5.
        ([(0, 0), (1, 0), (6074000991, 6074000992), (6074000992, 6074000992)], 1, np.int64),
        ([(0, 0), (1, 0), (6074000993, 6074000994), (6074000994, 6074000994)], 1, object),
    ],
)
def test_near_pairs_take_python_ints_from_the_int64_bound(coords, sq_radius, dtype):
    pts = PointSet(coords)
    assert pairs_within(pts, sq_radius)[0].dtype == dtype
    assert_near_pairs(pts, sq_radius)


def dfs_labels(adj) -> list[int]:
    """The smallest vertex of every vertex's component, by depth-first
    search from each unlabelled vertex in increasing order."""
    label = [-1] * len(adj)
    for s in range(len(adj)):
        if label[s] == -1:
            label[s] = s
            stack = [s]
            while stack:
                for w in adj[stack.pop()]:
                    if label[w] == -1:
                        label[w] = s
                        stack.append(w)
    return label


def test_crossing_disk_edges_share_component():
    # Any two crossing disk-graph edges have all four endpoints in one
    # connected component.
    rng = random.Random(31)
    for _ in range(100):
        pts = random_pointset(rng, rng.randrange(6, 30), span=6)
        r = rng.randrange(S, 3 * S)
        g = disk_graph(pts, r * r)
        comp = dfs_labels(g.adj)
        edges = g.edges()
        for (a, b), (u, v) in combinations(edges, 2):
            if cross_ids(pts, a, b, u, v):
                assert comp[a] == comp[b] == comp[u] == comp[v]


def assert_labels_equal_dfs(n, edges, monkeypatch) -> None:
    """``_component_labels`` equals the DFS, with at most 2 log2(n) + 1
    hooking rounds (one ``_roots`` call each): every component merges
    within two rounds."""
    from planematch import proximity

    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    rounds = []
    real = proximity._roots
    monkeypatch.setattr(proximity, "_roots", lambda parent: rounds.append(1) or real(parent))
    ends = np.array(edges, dtype=np.int64).reshape(-1, 2)
    got = _component_labels(n, ends[:, 0], ends[:, 1])
    monkeypatch.setattr(proximity, "_roots", real)
    assert got.dtype == np.int64
    assert got.tolist() == dfs_labels(adj)
    assert len(rounds) <= 2 * max(n, 1).bit_length() + 1


def test_component_labels_equal_dfs_on_random_disk_graphs(monkeypatch):
    # Radii from well below to above the connectivity threshold, so many
    # graphs are disconnected; the ends come as _near_pairs finds them.
    rng = random.Random(41)
    for _ in range(60):
        pts = random_pointset(rng, rng.randrange(1, 80), span=rng.choice((4, 10, 30)))
        g = disk_graph(pts, rng.randrange(0, 3 * S) ** 2)
        edges = list(zip(g.u.tolist(), g.v.tolist()))
        assert sorted(edges) == g.edges()
        assert_labels_equal_dfs(pts.n, edges, monkeypatch)


@pytest.mark.parametrize("seed", range(4))
def test_component_labels_equal_dfs_on_paths_stars_and_chains(seed, monkeypatch):
    rng = random.Random(seed)
    n = 500
    ids = list(range(n))
    rng.shuffle(ids)
    path = [(ids[k], ids[k + 1]) for k in range(n - 1)]
    assert_labels_equal_dfs(n, path, monkeypatch)
    assert_labels_equal_dfs(n, path[: n // 2] + path[n // 2 + 1 :], monkeypatch)
    # Stars of 9 leaves whose centres form a chain, ids shuffled.
    star_chain = [(ids[c], ids[c + k]) for c in range(0, n - 9, 10) for k in range(1, 10)]
    star_chain += [(ids[c], ids[c + 10]) for c in range(0, n - 19, 10)]
    assert_labels_equal_dfs(n, star_chain, monkeypatch)
    assert_labels_equal_dfs(n, [], monkeypatch)
    assert_labels_equal_dfs(0, [], monkeypatch)


def test_mst_equals_udg_mst_when_connected():
    # With a connected unit disk graph, the forest of unit-length MST edges
    # is the whole MST.
    rng = random.Random(8)
    trials = 0
    while trials < 40:
        n = rng.randrange(2, 30)
        coords = set()
        # Random walk keeps consecutive points within distance 0.9.
        x, y = 0.0, 0.0
        while len(coords) < n:
            coords.add((round(x * S), round(y * S)))
            ang = rng.random() * 2 * math.pi
            step = rng.random() * 0.9
            x += step * math.cos(ang)
            y += step * math.sin(ang)
        pts = PointSet(sorted(coords))
        if any(dfs_labels(disk_graph(pts, S * S).adj)):
            continue
        trials += 1
        tree = emst5(pts)
        f = forest_leq(tree, S * S, pts)
        assert len(f.trees) == 1
        assert set(f.trees[0].edges()) == set(tree.edges())


def test_second_closest_examples():
    pts = ps((0, 0), (1, 0), (3, 0))
    assert second_closest(pts, 0, 1) == 2
    assert second_closest(pts, 0, 2) == 1
    pts2 = ps((0, 0), (1, 0), (-1, 0))
    assert second_closest(pts2, 0, 1) == 2


def test_second_closest_brute_force_random():
    rng = random.Random(19)
    for _ in range(40):
        pts = random_pointset(rng, rng.randrange(3, 50), span=4)
        for _ in range(10):
            p = rng.randrange(pts.n)
            v = rng.randrange(pts.n)
            if p == v:
                continue
            got = second_closest(pts, p, v)
            want = min(
                ((pts.sq_dist(p, j), j) for j in range(pts.n) if j not in (p, v)),
            )[1]
            assert got == want


def brute_second_closest(pts: PointSet, p: int, v: int) -> int:
    return min((pts.sq_dist(p, j), j) for j in range(pts.n) if j not in (p, v))[1]


def wide_set() -> list[tuple[int, int]]:
    """400 points in two 2000-unit clusters 2^60 and 2^61 apart: shifted to
    53 bits for Qhull, each cluster collapses onto a few points."""
    rng = random.Random(23)
    coords = set()
    while len(coords) < 400:
        coords.add((rng.randrange(2000), rng.randrange(2000)))
    coords = sorted(coords)
    return coords[:200] + [(x + 2**60, y + 2**61) for x, y in coords[200:]]


def test_second_closest_far_from_origin():
    # Doubles near 10^18 are 128 apart, so an untranslated float search
    # misranks neighbours of a span-2000 set there; past a 2^53 span the
    # translated doubles are not exact either.
    rng = random.Random(23)
    coords = set()
    while len(coords) < 400:
        coords.add((rng.randrange(2000), rng.randrange(2000)))
    coords = sorted(coords)
    wide = coords[:200] + [(x + 2**60, y + 2**61) for x, y in coords[200:]]
    assert wide == wide_set()
    cases = [
        shifted(coords, 10**18 + rng.randrange(10**9), 10**18 - rng.randrange(10**9)),
        shifted(coords, -(10**18), 3 * 10**18),
        PointSet(wide),
    ]
    for pts in cases:
        queries = [(rng.randrange(pts.n), rng.randrange(pts.n)) for _ in range(300)]
        want = [brute_second_closest(pts, p, v) for p, v in queries]
        assert second_closest_batch(pts, queries) == want
        assert [second_closest(pts, p, v) for p, v in queries] == want


def test_second_closest_batch_breaks_circle_ties_by_id():
    # From the centre every circle point ties, and so do many pairs on the
    # circle; the same holds scaled and shifted past 2^53 and 2^62.
    rng = random.Random(5)
    for r in (25, 65):
        circle = [(0, 0)] + pythagorean_circle(r)
        for scale, dx, dy in ((1, 0, 0), (S, 0, 0), (2**40, 2**61, -(2**60)), (10**20, -(10**40), 3)):
            pts = PointSet((x * scale + dx, y * scale + dy) for x, y in circle)
            queries = [(0, v) for v in range(pts.n)]
            queries += [(rng.randrange(pts.n), rng.randrange(pts.n)) for _ in range(50)]
            want = [brute_second_closest(pts, p, v) for p, v in queries]
            assert second_closest_batch(pts, queries) == want
    assert second_closest_batch(pts, []) == []


@settings(max_examples=80, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=3, max_size=40),
    st.sampled_from([1, 7, S, 10**13, 2**55, 10**25]),
    st.integers(-(2**70), 2**70),
    st.data(),
)
def test_second_closest_batch_equals_brute_force_at_every_span(cells, scale, shift, data):
    # Grid cells tie in distance everywhere, so the id rule decides.
    pts = PointSet(sorted((x * scale + shift, y * scale - shift) for x, y in cells))
    ids = st.integers(0, pts.n - 1)
    queries = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=20))
    want = [brute_second_closest(pts, p, v) for p, v in queries]
    assert second_closest_batch(pts, queries) == want


def test_wide_set_is_triangulated_exactly():
    # Shifted to 53 bits, each cluster collapses onto a few points and
    # Qhull's joggled triangles are not all counterclockwise: without the
    # exact rebuild the triangulation had 1,090 edges, missed most
    # nearest-neighbour edges, and its MST was not minimal.
    pts = PointSet(wide_set())
    tri = delaunay(pts, canonical=False)
    assert len(tri.codes) == 1180
    assert pts._delaunay is tri
    tree = emst5(pts)
    assert list(zip(tree.u.tolist(), tree.v.tolist())) == brute_mst_edges(pts)
    nearest = {(min(p, q), max(p, q)) for p in range(pts.n) for q in [brute_second_closest(pts, p, p)]}
    assert nearest <= set(tri.edges)


def far_clusters(seed: int) -> list[tuple[int, int]]:
    """Two to four clusters of 8 to 30 points in a 2000-unit box, at
    offsets up to 2^62 apart: past a 2^53 span the shift to 53 bits merges
    the points of a cluster."""
    rng = random.Random(seed)
    coords: set[tuple[int, int]] = set()
    for _ in range(rng.randint(2, 4)):
        ox, oy = rng.randint(-(2**62), 2**62), rng.randint(-(2**62), 2**62)
        coords |= {(ox + rng.randrange(2000), oy + rng.randrange(2000)) for _ in range(rng.randint(8, 30))}
    return sorted(coords)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.data())
def test_emst5_and_second_closest_on_far_apart_clusters(seed, data):
    pts = PointSet(far_clusters(seed))
    tree = emst5(pts)
    assert list(zip(tree.u.tolist(), tree.v.tolist())) == brute_mst_edges(pts)
    ids = st.integers(0, pts.n - 1)
    queries = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=10))
    assert second_closest_batch(pts, queries) == [brute_second_closest(pts, p, v) for p, v in queries]


def test_second_closest_too_few():
    with pytest.raises(TooFewPoints):
        second_closest(ps((0, 0), (1, 0)), 0, 1)


def test_skeleton_path_and_star():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    tree = emst5(pts)
    sk = skeleton(tree)
    assert set(sk.back_map) == {1, 2}
    assert sk.tree.edges() == [(1, 2)]

    star = ps((0, 0), (1, 0), (0, 1), (-1, 0), (0, -1), (0.7, 0.8))
    st_tree = emst5(star)
    # Not necessarily a star; build one explicitly instead.
    sk2 = skeleton(built_tree(star, [(0, i) for i in range(1, 6)]))
    assert sk2.back_map == (0,)
    assert sk2.tree.edges() == []


def test_skeleton_single_edge_empty():
    pts = ps((0, 0), (1, 0))
    tree = emst5(pts)
    sk = skeleton(tree)
    assert sk.back_map == ()
