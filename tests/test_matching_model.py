"""Tests for the Matching type and validator."""
from __future__ import annotations

import random

import numpy as np
import pytest

from planematch.errors import FormatError, UnknownPointId
from planematch.geometry import PointSet, cross_ids
from planematch import matching
from planematch.matching import _ARRAY_MIN_PAIRS, Matching, _box_pairs, _boxes, _crossing_candidates, validate

S = 10**6


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def test_validate_collinear_pairs():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    m = Matching.of(pts, [(0, 1), (2, 3)])
    rep = validate(pts, m)
    assert rep.is_matching and rep.is_plane
    assert rep.size == 2
    assert rep.bottleneck_sq == S * S
    assert rep.violations == ()


def test_validate_crossing_diagonals():
    pts = ps((0, 0), (1, 0), (0, 1), (1, 1))
    m = Matching.of(pts, [(0, 3), (1, 2)])
    rep = validate(pts, m)
    assert rep.is_matching
    assert not rep.is_plane
    assert any(kind == "crossing" for kind, _, _ in rep.violations)


def test_validate_shared_vertex():
    pts = ps((0, 0), (1, 0), (2, 0))
    m = Matching(pairs=((0, 1), (1, 2)), bottleneck_sq=S * S)
    rep = validate(pts, m)
    assert not rep.is_matching
    assert any(kind == "shared_vertex" for kind, _, _ in rep.violations)


def test_validate_unknown_id():
    pts = ps((0, 0), (1, 0))
    with pytest.raises(UnknownPointId):
        validate(pts, Matching(pairs=((0, 9),), bottleneck_sq=0))


def test_of_rejects_self_pair():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    with pytest.raises(FormatError):
        Matching.of(pts, [(0, 0), (1, 2)])


def test_violations_iff_flags_false():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randrange(2, 12) * 2
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 40), rng.randrange(0, 40)))
        pts = PointSet(sorted(coords))
        ids = list(range(n))
        rng.shuffle(ids)
        pairs = [(ids[2 * i], ids[2 * i + 1]) for i in range(n // 2)]
        m = Matching.of(pts, pairs)
        rep = validate(pts, m)
        assert rep.is_matching
        assert (rep.violations == ()) == (rep.is_matching and rep.is_plane)
        assert rep.bottleneck_sq == max(pts.sq_dist(a, b) for a, b in pairs)


def test_grid_candidate_path_agrees_with_all_pairs():
    # Force the bucketed candidate generator (> 64 edges) and compare with
    # the quadratic reference.
    rng = random.Random(12)
    coords = set()
    while len(coords) < 300:
        coords.add((rng.randrange(0, 4000), rng.randrange(0, 4000)))
    pts = PointSet(sorted(coords))
    ids = list(range(300))
    rng.shuffle(ids)
    pairs = [(ids[2 * i], ids[2 * i + 1]) for i in range(150)]
    m = Matching.of(pts, pairs)
    rep = validate(pts, m)
    from planematch.geometry import cross_ids

    want_crossings = set()
    for i in range(len(pairs)):
        for j in range(i + 1, len(pairs)):
            a, b = m.pairs[i]
            c, d = m.pairs[j]
            if cross_ids(pts, a, b, c, d):
                want_crossings.add((m.pairs[i], m.pairs[j]))
    got = {(e1, e2) for kind, e1, e2 in rep.violations if kind == "crossing"}
    assert got == want_crossings
    assert rep.is_plane == (not want_crossings)


def test_validate_small_matchings_report_crossings_in_row_major_order():
    # Up to 64 edges the candidates are the pairs with overlapping boxes,
    # in row-major order; a small grid makes collinear overlaps and touching
    # endpoints common.
    rng = random.Random(4242)
    for _ in range(120):
        k = rng.randrange(2, 65)
        coords = set()
        while len(coords) < 2 * k:
            coords.add((rng.randrange(0, 16), rng.randrange(0, 16)))
        pts = PointSet(sorted(coords))
        ids = list(range(2 * k))
        rng.shuffle(ids)
        m = Matching.of(pts, [(ids[2 * i], ids[2 * i + 1]) for i in range(k)])
        want = [
            ("crossing", m.pairs[i], m.pairs[j])
            for i in range(k)
            for j in range(i + 1, k)
            if cross_ids(pts, *m.pairs[i], *m.pairs[j])
        ]
        assert list(validate(pts, m).violations) == want


def random_grid_matching(rng, k: int, side: int, scale: int = 1, shift: int = 0):
    """k pairs of distinct points of a side x side grid, in random pairing,
    the grid scaled by ``scale`` and shifted by ``shift``."""
    coords = set()
    while len(coords) < 2 * k:
        coords.add((rng.randrange(0, side), rng.randrange(0, side)))
    pts = PointSet(sorted((shift + x * scale, shift + y * scale) for x, y in coords))
    ids = list(range(2 * k))
    rng.shuffle(ids)
    return pts, Matching.of(pts, [(ids[2 * i], ids[2 * i + 1]) for i in range(k)])


def row_major_crossings(pts, m):
    return [
        ("crossing", m.pairs[i], m.pairs[j])
        for i in range(m.size)
        for j in range(i + 1, m.size)
        if cross_ids(pts, *m.pairs[i], *m.pairs[j])
    ]


def row_major_box_pairs(pts, pairs):
    """The quadratic reference of _crossing_candidates."""
    xs, ys = pts.xs, pts.ys
    boxes = [
        (min(xs[a], xs[b]), min(ys[a], ys[b]), max(xs[a], xs[b]), max(ys[a], ys[b]))
        for a, b in pairs
    ]
    return [
        (i, j)
        for i in range(len(boxes))
        for j in range(i + 1, len(boxes))
        if boxes[i][0] <= boxes[j][2] and boxes[j][0] <= boxes[i][2]
        and boxes[i][1] <= boxes[j][3] and boxes[j][1] <= boxes[i][3]
    ]


# (scale, shift): the boxes of a small span are int64 arrays, even with
# every coordinate past 2^62; past a span of 2^62 ("python") they are object
# arrays of Python ints.
SPANS = {"int64": (1, 0), "int64-shifted": (1, 2**70), "python": (2**60, 0), "python-shifted": (2**60, -(2**65))}


def check_candidates(pts, pairs) -> None:
    """_crossing_candidates against the quadratic reference."""
    assert _crossing_candidates(pts, pairs) == row_major_box_pairs(pts, pairs)


@pytest.mark.parametrize("span", sorted(SPANS))
def test_validate_reports_crossings_in_row_major_order_at_every_size(span):
    # Every size and span takes the one numpy box kernel; _ARRAY_MIN_PAIRS
    # only decides how shared points are looked for. On small grids
    # collinear overlaps and touching endpoints are common.
    scale, shift = SPANS[span]
    rng = random.Random(4343)
    sizes = [65, _ARRAY_MIN_PAIRS - 1, _ARRAY_MIN_PAIRS, 300] + [rng.randrange(65, 301) for _ in range(8)]
    for k in sizes + [0, 1, 2, 3, 17, 64]:
        pts, m = random_grid_matching(rng, k, rng.choice((26, 40)), scale, shift)
        if k >= 17:
            assert (pts.translated()[3].dtype == object) == span.startswith("python")
        assert list(validate(pts, m).violations) == row_major_crossings(pts, m)


@pytest.mark.parametrize("span", sorted(SPANS))
def test_crossing_candidates_are_the_meeting_boxes_in_row_major_order(span):
    scale, shift = SPANS[span]
    rng = random.Random(77)
    for _ in range(40):
        side = rng.choice((8, 20, 60, 1000))
        k = rng.randrange(0, min(400, side * side // 3))
        pts, m = random_grid_matching(rng, k, side, scale, shift)
        check_candidates(pts, m.pairs)


@pytest.mark.parametrize("span", sorted(SPANS))
def test_crossing_candidates_with_boxes_over_many_cells(span):
    # Unit edges set the grid cell; long edges then meet more cells than
    # there are edges, and such boxes are compared with every other box.
    scale, shift = SPANS[span]
    rng = random.Random(78)
    for _ in range(10):
        cells = rng.sample([(a, b) for a in range(20) for b in range(40)], rng.randrange(70, 300))
        coords = [(2 * a, b) for a, b in cells] + [(2 * a + 1, b) for a, b in cells]
        longs = rng.randrange(1, 4)
        coords += [(-1 - i, -1 - 2 * i) for i in range(longs)] + [(41 + 2 * i, 42 + i) for i in range(longs)]
        pts = PointSet((shift + x * scale, shift + y * scale) for x, y in coords)
        k = len(cells)
        pairs = [(i, k + i) for i in range(k)] + [(2 * k + i, 2 * k + longs + i) for i in range(longs)]
        rng.shuffle(pairs)
        check_candidates(pts, pairs)


def random_pairs(rng, scale: int, n: int, m: int):
    """n points of a 50 x 50 grid scaled by ``scale`` and m random pairs
    of them, which may share points."""
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, 50) * scale, rng.randrange(0, 50) * scale))
    pts = PointSet(sorted(coords))
    return pts, tuple(tuple(sorted(rng.sample(range(n), 2))) for _ in range(m))


def test_validate_shared_vertices_and_bottleneck_equal_the_pairwise_scan():
    # With a shared vertex, or below _ARRAY_MIN_PAIRS pairs, the pairs are
    # scanned one by one; otherwise a bincount shows that no point repeats.
    # With _ARRAY_MIN_PAIRS pairs or more the bottleneck is the max of
    # sq_lengths: int64 below 2^31 of span, Python ints in object arrays
    # above (and object coordinates past 2^62).
    rng = random.Random(5)
    for scale in (1, S, 2**40, 2**70):
        for _ in range(30):
            n = rng.choice((rng.randrange(4, 40), 600))
            m = rng.randrange(1, n) if n < 600 else rng.randrange(_ARRAY_MIN_PAIRS, 300)
            pts, pairs = random_pairs(rng, scale, n, m)
            if rng.random() < 0.5:
                # A matching, so the bincount decides, or one with a single
                # point in two pairs.
                ids = rng.sample(range(n), 2 * min(m, n // 2))
                pairs = tuple(tuple(sorted(ids[i : i + 2])) for i in range(0, len(ids), 2))
                if len(ids) >= 4 and rng.random() < 0.5:
                    pairs += ((ids[0], ids[3]) if ids[0] < ids[3] else (ids[3], ids[0]),)
            rep = validate(pts, Matching(pairs=pairs, bottleneck_sq=0))
            seen, shared = {}, []
            for pair in pairs:
                for v in pair:
                    if v in seen:
                        shared.append(("shared_vertex", seen[v], pair))
                    else:
                        seen[v] = pair
            assert [v for v in rep.violations if v[0] == "shared_vertex"] == shared
            assert rep.is_matching == (not shared)
            assert rep.bottleneck_sq == max(pts.sq_dist(a, b) for a, b in pairs)


def test_of_checks_like_the_pairwise_scan():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    m = Matching.of(pts, iter([(3, 2), (1, 0)]))
    assert m.pairs == ((0, 1), (2, 3)) and m.bottleneck_sq == S * S
    assert all(type(v) is int for pair in m.pairs for v in pair)
    with pytest.raises(UnknownPointId):
        Matching.of(pts, [(0, 1), (2, 4)])
    with pytest.raises(UnknownPointId):
        Matching.of(pts, [(0, 1), (-1, 2)])
    with pytest.raises(UnknownPointId):
        Matching.of(pts, [(0, 1), (2, 2**70)])
    with pytest.raises(FormatError):
        Matching.of(pts, [(2, 2), (0, 1)])
    assert Matching.of(pts, []) == Matching(pairs=(), bottleneck_sq=0)


def test_of_array_path_equals_the_pairwise_path(monkeypatch):
    rng = random.Random(6)
    cases = []
    for scale in (1, S, 2**40, 2**70):
        pts = random_pairs(rng, scale, 1200, 0)[0]
        ids = list(range(pts.n))
        for _ in range(5):
            rng.shuffle(ids)
            k = rng.randrange(_ARRAY_MIN_PAIRS, 500)
            cases.append((pts, [(ids[2 * i], ids[2 * i + 1]) for i in range(k)]))
    got = [Matching.of(pts, pairs) for pts, pairs in cases]
    monkeypatch.setattr(matching, "_ARRAY_MIN_PAIRS", 10**9)
    assert got == [Matching.of(pts, pairs) for pts, pairs in cases]
    pts, pairs = cases[0]
    monkeypatch.undo()
    # Bad entries leave the array path and raise as the scan does.
    for bad, error in (((0, pts.n), UnknownPointId), ((-1, 2), UnknownPointId), ((7, 7), FormatError)):
        with pytest.raises(error):
            Matching.of(pts, pairs[:-1] + [bad])
    with pytest.raises(UnknownPointId):
        validate(pts, Matching(pairs=tuple(pairs[:-1]) + ((0, pts.n),), bottleneck_sq=0))
    with pytest.raises(TypeError):
        Matching.of(pts, [(float(a), float(b)) for a, b in pairs])


def test_crossing_candidates_on_a_grid_too_wide_for_one_sort_code():
    # Short edges far apart make a grid of about span / 2 cells a side,
    # whose cell codes overflow int64, so the cells are sorted by (x, y)
    # keys: in int64 arrays below a span of 2^62, in object arrays past it.
    rng = random.Random(79)
    for span in [2**61] * 5 + [2**64] * 3:
        coords = set()
        for _ in range(rng.randrange(130, 300)):
            x, y = rng.randrange(0, span), rng.randrange(0, span)
            coords.update(((x, y), (x + 1, y + 1), (x + 1, y), (x, y + 1)))
        pts = PointSet(sorted(coords))
        ids = list(range(pts.n))
        pairs = [(ids[i], ids[i + 1]) for i in range(0, pts.n - 1, 2)]
        xy = pts.translated()[3]
        assert (xy.dtype == object) == (span > 2**62)
        assert int(xy.max()) // 2 * int(xy.max()) // 2 * len(pairs) >= 2**63
        assert _box_pairs(_boxes(xy, np.array(pairs, dtype=np.int64))) == row_major_box_pairs(pts, pairs)
