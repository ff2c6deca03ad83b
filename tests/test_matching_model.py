"""Tests for the Matching type and validator."""
from __future__ import annotations

import random

import pytest

from planematch.errors import FormatError, UnknownPointId
from planematch.geometry import PointSet, cross_ids
from planematch.matching import Matching, validate

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
