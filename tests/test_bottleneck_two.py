"""Tests for the second bottleneck approximation."""
from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from planematch.bottleneck_two import (
    even_forest,
    is_anchor,
    match_tree_detailed,
    match_tree_second,
    second_approx,
)
from planematch.errors import NotSkeletonLeaf, OddPointCount
from planematch.geometry import SCALE, PointSet, convex_empty
from planematch.matching import validate
from planematch.oracle import exact_bottleneck_plane
from planematch.proximity import emst5
from test_kruskal import built_tree

S = SCALE
# (sqrt(2)+sqrt(3))^2 = 5 + 2*sqrt(6), bounded above by this rational.
FACTOR_SQ_NUM = 9_898_979_486
FACTOR_SQ_DEN = 10**9


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def random_even_pointset(rng, n, span=30):
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, span * S), rng.randrange(0, span * S)))
    return PointSet(sorted(coords))


def length_bound_ok(bottleneck_sq: int, opt_sq: int) -> bool:
    return bottleneck_sq * FACTOR_SQ_DEN <= FACTOR_SQ_NUM * opt_sq


def test_even_forest_collinear():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    ef = even_forest(pts)
    assert all(t.n % 2 == 0 for t in ef.forest.trees)
    assert ef.last_sq == S * S


def test_even_forest_square_trace():
    pts = ps((0, 0), (1, 0), (0, 1), (1, 1))
    ef = even_forest(pts)
    assert len(ef.forest.trees) == 1
    assert ef.forest.trees[0].n == 4
    assert ef.last_sq == S * S
    # Kruskal in (length, lex) order adds (0,1), (0,2), then (1,3).
    assert ef.last_edge == (1, 3)


def test_even_forest_two_points():
    pts = ps((0, 0), (2, 0))
    ef = even_forest(pts)
    assert ef.last_sq == 4 * S * S
    assert ef.forest.trees[0].n == 2


def test_even_forest_odd_raises():
    with pytest.raises(OddPointCount):
        even_forest(ps((0, 0), (1, 0), (2, 0)))


def test_even_forest_last_edge_at_most_optimum():
    rng = random.Random(808)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=12)
        ef = even_forest(pts)
        opt = exact_bottleneck_plane(pts)
        assert ef.last_sq <= opt.bottleneck_sq
        assert all(t.n % 2 == 0 for t in ef.forest.trees)


def test_is_anchor_boundary_pi():
    pts = ps((0, 0), (0, 1), (1, 0), (-1, 0))
    tree = built_tree(pts, [(0, 1), (0, 2), (0, 3), (1, 4)] if False else [(0, 1), (0, 2), (0, 3)])
    # v=0 with internal neighbour 1 requires 1 to be internal: extend.
    pts = ps((0, 0), (0, 1), (1, 0), (-1, 0), (0, 2))
    tree = built_tree(pts, [(0, 1), (0, 2), (0, 3), (1, 4)])
    assert is_anchor(pts, tree, 0) is True


def test_is_anchor_quarter_turn_false():
    pts = ps((0, 0), (0, 1), (1, 0), (0, -1), (0, 2))
    tree = built_tree(pts, [(0, 1), (0, 2), (0, 3), (1, 4)])
    # Clockwise from (1,0) to (0,-1) is pi/2 < pi.
    assert is_anchor(pts, tree, 0) is False


def test_is_anchor_one_leaf_false():
    pts = ps((0, 0), (0, 1), (1, 0), (0, 2))
    tree = built_tree(pts, [(0, 1), (0, 2), (1, 3)])
    assert is_anchor(pts, tree, 0) is False


def test_is_anchor_not_skeleton_leaf_raises():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    tree = built_tree(pts, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(NotSkeletonLeaf):
        is_anchor(pts, tree, 0)  # a leaf of the tree, not of the skeleton


def test_match_tree_path4():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    tree = emst5(pts)
    m = match_tree_second(pts, tree, validate_regions=True)
    assert m.pairs == ((0, 1), (2, 3))


def test_match_tree_star6():
    coords = [(0.0, 0.0)]
    for k in range(5):
        a = 2 * math.pi * k / 5
        coords.append((0.99999 * math.cos(a), 0.99999 * math.sin(a)))
    pts = ps(*coords)
    tree = emst5(pts)
    m = match_tree_second(pts, tree, validate_regions=True)
    assert m.size == 3
    rep = validate(pts, m)
    assert rep.is_matching and rep.is_plane
    # Center matched to a leaf, remaining four leaves in two pairs.
    assert any(0 in pair for pair in m.pairs)


def test_match_tree_case1_eight_vertices():
    # Hub w with one anchor v (leaves a, b at exactly pi) and a second-level
    # neighbour chain; the first Step-2 round must add (a, v) and (b, w).
    pts = ps(
        (1, 0),    # 0 = a
        (-1, 0),   # 1 = b
        (0, 0),    # 2 = v (anchor)
        (0, 1),    # 3 = w (hub)
        (0, 2),    # 4 = y
        (0, 3),    # 5 = z (second anchor, leaves bent back toward y)
        (-1, 2.8), # 6 = u1 (leaf of z)
        (1, 2.8),  # 7 = u2 (leaf of z)
    )
    tree = built_tree(pts, [(2, 0), (2, 1), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7)])
    assert is_anchor(pts, tree, 2) is True
    assert is_anchor(pts, tree, 5) is True
    res = match_tree_detailed(pts, tree, validate_regions=True)
    pairs = set(res.pairs)
    assert (0, 2) in pairs  # (a, v)
    assert (1, 3) in pairs  # (b, w)
    m = match_tree_second(pts, tree)
    assert m.size >= math.ceil(2 * 8 / 5)
    assert validate(pts, m).is_plane


def test_match_tree_rounds_account_four_fifths():
    rng = random.Random(2222)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 10, 12, 14])
        pts = random_even_pointset(rng, n, span=10)
        ef = even_forest(pts)
        for tree in ef.forest.trees:
            res = match_tree_detailed(pts, tree, validate_regions=True)
            for removed, matched in res.rounds:
                assert matched >= math.ceil(4 * removed / 5) or removed <= 1
            assert 2 * len(res.pairs) >= math.ceil(4 * tree.n / 5)


def test_match_tree_regions_convex_empty():
    rng = random.Random(3333)
    for _ in range(40):
        n = rng.choice([6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=8)
        ef = even_forest(pts)
        for tree in ef.forest.trees:
            res = match_tree_detailed(pts, tree, validate_regions=False)
            for poly in res.regions:
                assert convex_empty(pts, poly), poly


def test_second_approx_examples():
    sq = ps((0, 0), (1, 0), (0, 1), (1, 1))
    m = second_approx(sq, validate_regions=True)
    assert m.size == 2
    assert m.bottleneck_sq <= S * S

    grid = ps(*[(i, j) for i in range(4) for j in range(2)])
    mg = second_approx(grid, validate_regions=True)
    assert mg.size >= 4
    assert length_bound_ok(mg.bottleneck_sq, S * S)

    two = ps((0, 0), (0.5, 0.25))
    m2 = second_approx(two)
    assert m2.pairs == ((0, 1),)


def test_second_approx_oracle_random():
    rng = random.Random(424242)
    for _ in range(120):
        n = rng.choice([4, 6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=14)
        opt = exact_bottleneck_plane(pts)
        m = second_approx(pts, validate_regions=True)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane, rep.violations
        assert m.size >= math.ceil(2 * n / 5), (m.size, n)
        assert length_bound_ok(m.bottleneck_sq, opt.bottleneck_sq)


def test_second_approx_clustered_oracle():
    rng = random.Random(54545)
    for _ in range(40):
        k = rng.choice([2, 3])
        coords = set()
        while len(coords) < k * 4:
            cx, cy = rng.randrange(0, 3), rng.randrange(0, 3)
            coords.add(
                (
                    cx * 40 * S + rng.randrange(0, 3 * S),
                    cy * 40 * S + rng.randrange(0, 3 * S),
                )
            )
        pts = PointSet(sorted(coords))
        if pts.n % 2 != 0:
            continue
        opt = exact_bottleneck_plane(pts)
        m = second_approx(pts, validate_regions=True)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane
        assert m.size >= math.ceil(2 * pts.n / 5)
        assert length_bound_ok(m.bottleneck_sq, opt.bottleneck_sq)


def test_second_approx_odd_raises():
    with pytest.raises(OddPointCount):
        second_approx(ps((0, 0), (1, 0), (2, 0)))


# ---------------------------------------------------------------------------
# Constructed hub gadgets: drive every Step-2 case and hub base case.
#
# The builder places a hub at the origin with unit anchor spokes (each anchor
# carrying two short leaves tilted 89 degrees off the spoke so its clockwise
# span is just above pi), direct hub leaves at radius 1.3, and optionally a
# chain to a far anchor so the hub is a leaf of the second-level skeleton.
# Slot angles keep every non-tree distance above every tree edge, so the MST
# is exactly the intended tree (asserted).
# ---------------------------------------------------------------------------


def build_hub_gadget(anchor_slots, leaf_slots, y_slot=None, chain=0):
    coords: list[tuple[int, int]] = []

    def add(x, y):
        coords.append((round(x * S), round(y * S)))
        return len(coords) - 1

    expected = set()
    anchors = []
    w = add(0.0, 0.0)

    def anchor_cluster(cx, cy, inward_deg, parent):
        v = add(cx, cy)
        a = add(
            cx + 0.088 * math.cos(math.radians(inward_deg + 89)),
            cy + 0.088 * math.sin(math.radians(inward_deg + 89)),
        )
        b = add(
            cx + 0.088 * math.cos(math.radians(inward_deg - 89)),
            cy + 0.088 * math.sin(math.radians(inward_deg - 89)),
        )
        expected.update(
            {(min(v, a), max(v, a)), (min(v, b), max(v, b)),
             (min(parent, v), max(parent, v))}
        )
        return v

    for ang in anchor_slots:
        anchors.append(
            anchor_cluster(
                math.cos(math.radians(ang)), math.sin(math.radians(ang)),
                ang + 180, w,
            )
        )
    for ang in leaf_slots:
        x = add(1.3 * math.cos(math.radians(ang)), 1.3 * math.sin(math.radians(ang)))
        expected.add((min(w, x), max(w, x)))
    if y_slot is not None:
        rad = math.radians(y_slot)
        y = add(math.cos(rad), math.sin(rad))
        expected.add((min(w, y), max(w, y)))
        prev = y
        d = 1.0
        for _ in range(chain):
            d += 1.0
            nxt = add(d * math.cos(rad), d * math.sin(rad))
            expected.add((min(prev, nxt), max(prev, nxt)))
            prev = nxt
        d += 1.0
        anchors.append(
            anchor_cluster(
                d * math.cos(rad), d * math.sin(rad), y_slot + 180, prev
            )
        )
    pts = PointSet(coords)
    return pts, expected, anchors


HUB_CASES = [
    # (name, anchor slots, leaf slots, y slot, chain, first-round signature,
    # sha256 of [sorted pairs, rounds, regions] from match_tree_detailed with
    # validate_regions). The comment names the hub branch the row reaches.
    # Four anchors: the wedge compare < 0, > 0, and a tie broken by ids.
    ("step2_k4", [0, 70, 140, 210], [], 285, 1, (13, 12),
     "be53809ae8f6add1d244dbb1c02260186fbff9a1638d9720337851b91ee9ffe0"),
    ("step2_k4_wedge_gt", [0, 70, 150, 220], [], 290, 1, (13, 12),
     "7c7560a369653755d8af82f314ef08956d7a118f0c159aa801058f7a5a05cd70"),
    ("step2_k4_wedge_tie", [0, 70, 210, 280], [], 140, 1, (13, 12),
     "11a22e94d1e2f089cf30e057bd86f0f52bb3df09124c19c7f90155a0c2deb811"),
    # Three anchors, x before the first: x takes b_1.
    ("step2_k3_l1", [0, 70, 140], [218], 290, 1, (11, 10),
     "d0d203906d07c85624e56113d0a08bc78c7bdfed84f7b65449980b9c248a0916"),
    # Three anchors, x after the last: x takes a_3.
    ("step2_k3_l1_after", [0, 70, 140], [280], 208, 1, (11, 10),
     "7c632853802c696214d62bc4a9a5e66e01285e1cae9cc83cc93cf031c8ff660e"),
    ("step2_k3_l0", [0, 70, 140], [], 245, 0, (10, 8),
     "ad09d7c554d8a11fbf523f1c4e98e6d666f4def1ba6c1aba3e27b6069d8fe086"),
    # Two anchors, x outside them and left of b_1: x takes b_1 (both rows).
    ("step2_k2_l2", [0, 70], [150, 222], 292, 1, (9, 8),
     "5b10529b246745e0877c23483c8d6671656aca852f1605bc73fb05915dbbf9e5"),
    ("step2_k2_l1", [0, 70], [150], 260, 0, (8, 8),
     "6e450c940b681a9a3c8ae7340b2b6ad506e6b0acb1ffeffad11f7e5bd29b3e8a"),
    # Two anchors, x between them and right of a_1: x takes a_1.
    ("step2_k2_l1_between", [0, 140], [216], 72, 0, (8, 8),
     "5f9757f84c62da409cd6aa4687c752b48f02ac549d6f55e3d3a570e5ae40607b"),
    # Two anchors, x outside them and not left of b_1: x takes a_2.
    ("step2_k2_l1_outside", [0, 70], [248], 136, 0, (8, 8),
     "5f9757f84c62da409cd6aa4687c752b48f02ac549d6f55e3d3a570e5ae40607b"),
    ("step2_k2_l0", [0, 70], [], 210, 1, (7, 6),
     "6b99b287ccf4c0b84d3702d5a8c1e9465fe08c5c6f527453315b58855c83559a"),
    # One anchor, two or more leaves: the far, after and before sub-branches.
    ("step2_k1_l3", [0], [76, 144, 212], 280, 1, (7, 6),
     "cec05b9befba5f1042ca5f89228ec650a2402205e2443841d9edbb8eae93d778"),
    ("step2_k1_l2_flat", [0], [130, 218], 292, 0, (6, 6),
     "cd7294620d9531c94e483c1b040f2b4edf3cad0facc4affaea9487b1dcafc197"),
    ("step2_k1_l2_after", [0], [80, 170], 280, 0, (6, 6),
     "31de6eb15c37d5eebd95bb0550ee133bb88b8329b025f33eebe9ef2750605f59"),
    ("step2_k1_l2_before", [0], [280, 190], 100, 0, (6, 6),
     "7128e1fc90eb20b3ba745f554cf24bb5984b9fcd36a0d43b853367c96ce2a43a"),
    ("step2_k1_l1", [0], [120], 240, 1, (5, 4),
     "fd9f2dd3e26ab2d05758b5b050f93194ce635fe4df4c2daa83db63b8e787b07a"),
    ("hub_base_k5", [0, 72, 144, 216, 288], [], None, 0, (16, 14),
     "12d33466ee8135fafb3671c17f45ebdf3c0e35027ed4ca7334817c88d1bf069e"),
    ("hub_base_k4_l1", [0, 70, 140, 210], [285], None, 0, (14, 12),
     "6097ee9726e31d250029b358b1f098b57551cf41509cf9d3a2640ba04f62d7b6"),
    # Three anchors, x between the first two and right of a_1: x takes a_1.
    ("hub_base_k3_l2", [0, 70, 140], [216, 284], None, 0, (12, 10),
     "5dd6114c225fa3be62790d861be76349567b5013fc3e368270a6c62f0f06ddc8"),
    ("hub_base_k3_l0", [0, 70, 140], [], None, 0, (10, 8),
     "6762d8ba329c3843b516dec9a8c62122c0161a2b95721762a9b9735ea85ad7f6"),
    # Two anchors, x between them and left of a_1: x takes b_2 (both rows).
    ("hub_base_k2_l3", [0, 70], [146, 214, 284], None, 0, (10, 10),
     "5c7be8b93298a528f50e839ac41487c3064056aff96f90257fc2b440dd2fe62a"),
    ("hub_base_k2_l1", [0, 70], [150], None, 0, (8, 8),
     "4b27979643ee497ee71f3ece80953a88c00a8716dae7ef630996b88d441a72ef"),
]


@pytest.mark.parametrize(
    "name,aslots,lslots,yslot,chain,first_round,digest",
    HUB_CASES,
    ids=[c[0] for c in HUB_CASES],
)
def test_hub_gadget_cases(name, aslots, lslots, yslot, chain, first_round, digest):
    pts, expected, anchors = build_hub_gadget(aslots, lslots, yslot, chain)
    n = pts.n
    assert n % 2 == 0
    tree = emst5(pts)
    assert set(tree.edges()) == expected
    for v in anchors:
        assert is_anchor(pts, tree, v)
    res = match_tree_detailed(pts, tree, validate_regions=True)
    assert res.rounds[0] == first_round
    record = [sorted(res.pairs), res.rounds, res.regions]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest
    for removed, matched in res.rounds:
        assert matched >= math.ceil(4 * removed / 5) or removed <= 1
    m = match_tree_second(pts, tree)
    rep = validate(pts, m)
    assert rep.is_matching and rep.is_plane
    assert m.size >= math.ceil(2 * n / 5)


def test_hub_case1_two_leaf_subbranches():
    # The three sub-branches of one anchor with two hub leaves: leaf next to
    # the anchor matched through the quadrilateral on either side, or both
    # leaves paired together when they sit far from the anchor.
    pts, _, _ = build_hub_gadget([0], [80, 170], 280, 0)
    res = match_tree_detailed(pts, emst5(pts), validate_regions=True)
    assert (2, 4) in res.pairs and (1, 3) in res.pairs and (0, 5) in res.pairs

    pts, _, _ = build_hub_gadget([0], [280, 190], 100, 0)
    res = match_tree_detailed(pts, emst5(pts), validate_regions=True)
    assert (3, 4) in res.pairs and (1, 2) in res.pairs and (0, 5) in res.pairs

    pts, _, _ = build_hub_gadget([0], [130, 218], 292, 0)
    res = match_tree_detailed(pts, emst5(pts), validate_regions=True)
    assert (4, 5) in res.pairs and (1, 3) in res.pairs and (0, 2) in res.pairs


def test_step1_degree_five_leaf_fan():
    # A skeleton leaf with four tree leaves: Step 1 pairs a consecutive
    # leaf pair below pi and keeps the vertex for later rounds.
    coords = [(0.0, 0.0)]
    for ang in (0, 62, 124, 186):
        coords.append((0.5 * math.cos(math.radians(ang)), 0.5 * math.sin(math.radians(ang))))
    for d in (1.0, 2.0, 3.0):
        coords.append((d * math.cos(math.radians(273)), d * math.sin(math.radians(273))))
    pts = ps(*coords)
    tree = emst5(pts)
    assert sorted(len(tree.adj[v]) for v in tree.vertices) == [1, 1, 1, 1, 1, 2, 2, 5]
    res = match_tree_detailed(pts, tree, validate_regions=True)
    assert res.rounds[0] == (2, 2)
    first_pair = res.pairs[0]
    assert 0 not in first_pair  # a leaf-leaf pair, not a spoke
    m = match_tree_second(pts, tree)
    assert m.size >= math.ceil(2 * pts.n / 5)
    assert validate(pts, m).is_plane


def two_center_six(pts_builder):
    pts = pts_builder
    tree = emst5(pts)
    assert sorted(len(tree.adj[v]) for v in tree.vertices) == [1, 1, 1, 1, 3, 3]
    res = match_tree_detailed(pts, tree, validate_regions=True)
    m = match_tree_second(pts, tree)
    rep = validate(pts, m)
    assert rep.is_matching and rep.is_plane
    assert m.size == 3  # all six matched
    return res


def test_six_vertices_no_anchor():
    pts = ps(
        (0, 0), (1, 0),
        (0.7 * math.cos(math.radians(120)), 0.7 * math.sin(math.radians(120))),
        (0.7 * math.cos(math.radians(240)), 0.7 * math.sin(math.radians(240))),
        (1 + 0.7 * math.cos(math.radians(60)), 0.7 * math.sin(math.radians(60))),
        (1 + 0.7 * math.cos(math.radians(-60)), 0.7 * math.sin(math.radians(-60))),
    )
    res = two_center_six(pts)
    assert (0, 1) in res.pairs  # the centers pair with each other


def test_six_vertices_both_anchors():
    # Leaves exactly perpendicular to the spine: both spans are exactly pi,
    # and the 1.0-length cross pairs lose the Kruskal tie to the spine edge.
    pts = ps(
        (0, 0), (1, 0),
        (0, 0.088), (0, -0.088),
        (1, 0.088), (1, -0.088),
    )
    tree = emst5(pts)
    assert is_anchor(pts, tree, 0) and is_anchor(pts, tree, 1)
    res = two_center_six(pts)
    # The cross pair joins one leaf of each center through the empty quad.
    cross = [p for p in res.pairs if (p[0] in (2, 3)) != (p[1] in (2, 3))
             and 0 not in p and 1 not in p]
    assert len(cross) == 1


def test_six_vertices_one_anchor():
    pts = ps(
        (0, 0), (1, 0),
        (0.088 * math.cos(math.radians(89)), 0.088 * math.sin(math.radians(89))),
        (0.088 * math.cos(math.radians(-89)), 0.088 * math.sin(math.radians(-89))),
        (1 + 0.4 * math.cos(math.radians(75)), 0.4 * math.sin(math.radians(75))),
        (1 + 0.4 * math.cos(math.radians(285)), 0.4 * math.sin(math.radians(285))),
    )
    tree = emst5(pts)
    assert is_anchor(pts, tree, 0)
    assert not is_anchor(pts, tree, 1)
    res = two_center_six(pts)
    assert (4, 5) in res.pairs  # non-anchor side leaves pair together
