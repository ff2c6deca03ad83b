"""Tests for the first bottleneck approximation."""
from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys

import pytest

import planematch
import planematch.bottleneck_one as bottleneck_one
from planematch.bottleneck_one import (
    CriticalEdgeResult,
    SeedTriple,
    compare_to_opt,
    critical_edge,
    first_approx,
    match_tree_first,
)
from planematch.errors import OddPointCount, SeedRequired
from planematch.geometry import SCALE, PointSet
from planematch.io import gen_points
from planematch.matching import validate
from planematch.oracle import exact_bottleneck_plane
from planematch.proximity import Tree, emst5, even_threshold, forest_leq, second_closest

S = SCALE


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def random_even_pointset(rng, n, span=30):
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(0, span * S), rng.randrange(0, span * S)))
    return PointSet(sorted(coords))


def unit_star(k=5, shrink=0.99999):
    coords = [(0.0, 0.0)]
    for i in range(k):
        a = 2 * math.pi * i / k
        coords.append((shrink * math.cos(a), shrink * math.sin(a)))
    return ps(*coords)


def test_compare_to_opt_singletons_false():
    pts = ps((0, 0), (1, 0), (10, 0), (11, 0))
    mst = emst5(pts)
    assert compare_to_opt(pts, mst, (S // 2) ** 2) is None


def test_compare_to_opt_two_pairs_empty_list():
    pts = ps((0, 0), (1, 0), (10, 0), (11, 0))
    mst = emst5(pts)
    got = compare_to_opt(pts, mst, S * S)
    assert got == []


def test_compare_to_opt_star_stores_triple():
    pts = unit_star()
    mst = emst5(pts)
    got = compare_to_opt(pts, mst, S * S)
    assert got is not None and len(got) == 1
    triple = got[0]
    assert triple.tree == 0
    # The stored partner is the leaf's second-closest point ignoring the
    # center, which is an adjacent leaf of the same star.
    assert triple.p_prime == second_closest(pts, triple.p, 0)
    assert triple.p_prime != 0


def two_trees_sharing_a_second_closest():
    """A star on 0 with leaves 1, 2 and 3 and a pair 4-5 at 1.3 from leaf
    1: at threshold 1 both trees are even, and leaf 1's second-closest
    point, 4, is in the other tree."""
    return ps((0, 0), (1, 0), (-1, 0), (0, 1), (2.3, 0), (3.3, 0))


def test_compare_to_opt_refutes_a_second_closest_in_another_tree():
    pts = two_trees_sharing_a_second_closest()
    mst = emst5(pts)
    assert sorted(t.n for t in forest_leq(mst, S * S, pts).trees) == [2, 4]
    assert second_closest(pts, 1, 0) == 4
    assert compare_to_opt(pts, mst, S * S) is None
    assert compare_to_opt(pts, mst, (13 * S // 10) ** 2) == [SeedTriple(p=2, p_prime=3, tree=0)]


def test_compare_to_opt_odd_raises():
    pts = ps((0, 0), (1, 0), (2, 0))
    with pytest.raises(OddPointCount):
        compare_to_opt(pts, emst5(pts), S * S)


def test_critical_edge_collinear():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    ce = critical_edge(pts)
    assert ce.sq_length == S * S
    assert all(t.n % 2 == 0 for t in ce.forest.trees)


def test_critical_edge_two_clusters():
    pts = ps((0, 0), (1, 0), (10, 0), (11, 0))
    ce = critical_edge(pts)
    assert ce.sq_length == S * S
    assert sorted(t.n for t in ce.forest.trees) == [2, 2]


def test_critical_edge_square():
    pts = ps((0, 0), (1, 0), (0, 1), (1, 1))
    ce = critical_edge(pts)
    assert ce.sq_length == S * S
    assert len(ce.forest.trees) == 1


def test_critical_edge_at_most_oracle_random():
    rng = random.Random(314)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 10])
        pts = random_even_pointset(rng, n, span=12)
        ce = critical_edge(pts)
        opt = exact_bottleneck_plane(pts)
        assert ce.sq_length <= opt.bottleneck_sq


def curved_arc(n, seed):
    """n points along a gently curved arc with seeded gaps of half to twice
    SCALE: a path-like MST as deep as it gets, with varied lengths."""
    rng = random.Random(seed)
    x, coords = 0, []
    for _ in range(n):
        x += rng.randrange(S // 2, 2 * S)
        coords.append((x, x * x // (4000 * S)))
    return PointSet(coords)


def _digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def forest_shape(forest) -> list:
    """Every field of every tree of a forest in its own order."""
    return [
        [list(t.vertices), [[v, list(nbrs)] for v, nbrs in t.adj.items()], [[u, v, sq] for (u, v), sq in t.edge_sq.items()]]
        for t in forest.trees
    ]


# instance -> (edge, sq_length, seeds as [p, p_prime, tree], digest of the
# forest's shape) of critical_edge; the instance is gen_points(5000, seed,
# "clustered") or curved_arc(4000, seed).
CRITICAL_GOLDENS = {
    ("clustered", 1): ((4580, 4798), 2839984293845009, [[57, 89, 0]], "09e3364977428c70f96af7e78b34038f4625bb92f765aa9c7554ea4d5ca9e2be"),
    ("clustered", 2): (
        (4074, 4306),
        4340552773412817,
        [[15, 37, 0], [4974, 4999, 1]],
        "6fbd5a63d20f1e88df9f961e7bc97b11ab4b4b0be22ed17aedb1a2dac85c74b0",
    ),
    ("clustered", 3): ((2668, 2712), 3876028497866772, [[14, 37, 0]], "e3beef4bed3f7694108c1b97de2623d903a14594965cddd5eed6a6a0e69027a0"),
    ("arc", 1): ((3858, 3859), 27207385464960, [], "e64a04cf6ec1faab79fbd35143039821a4b98eec3d8f74c0ca8c11bf164af0a8"),
    ("arc", 2): ((3934, 3935), 27380790125092, [], "3fde5123c5b6b9c3b7f9dea4fdfec7899e7d3aaf93a1267ba9c5ecec0786fa0d"),
}


@pytest.mark.parametrize("kind,seed", list(CRITICAL_GOLDENS), ids=str)
def test_golden_critical_edge(kind, seed):
    pts = gen_points(5000, seed, "clustered") if kind == "clustered" else curved_arc(4000, seed)
    ce = critical_edge(pts)
    seeds = [[s.p, s.p_prime, s.tree] for s in ce.seeds]
    assert (ce.edge, ce.sq_length, seeds, _digest_json(forest_shape(ce.forest))) == CRITICAL_GOLDENS[(kind, seed)]


def test_first_approx_imports_no_more_scipy_than_spatial():
    # approx1 needs scipy.spatial (Qhull and the kd-tree) and nothing else of
    # scipy: scipy.sparse.csgraph alone would add about 3 MB to its memory.
    src = os.path.dirname(os.path.dirname(planematch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    listing = "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    solve = (
        "import sys\n"
        "from planematch.bottleneck_one import first_approx\n"
        "from planematch.io import gen_points\n"
        "for mode in ('uniform', 'clustered'):\n"
        "    first_approx(gen_points(600, 1, mode))\n"
    )
    loaded = {}
    for name, code in (("solve", solve), ("spatial", "import sys\nimport scipy.spatial\n")):
        out = subprocess.run([sys.executable, "-c", code + listing], env=env, capture_output=True, text=True, timeout=120, check=True)
        loaded[name] = set(json.loads(out.stdout.strip().replace("'", '"')))
    assert "scipy.spatial" in loaded["solve"]
    assert loaded["solve"] <= loaded["spatial"]


def reference_critical_edge(pts):
    """The binary search with every probe answered by compare_to_opt."""
    mst = emst5(pts)
    lengths = sorted(set(mst.edge_sq.values()))
    results = {}

    def probe(i):
        if i not in results:
            results[i] = compare_to_opt(pts, mst, lengths[i])
        return results[i]

    lo, hi = 0, len(lengths) - 1
    if probe(lo) is not None:
        hi = lo
    else:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid) is None:
                lo = mid
            else:
                hi = mid
    sq = lengths[hi]
    edge = min(e for e, d in mst.edge_sq.items() if d == sq)
    forest = forest_leq(mst, sq, pts)
    return CriticalEdgeResult(edge=edge, sq_length=sq, forest=forest, seeds=probe(hi))


def critical_edge_cases():
    rng = random.Random(808)
    for _ in range(80):
        n = rng.choice([2, 4, 6, 8, 12, 20, 40])
        yield random_even_pointset(rng, n, span=rng.choice([3, 10, 30]))
    yield PointSet((x * S, y * S) for x in range(8) for y in range(6))
    yield PointSet((x, y) for x in range(-5, 6) for y in range(-5, 6) if x * x + y * y == 25)
    circle = [(x, y) for x in range(-65, 66) for y in range(-65, 66) if x * x + y * y == 65 * 65]
    yield PointSet([(0, 0)] + circle[1:])
    for seed in (1, 2, 3):
        for mode in ("uniform", "clustered"):
            yield gen_points(600, seed, mode)
        yield gen_points(598, seed, "star-chain")
    yield two_trees_sharing_a_second_closest()
    # Deep, path-like MSTs.
    yield curved_arc(4000, 1)
    yield curved_arc(1000, 3)


def reference_compare_to_opt(pts, mst, sq_lambda):
    """compare_to_opt with each tree's first vertex with two leaf neighbours
    found by a scan of its vertices, and owners from a dict."""
    forest = forest_leq(mst, sq_lambda, pts)
    owner = forest.tree_of()
    checks = []
    for idx, tree in enumerate(forest.trees):
        if tree.n % 2 != 0:
            return None
        for v in tree.vertices:
            leaf_nbrs = [u for u in tree.adj[v] if len(tree.adj[u]) == 1]
            if len(leaf_nbrs) >= 2:
                checks.append((idx, v, leaf_nbrs[0], leaf_nbrs[1]))
                break
    seeds = []
    for idx, v, p, q in checks:
        pp, qq = second_closest(pts, p, v), second_closest(pts, q, v)
        leaf, other = (p, pp) if (pts.sq_dist(p, pp), 0) <= (pts.sq_dist(q, qq), 1) else (q, qq)
        if owner.get(other) != idx:
            return None
        seeds.append(SeedTriple(p=leaf, p_prime=other, tree=idx))
    return seeds


def test_compare_to_opt_equals_vertex_scan():
    for k, pts in enumerate(critical_edge_cases()):
        mst = emst5(pts)
        lengths = sorted(set(mst.edge_sq.values()))
        # The lengths below the even threshold are refuted by parity alone:
        # one of them, then every other length of the small cases and about
        # 40 of each large one.
        even = [sq for sq in lengths if sq >= even_threshold(mst)]
        for sq in lengths[:1] + even[:: max(1, len(even) // 40)] + even[-1:]:
            assert compare_to_opt(pts, mst, sq) == reference_compare_to_opt(pts, mst, sq), (k, sq)


def test_critical_edge_equals_search_probing_every_length():
    for pts in critical_edge_cases():
        assert pts.n % 2 == 0
        got, want = critical_edge(pts), reference_critical_edge(pts)
        assert (got.edge, got.sq_length, got.seeds) == (want.edge, want.sq_length, want.seeds)
        assert got.forest == want.forest


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_critical_edge_builds_few_forests(monkeypatch, seed):
    # Probes below the first all-even length never reach compare_to_opt.
    calls = []
    original = bottleneck_one.compare_to_opt

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bottleneck_one, "compare_to_opt", counted)
    critical_edge(gen_points(5000, seed, "clustered"))
    assert 1 <= len(calls) <= 3


def test_false_implies_below_optimum():
    # Whenever the decision procedure refutes an MST edge length, that
    # length is strictly below the optimal plane bottleneck.
    rng = random.Random(2711)
    for _ in range(40):
        n = rng.choice([4, 6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=10)
        mst = emst5(pts)
        opt = exact_bottleneck_plane(pts)
        for sq in sorted(set(mst.edge_sq.values())):
            if compare_to_opt(pts, mst, sq) is None:
                assert sq < opt.bottleneck_sq


def test_even_forest_at_optimum_threshold():
    # Every tree of the forest thresholded at the oracle bottleneck is even.
    rng = random.Random(515)
    for _ in range(40):
        n = rng.choice([4, 6, 8, 10])
        pts = random_even_pointset(rng, n, span=10)
        opt = exact_bottleneck_plane(pts)
        f = forest_leq(emst5(pts), opt.bottleneck_sq, pts)
        assert all(t.n % 2 == 0 for t in f.trees)


def test_match_tree_first_path4():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    tree = emst5(pts)
    m = match_tree_first(pts, tree)
    assert m.pairs == ((0, 1), (2, 3))


def test_match_tree_first_star_needs_seed():
    pts = unit_star()
    tree = emst5(pts)
    with pytest.raises(SeedRequired):
        match_tree_first(pts, tree, None)
    p = 1
    pp = second_closest(pts, p, 0)
    m = match_tree_first(pts, tree, SeedTriple(p=p, p_prime=pp, tree=0))
    assert m.size == 2
    rep = validate(pts, m)
    assert rep.is_matching and rep.is_plane


def test_match_tree_first_degree_four_case():
    # Center with four spokes plus one extended arm: some iteration sees
    # degree four, so plain peeling already meets the bound.
    pts = ps((0, 0), (0, 1), (0, -1), (1, 0), (-1, 0), (0, 2))
    adj = {
        0: [1, 2, 3, 4],
        1: [0, 5],
        2: [0],
        3: [0],
        4: [0],
        5: [1],
    }
    tree = Tree(
        vertices=(0, 1, 2, 3, 4, 5),
        adj=adj,
        edge_sq={
            (0, 1): pts.sq_dist(0, 1),
            (0, 2): pts.sq_dist(0, 2),
            (0, 3): pts.sq_dist(0, 3),
            (0, 4): pts.sq_dist(0, 4),
            (1, 5): pts.sq_dist(1, 5),
        },
    )
    m = match_tree_first(pts, tree)
    assert m.size >= 2
    assert validate(pts, m).is_plane


def test_match_tree_first_equilateral_rewrite():
    # The only peeling round of a degree-five star sees degree five, so
    # plain peeling does not meet the bound; the seeded restart, from leaf 1
    # and its nearest point other than the centre, matches ceil(n/5) pairs.
    pts = unit_star()
    tree = emst5(pts)
    base_bound = math.ceil(tree.n / 5)
    m = match_tree_first(
        pts, tree, SeedTriple(p=1, p_prime=second_closest(pts, 1, 0), tree=0)
    )
    assert m.size >= base_bound


def test_first_approx_examples():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    m = first_approx(pts)
    assert m.pairs == ((0, 1), (2, 3))

    sq = ps((0, 0), (1, 0), (0, 1), (1, 1))
    msq = first_approx(sq)
    rep = validate(sq, msq)
    assert rep.is_plane and rep.is_matching
    assert msq.size >= 1
    assert msq.bottleneck_sq <= S * S

    grid = ps(*[(i, j) for i in range(4) for j in range(2)])
    mg = first_approx(grid)
    assert mg.size >= 2
    assert mg.bottleneck_sq <= S * S


def test_first_approx_oracle_random():
    rng = random.Random(112)
    for _ in range(80):
        n = rng.choice([4, 6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=14)
        opt = exact_bottleneck_plane(pts)
        m = first_approx(pts)
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane, rep.violations
        assert m.size >= math.ceil(n / 5)
        assert m.bottleneck_sq <= opt.bottleneck_sq


def test_first_approx_crossing_route_oracle_random():
    rng = random.Random(113)
    for _ in range(50):
        n = rng.choice([4, 6, 8, 10])
        pts = random_even_pointset(rng, n, span=14)
        opt = exact_bottleneck_plane(pts)
        m = first_approx(pts, seed_source="crossing")
        rep = validate(pts, m)
        assert rep.is_matching and rep.is_plane, rep.violations
        assert m.size >= math.ceil(n / 5)
        assert m.bottleneck_sq <= opt.bottleneck_sq


def test_first_approx_odd_raises():
    with pytest.raises(OddPointCount):
        first_approx(ps((0, 0), (1, 0), (2, 0)))


def test_seed_edges_are_second_closest():
    # Non-tree output edges of the critical route join a leaf with its
    # second-closest point.
    rng = random.Random(611)
    for _ in range(40):
        n = rng.choice([6, 8, 10, 12])
        pts = random_even_pointset(rng, n, span=8)
        ce = critical_edge(pts)
        tree_edges = set()
        for t in ce.forest.trees:
            tree_edges.update(t.edges())
        m = first_approx(pts)
        allowed_extra = set()
        for s in ce.seeds:
            allowed_extra.add(tuple(sorted((s.p, s.p_prime))))
        for e in m.pairs:
            if e in tree_edges:
                continue
            # Either a stored seed pair or an equilateral rewrite edge; the
            # latter cannot occur on random integer coordinates.
            assert e in allowed_extra, e
