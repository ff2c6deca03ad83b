"""Tests for the blossom matcher and the crossing bottleneck search."""
from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import planematch
from planematch import blossom, proximity
from planematch.blossom import (
    AbstractGraph,
    _crossing_bracket,
    bottleneck_crossing,
    max_matching,
    max_matching_pairs,
    tutte_barrier,
)
from planematch.errors import InvariantViolation, OddPointCount
from planematch.geometry import PointSet
from planematch.io import gen_points
from planematch.oracle import exact_bottleneck_plane
from planematch.proximity import disk_graph, emst5, even_threshold, pairs_within
from planematch.udg import one_third

S = 10**6


def ps(*coords):
    return PointSet((round(x * S), round(y * S)) for x, y in coords)


def brute_max_matching_size(n, edges) -> int:
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


def test_path3():
    g = AbstractGraph.from_edges(3, [(0, 1), (1, 2)])
    assert len(max_matching(g)) == 1


def test_cycle4():
    g = AbstractGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(max_matching(g)) == 2


def petersen_edges():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return outer + spokes + inner


def test_petersen_has_perfect_matching():
    edges = petersen_edges()
    # Independent confirmation by brute force that a perfect matching exists.
    assert brute_max_matching_size(10, edges) == 5
    g = AbstractGraph.from_edges(10, edges)
    m = max_matching(g)
    assert len(m) == 5
    covered = {v for e in m for v in e}
    assert covered == set(range(10))


def test_blossom_equals_brute_force_random():
    rng = random.Random(606)
    for _ in range(200):
        n = rng.randrange(1, 11)
        possible = list(combinations(range(n), 2))
        edges = [e for e in possible if rng.random() < 0.4]
        g = AbstractGraph.from_edges(n, edges)
        m = max_matching(g)
        # Certify the output is a matching using graph edges.
        covered = set()
        eset = {tuple(sorted(e)) for e in edges}
        for a, b in m:
            assert (a, b) in eset
            assert a not in covered and b not in covered
            covered.add(a)
            covered.add(b)
        assert len(m) == brute_max_matching_size(n, edges)


def test_bottleneck_crossing_examples():
    pts = ps((0, 0), (1, 0), (2, 0), (3, 0))
    res = bottleneck_crossing(pts)
    assert res.bottleneck_sq == S * S

    sq = ps((0, 0), (1, 0), (0, 1), (1, 1))
    assert bottleneck_crossing(sq).bottleneck_sq == S * S

    two = ps((0, 0), (3, 0))
    assert bottleneck_crossing(two).bottleneck_sq == 9 * S * S


def test_bottleneck_crossing_odd_raises():
    with pytest.raises(OddPointCount):
        bottleneck_crossing(ps((0, 0), (1, 0), (2, 0)))


def test_crossing_bottleneck_lower_bounds_plane_optimum():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.choice([4, 6, 8, 10])
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 25), rng.randrange(0, 25)))
        pts = PointSet(sorted(coords))
        cross = bottleneck_crossing(pts)
        plane = exact_bottleneck_plane(pts)
        assert cross.bottleneck_sq <= plane.bottleneck_sq
        rep_pairs = cross.matching.pairs
        assert len(rep_pairs) == n // 2
        assert cross.matching.bottleneck_sq == cross.bottleneck_sq


def test_feasibility_monotone():
    rng = random.Random(23)
    for _ in range(30):
        n = rng.choice([4, 6, 8])
        coords = set()
        while len(coords) < n:
            coords.add((rng.randrange(0, 20), rng.randrange(0, 20)))
        pts = PointSet(sorted(coords))
        dists = sorted({pts.sq_dist(i, j) for i in range(n) for j in range(i + 1, n)})
        feas = [
            len(max_matching_pairs(n, disk_graph(pts, d).adj)) * 2 == n
            for d in dists
        ]
        # Once feasible, always feasible.
        first = feas.index(True) if True in feas else len(feas)
        assert all(feas[first:])


def reference_bottleneck_crossing(pts: PointSet):
    """The full-range search: binary search over every distinct pairwise
    distance, witness from the last feasible probe."""
    n = pts.n
    dists = sorted({pts.sq_dist(i, j) for i in range(n) for j in range(i + 1, n)})

    def feasible(sq):
        pairs = max_matching_pairs(n, disk_graph(pts, sq).adj)
        return pairs if len(pairs) * 2 == n else None

    lo, hi = 0, len(dists) - 1
    witness = feasible(dists[hi])
    while lo < hi:
        mid = (lo + hi) // 2
        pairs = feasible(dists[mid])
        if pairs is not None:
            witness = pairs
            hi = mid
        else:
            lo = mid + 1
    return dists[hi], tuple(witness)


def assert_crossing_equals_reference(pts: PointSet) -> None:
    res = bottleneck_crossing(pts)
    assert (res.bottleneck_sq, res.matching.pairs) == reference_bottleneck_crossing(pts)
    assert res.lower_sq <= res.bottleneck_sq <= 4 * res.lower_sq
    # L is the even threshold of the complete graph, which the EMST shares.
    assert res.lower_sq == even_threshold(emst5(pts))


def pythagorean_circle(r: int) -> list[tuple[int, int]]:
    return sorted(
        (x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y == r * r
    )


def crossing_corpus():
    yield "grid6", [(x * S, y * S) for x in range(6) for y in range(6)]
    yield "grid-unscaled", [(x, y) for x in range(5) for y in range(4)]
    for r in (5, 25):
        yield f"circle{r}", pythagorean_circle(r)
        yield f"circle{r}+centre", pythagorean_circle(r) + [(0, 0), (r + 1, 0)]
    yield "collinear", [(k * S, 0) for k in range(20)]
    yield "collinear+1", [(k * S, 0) for k in range(19)] + [(7 * S, 2 * S)]
    yield "obtuse+far", [(0, 0), (2, 0), (1, 1), (10, 0)]
    # L = 5 joins the star, which has no perfect matching; the barrier
    # {centre} leaves three odd leaves until two of them meet at 8.
    star = [(0, 0), (5, 0), (-3, 4), (-3, -4)]
    yield "star", star
    yield "star-beyond-2^63", [(2**70 + x * 10**20, 2**70 + y * 10**20) for x, y in star]
    # A wide star and a far, dense grid: the first scan radius is below L,
    # and lambda_c lies beyond the radius at which L is found.
    wide = [(0, 0), (100, 0), (-50, 87), (-50, -87)] + [(1000 + i, j) for i in range(10) for j in range(10)]
    yield "star+grid", wide
    yield "star+grid-beyond-2^63", [(2**70 + x * 10**20, 2**70 + y * 10**20) for x, y in wide]
    rng = random.Random(31)
    shift = 2**60
    yield "beyond-2^53", [(shift + rng.randrange(10**6), shift + 3 * k) for k in range(40)]
    big = 10**21
    yield "2span^2>=2^63", sorted({(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(40)})
    for seed in (1, 4):
        pts = gen_points(120, seed, "uniform")
        yield f"uniform120-{seed}", list(zip(pts.xs, pts.ys))
    pts = gen_points(100, 2, "clustered")
    yield "clustered100", list(zip(pts.xs, pts.ys))


@pytest.mark.parametrize("name,coords", list(crossing_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_bottleneck_crossing_equals_full_search_degenerate(name, coords):
    assert len(coords) % 2 == 0
    assert_crossing_equals_reference(PointSet(coords))


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=2, max_size=24))
def test_bottleneck_crossing_equals_full_search_small(coords):
    coords = sorted(coords)
    assert_crossing_equals_reference(PointSet(coords[: len(coords) // 2 * 2]))


def test_bottleneck_crossing_bracket_skips_cycle_edges():
    # The edge (0, 1) closes the triangle 0-1-2 while it is odd; L is the
    # length at which the far point joins, not the triangle's last edge.
    res = bottleneck_crossing(PointSet([(0, 0), (2, 0), (1, 1), (10, 0)]))
    assert res.lower_sq == 64
    assert res.bottleneck_sq == 64


def test_bottleneck_crossing_probes_few(monkeypatch):
    calls = []
    real = blossom.max_matching_pairs

    def counted(n, adj):
        calls.append(n)
        return real(n, adj)

    monkeypatch.setattr(blossom, "max_matching_pairs", counted)
    counts = []
    for seed in range(1, 9):
        calls.clear()
        res = bottleneck_crossing(gen_points(300, seed, "uniform"))
        counts.append(len(calls))
        # One probe when the bracket's first candidate L is feasible.
        assert res.bottleneck_sq != res.lower_sq or len(calls) == 1
    # At most 6 probes per search on average; the full-range search made 16-17.
    assert sum(counts) <= 6 * len(counts), counts


def odd_components(n: int, edges, removed: set) -> int:
    """Odd components of the graph on range(n) minus ``removed``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in edges:
        if u not in removed and v not in removed:
            parent[find(u)] = find(v)
    sizes = Counter(find(v) for v in range(n) if v not in removed)
    return sum(size % 2 for size in sizes.values())


def test_tutte_barrier_leaves_more_odd_components_than_its_size():
    rng = random.Random(808)
    checked = 0
    for _ in range(400):
        n = rng.randrange(2, 14)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.25]
        g = AbstractGraph.from_edges(n, edges)
        pairs = max_matching_pairs(n, g.adj)
        if 2 * len(pairs) == n:
            continue
        barrier = tutte_barrier(n, g.adj, pairs)
        odd = odd_components(n, edges, set(barrier))
        # Tutte-Berge: odd - |A| never exceeds the number of exposed vertices.
        assert len(barrier) < odd <= len(barrier) + n - 2 * len(pairs)
        checked += 1
    assert checked > 100


def test_tutte_barrier_needs_a_maximum_matching():
    path = AbstractGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvariantViolation):
        tutte_barrier(4, path.adj, [(1, 2)])


@pytest.mark.parametrize(
    "name", ["grid6", "circle25+centre", "star+grid", "star+grid-beyond-2^63", "2span^2>=2^63", "uniform120-1"]
)
def test_window_extend_gives_the_disk_graph(name):
    pts = PointSet(dict(crossing_corpus())[name])
    lower_sq, window = _crossing_bracket(pts)
    while window._grow():
        pass
    assert window.sq_radius >= 4 * lower_sq
    adj = disk_graph(pts, lower_sq).adj
    radii = sorted({sq for sq in window.pairs[0].tolist() if lower_sq < sq <= 4 * lower_sq})
    assert radii
    sq = lower_sq
    for r in radii[:: max(1, len(radii) // 6)] + radii[-1:]:
        if r > sq:
            window.extend(adj, sq, r)
            sq = r
            assert adj == disk_graph(pts, r).adj


def test_crossing_window_grows_past_the_first_radius(monkeypatch):
    grown = []
    real = blossom._Window._grow

    def counted(self):
        grown.append(self.sq_radius)
        return real(self)

    monkeypatch.setattr(blossom._Window, "_grow", counted)
    pts = PointSet(dict(crossing_corpus())["star+grid"])
    res = bottleneck_crossing(pts)
    # L joins the star at (-50, +-87); two leaves first meet at 150^2 + 87^2.
    assert (res.lower_sq, res.bottleneck_sq) == (50**2 + 87**2, 150**2 + 87**2)
    assert grown and max(grown) < res.bottleneck_sq


@pytest.mark.parametrize("n,seed,mode", [(2000, 1, "uniform"), (2000, 1, "clustered"), (300, 1, "uniform"),
                                         (300, 4, "uniform")])
def test_crossing_bracket_lists_the_pairs_once_per_radius(n, seed, mode, monkeypatch):
    # The pass for L lists the pairs once at the first radius, and once more
    # at each doubling; on clustered input the first radius lies far below
    # L, so the window doubles on the way. L is the MST's even threshold.
    # The whole search runs the fixed-radius kernel once per window listing
    # and never more: the disk graph at L is the window's prefix, and the
    # barrier steps, which the two 300-point sets take, read the window.
    listings, kernel, steps = [], [], []
    listed, near, barrier = blossom.pairs_within, proximity._near_pairs, blossom.tutte_barrier
    monkeypatch.setattr(blossom, "pairs_within", lambda pts, r: listings.append(r) or listed(pts, r))
    monkeypatch.setattr(proximity, "_near_pairs", lambda pts, r: kernel.append(r) or near(pts, r))
    monkeypatch.setattr(blossom, "tutte_barrier", lambda *args: steps.append(args) or barrier(*args))
    pts = gen_points(n, seed, mode)
    lower_sq, window = _crossing_bracket(pts)
    if n == 2000:
        assert len(listings) == (1 if mode == "uniform" else 3)
    assert kernel == listings
    listings.clear()
    kernel.clear()
    res = bottleneck_crossing(pts)
    assert res.lower_sq == lower_sq == even_threshold(emst5(pts))
    assert kernel == listings and listings
    assert bool(steps) == (n == 300)


def scaled(pts: PointSet, factor: int, shift: int) -> PointSet:
    return PointSet((shift + x * factor, shift + y * factor) for x, y in zip(pts.xs, pts.ys))


@pytest.mark.parametrize("seed,factor", [(1, 1), (4, 1), (27, 1), (57, 1), (27, 10**15)])
def test_bottleneck_crossing_barrier_steps_equal_full_search(seed, factor, monkeypatch):
    steps = []
    real = blossom.tutte_barrier

    def counted(*args):
        steps.append(args)
        return real(*args)

    monkeypatch.setattr(blossom, "tutte_barrier", counted)
    pts = gen_points(300, seed, "uniform")
    if factor != 1:
        # 2 * span^2 >= 2^63: the window holds Python ints.
        pts = scaled(pts, factor, 2**70)
    assert_crossing_equals_reference(pts)
    # L is infeasible on all of these; on 1 and 57 one barrier step is not
    # enough.
    assert steps
    assert len(steps) > 1 or seed not in (1, 57)


@pytest.mark.parametrize("name", ["star", "star+grid", "star+grid-beyond-2^63", "seed1", "seed57"])
def test_barrier_sq_is_the_first_length_leaving_few_odd_components(name):
    if name.startswith("seed"):
        pts = gen_points(300, int(name[4:]), "uniform")
    else:
        pts = PointSet(dict(crossing_corpus())[name])
    n = pts.n
    lower_sq, window = _crossing_bracket(pts)
    adj = disk_graph(pts, lower_sq).adj
    pairs = max_matching_pairs(n, adj)
    assert 2 * len(pairs) < n
    barrier = tutte_barrier(n, adj, pairs)
    got = window.barrier_sq(barrier)
    sq = {(i, j): pts.sq_dist(i, j) for i in range(n) for j in range(i + 1, n)}

    def odd_at(radius):
        return odd_components(n, [e for e, d in sq.items() if d <= radius], set(barrier))

    below = max(d for d in sq.values() if d < got)
    assert odd_at(got) <= len(barrier) < odd_at(below)


def first_length_leaving_few_odd_components(pts: PointSet, barrier: list[int]) -> int:
    """The first pair length at which removing ``barrier`` from the disk
    graph leaves at most |barrier| odd components, by brute force."""
    n = pts.n
    sq = {(i, j): pts.sq_dist(i, j) for i in range(n) for j in range(i + 1, n)}
    for radius in sorted(set(sq.values())):
        if odd_components(n, [e for e, d in sq.items() if d <= radius], set(barrier)) <= len(barrier):
            return radius
    raise AssertionError("the complete graph leaves too many odd components")


def lattice_draw(w: int, h: int, step: int) -> list[tuple[int, int]]:
    return [(x * step, y * step) for x in range(w) for y in range(h)]


def collinear_draw(gaps: list[int], slope: tuple[int, int]) -> list[tuple[int, int]]:
    coords, t = [], 0
    for gap in gaps:
        t += gap
        coords.append((t * slope[0], t * slope[1]))
    return coords


def shuffled_ties(seed: int):
    """``pairs_within`` with the pairs of each run of equal lengths in a
    seeded random order, and a list that records whether any moved."""
    rng = np.random.default_rng(seed)
    moved = []

    def listing(pts, sq_radius):
        sq, u, v = pairs_within(pts, sq_radius)
        # Each pair's run is keyed by the index where its run starts.
        order = np.lexsort((rng.random(len(sq)), np.searchsorted(sq, sq)))
        moved.append(bool((order != np.arange(len(sq))).any()))
        return sq[order], u[order], v[order]

    return listing, moved


def tie_corpus():
    yield "lattice8x8", lattice_draw(8, 8, 1)
    yield "lattice7x6", lattice_draw(7, 6, 1)
    # Squared lengths of 10^40 and more: the listing holds Python ints.
    yield "lattice6x6-beyond-2^63", [(2**70 + x, 2**70 + y) for x, y in lattice_draw(6, 6, 10**20)]
    # A hub and three 3 x 3 lattices: L = 10 joins the hub to all three,
    # the barrier {hub} leaves three odd ones, and the barrier step to 16,
    # where the two mirrored lattices meet, adds pairs of tied lengths to
    # the neighbour lists.
    hub = [(0, 0)] + [(x + dx, y + dy) for x, y in ((10, -1), (-7, 8), (-7, -10)) for dx, dy in lattice_draw(3, 3, 1)]
    yield "lattices+hub", hub
    yield "lattices+hub-beyond-2^63", [(2**70 + x * 10**20, 2**70 + y * 10**20) for x, y in hub]
    yield from crossing_corpus()


@pytest.mark.parametrize("name,coords", list(tie_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_crossing_search_cannot_see_the_order_of_equal_lengths(name, coords, monkeypatch):
    # The listing promises only the order of lengths. The bracket, the
    # barrier lengths, the disk graph at L and the steps past it must read
    # nothing else, so no tie order may change the result or one-third.
    pts = PointSet(coords)
    want = bottleneck_crossing(pts)
    want_third = one_third(pts, want.matching)[0].pairs
    for seed in range(3):
        listing, moved = shuffled_ties(seed)
        monkeypatch.setattr(blossom, "pairs_within", listing)
        got = bottleneck_crossing(pts)
        assert (got.bottleneck_sq, got.lower_sq, got.matching) == (want.bottleneck_sq, want.lower_sq, want.matching)
        assert one_third(pts, got.matching)[0].pairs == want_third
        if name.startswith("lattice"):
            assert any(moved)


@settings(max_examples=120, deadline=None)
@given(
    st.one_of(
        st.sets(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=2, max_size=20).map(sorted),
        st.builds(lattice_draw, st.integers(1, 5), st.integers(2, 4), st.integers(1, 3)),
        st.builds(
            collinear_draw,
            st.lists(st.integers(1, 4), min_size=2, max_size=20),
            st.sampled_from([(1, 0), (0, 1), (1, 1), (2, -1)]),
        ),
    ),
    st.data(),
)
def test_barrier_sq_equals_brute_force_on_small_sets(coords, data):
    # Any barrier A with 2|A| < n, the empty one included: the pass skips
    # A's pairs and cycle edges, and grows the window up to the span.
    pts = PointSet(coords[: len(coords) // 2 * 2])
    n = pts.n
    lower_sq, window = _crossing_bracket(pts)
    window.top_sq = (max(pts.xs) - min(pts.xs)) ** 2 + (max(pts.ys) - min(pts.ys)) ** 2
    barriers = data.draw(
        st.lists(st.lists(st.integers(0, n - 1), max_size=(n - 1) // 2, unique=True), min_size=1, max_size=4)
    )
    assert lower_sq == first_length_leaving_few_odd_components(pts, [])
    for barrier in [[]] + barriers:
        assert window.barrier_sq(barrier) == first_length_leaving_few_odd_components(pts, barrier)


def test_crossing_path_imports_no_scipy():
    # The crossing search, one-third and validate run on numpy alone; a scipy
    # import would add its modules to every such run's memory.
    code = (
        "import sys\n"
        "from planematch.blossom import bottleneck_crossing\n"
        "from planematch.io import gen_points\n"
        "from planematch.matching import validate\n"
        "from planematch.udg import one_third\n"
        "pts = gen_points(300, 1, 'uniform')\n"
        "m = one_third(pts, bottleneck_crossing(pts).matching)[0]\n"
        "report = validate(pts, m)\n"
        "assert report.is_matching and report.is_plane\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
    )
    src = os.path.dirname(os.path.dirname(planematch.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
