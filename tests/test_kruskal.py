"""proximity.kruskal and its consumers against reference copies of the
separate Kruskal loops they replaced: the even-forest loop, the EMST loop
and the Tutte-barrier sweep that labelled components depth-first before
merging them with its own union-find. The trees are compared with the ones
the depth-first component walk built before the forest builder."""
from __future__ import annotations

import math
import random
from itertools import islice

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planematch.blossom import _crossing_bracket, max_matching_pairs, tutte_barrier
from planematch.bottleneck_two import even_forest
from planematch.errors import InvariantViolation
from planematch.geometry import SCALE, PointSet
from planematch.io import gen_points
from planematch import proximity
from planematch.proximity import (
    Tree,
    _degree_reduce,
    _reduced,
    delaunay,
    disk_graph,
    emst5,
    kruskal,
    sorted_candidate_edges,
)

S = SCALE


def rows(edges) -> list[tuple[int, int, int]]:
    """The arrays (sq, u, v) of sorted_candidate_edges as rows."""
    return list(zip(*(a.tolist() for a in edges)))


def reference_tree_from_adj(pts: PointSet, vertices, adj) -> Tree:
    """The Tree of adjacency sets as the depth-first builder made it: sorted
    vertices and lists, lexicographic edges with recomputed lengths."""
    verts = tuple(sorted(vertices))
    tadj = {v: sorted(adj[v]) for v in verts}
    edge_sq = {}
    for v in verts:
        for u in tadj[v]:
            if v < u:
                edge_sq[(v, u)] = pts.sq_dist(v, u)
    return Tree(vertices=verts, adj=tadj, edge_sq=edge_sq)


def reference_component_trees(pts: PointSet, adj) -> list[Tree]:
    """The trees of the components of ``adj`` by depth-first search, ordered
    by their smallest vertex: the walk the forest builder replaced."""
    seen: set[int] = set()
    trees = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        stack = [start]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        trees.append(reference_tree_from_adj(pts, comp, adj))
    return trees


def reference_even_forest(pts: PointSet):
    """(trees, last_edge, last_sq) by the loop even_forest used to run."""
    n = pts.n
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    odd = n
    last_edge = last_sq = None
    for sq, u, v in rows(sorted_candidate_edges(pts, delaunay(pts).edges)):
        ru, rv = find(u), find(v)
        if ru == rv:
            continue
        if size[ru] % 2 == 1 and size[rv] % 2 == 1:
            odd -= 2
        if size[ru] < size[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        size[ru] += size[rv]
        adj[u].add(v)
        adj[v].add(u)
        last_edge = (u, v) if u < v else (v, u)
        last_sq = sq
        if odd == 0:
            break
    _degree_reduce(pts, adj)
    return reference_component_trees(pts, adj), last_edge, last_sq


def reference_emst5(pts: PointSet):
    """The tree emst5 used to build with its own union-find class."""
    n = pts.n
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    adj: dict[int, set[int]] = {i: set() for i in range(n)}
    taken = 0
    for _, u, v in rows(sorted_candidate_edges(pts, delaunay(pts).edges)):
        ra, rb = find(u), find(v)
        if ra == rb:
            continue
        if size[ra] < size[rb]:
            ra, rb = rb, ra
        parent[rb] = ra
        size[ra] += size[rb]
        adj[u].add(v)
        adj[v].add(u)
        taken += 1
        if taken == n - 1:
            break
    _degree_reduce(pts, adj)
    return reference_tree_from_adj(pts, range(n), adj)


def reference_barrier_sq(window, adj, sq_from: int, barrier: list[int]) -> int:
    """The sweep barrier_sq used to run: components of the disk graph
    ``adj`` at ``sq_from`` minus the barrier by depth-first search, then a
    Kruskal pass over the longer pairs of the window."""
    n = len(adj)
    cut = [False] * n
    for a in barrier:
        cut[a] = True
    comp = [-1] * n
    odd: list[int] = []
    for root in range(n):
        if comp[root] != -1 or cut[root]:
            continue
        comp[root] = label = len(odd)
        stack, size = [root], 0
        while stack:
            x = stack.pop()
            size += 1
            for y in adj[x]:
                if comp[y] == -1 and not cut[y]:
                    comp[y] = label
                    stack.append(y)
        odd.append(size & 1)
    count, spare = sum(odd), len(barrier)
    parent = list(range(len(odd)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    start = window._after(sq_from)
    while True:
        for sq, a, b in islice(zip(*(col.tolist() for col in window.pairs)), start, None):
            if cut[a] or cut[b]:
                continue
            ra, rb = find(comp[a]), find(comp[b])
            if ra == rb:
                continue
            parent[rb] = ra
            if odd[ra] and odd[rb]:
                odd[ra] = 0
                count -= 2
                if count <= spare:
                    return sq
            else:
                odd[ra] |= odd[rb]
        swept = window.sq_radius
        if not window._grow():
            raise InvariantViolation("no perfect matching at twice the even-prefix length")
        start = window._after(swept)


def barrier_steps(pts: PointSet) -> int:
    """Walk bottleneck_crossing's barrier steps, checking each answer of
    barrier_sq against the reference sweep; returns the number of steps."""
    n = pts.n
    lower_sq, window = _crossing_bracket(pts)
    adj = disk_graph(pts, lower_sq).adj
    sq = lower_sq
    pairs = max_matching_pairs(n, adj)
    steps = 0
    while 2 * len(pairs) < n:
        barrier = tutte_barrier(n, adj, pairs)
        # barrier_sq goes first, so it has to grow the window itself.
        got = window.barrier_sq(barrier)
        assert got == reference_barrier_sq(window, [list(a) for a in adj], sq, barrier)
        window.extend(adj, sq, got)
        sq = got
        pairs = max_matching_pairs(n, adj)
        steps += 1
    return steps


def shape(tree):
    return tree.vertices, tree.adj, tree.edge_sq


def pythagorean_circle(r: int) -> list[tuple[int, int]]:
    return sorted((x, y) for x in range(-r, r + 1) for y in range(-r, r + 1) if x * x + y * y == r * r)


def degenerate_corpus():
    yield "grid6", [(x * S, y * S) for x in range(6) for y in range(6)]
    yield "grid12x9", [(x * S, y * S) for x in range(12) for y in range(9)]
    yield "grid-unscaled", [(x, y) for x in range(7) for y in range(6)]
    for r in (5, 25, 65):
        yield f"circle{r}", pythagorean_circle(r)
        yield f"circle{r}+centre", pythagorean_circle(r) + [(0, 0), (r + 1, 0)]
    yield "collinear+1", [(k * S, 0) for k in range(39)] + [(13 * S, 2 * S)]
    star = [(0, 0), (100, 0), (-50, 87), (-50, -87)] + [(1000 + i, j) for i in range(10) for j in range(10)]
    yield "star+grid", star
    yield "star+grid-beyond-2^63", [(2**70 + x * 10**20, 2**70 + y * 10**20) for x, y in star]
    rng = random.Random(21)
    big = 10**21
    yield "1e21-40", sorted({(rng.randint(-big, big), rng.randint(-big, big)) for _ in range(40)})
    yield "grid-beyond-2^63", [(2**70 + x * 10**20, 2**70 + y * 10**20) for x in range(8) for y in range(5)]


def even(coords):
    """The coordinates less the last one when their count is odd."""
    coords = sorted(coords)
    return coords[: len(coords) - len(coords) % 2]


def check_consumers(coords) -> None:
    pts = PointSet(coords)
    assert shape(emst5(pts)) == shape(reference_emst5(pts))
    pts = PointSet(even(coords))
    if pts.n < 2:
        return
    ef = even_forest(pts)
    trees, last_edge, last_sq = reference_even_forest(pts)
    assert (ef.last_edge, ef.last_sq) == (last_edge, last_sq)
    assert list(map(shape, ef.forest.trees)) == list(map(shape, trees))
    barrier_steps(pts)


@pytest.mark.parametrize("name,coords", list(degenerate_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_consumers_equal_reference_loops(name, coords):
    check_consumers(coords)


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40))
def test_consumers_equal_reference_loops_on_grid_subsets(cells):
    # A 7x7 grid: lengths tie everywhere, so the order in which Kruskal
    # takes equal edges decides the trees.
    check_consumers([(x * S, y * S) for x, y in cells])


def test_barrier_sq_equals_reference_on_uniform_instances():
    steps = sum(barrier_steps(gen_points(300, seed, "uniform")) for seed in range(1, 81))
    assert steps >= 10


def test_kruskal_yields_joining_edges_with_odd_counts():
    edges = [(1, 0, 1), (1, 2, 3), (2, 0, 1), (2, 1, 2), (3, 0, 3), (4, 4, 5)]
    assert list(kruskal(edges, 6, 6)) == [(1, 0, 1, 4), (1, 2, 3, 2), (2, 1, 2, 2), (4, 4, 5, 0)]


def hexagon_star():
    """A regular hexagon of radius S around its centre 0, rounded to
    integers, and the six spokes from the centre as (u, v, sq) arrays."""
    pts = PointSet([(0, 0)] + [(round(S * math.cos(k * math.pi / 3)), round(S * math.sin(k * math.pi / 3))) for k in range(6)])
    u = np.zeros(6, dtype=np.int64)
    v = np.arange(1, 7, dtype=np.int64)
    return pts, u, v, np.array([pts.sq_dist(0, b) for b in range(1, 7)], dtype=np.int64)


def test_degree_exchange_fallback_runs_only_at_degree_six():
    # No point set with integer coordinates has an MST vertex of degree six
    # (the angle between integer vectors is never exactly pi/3), so the
    # fallback is fed a six-spoke star directly. Rounded, it has no exact
    # pi/3 pair left, which _degree_reduce reports.
    pts, u, v, sq = hexagon_star()
    five = (u[:5], v[:5], sq[:5])
    assert all(got is given for got, given in zip(_reduced(pts, *five), five))
    with pytest.raises(InvariantViolation, match="exact pi/3"):
        _reduced(pts, u, v, sq)


def test_degree_exchange_fallback_rebuilds_the_edge_arrays(monkeypatch):
    # With the pi/3 test loosened to the rounding of the hexagon, the
    # exchange happens, and the builder gets the new edges with their exact
    # lengths in both length representations.
    def nearly_third_pi(pts, a, v, b):
        ux, uy = pts.xs[a] - pts.xs[v], pts.ys[a] - pts.ys[v]
        wx, wy = pts.xs[b] - pts.xs[v], pts.ys[b] - pts.ys[v]
        dot = ux * wx + uy * wy
        return dot > 0 and abs(4 * dot * dot - (ux * ux + uy * uy) * (wx * wx + wy * wy)) < 10**-4 * (ux * ux + uy * uy) ** 2

    monkeypatch.setattr(proximity, "angle_exactly_third_pi", nearly_third_pi)
    pts, u, v, sq = hexagon_star()
    for lengths in (sq, sq.astype(object)):
        ru, rv, rsq = _reduced(pts, u, v, lengths)
        assert rsq.dtype == lengths.dtype and len(ru) == 6
        assert list(zip(ru.tolist(), rv.tolist())) == sorted(zip(ru.tolist(), rv.tolist()))
        assert rsq.tolist() == [pts.sq_dist(a, b) for a, b in zip(ru.tolist(), rv.tolist())]
        parent = list(range(pts.n))
        for _ in kruskal(zip(rsq.tolist(), ru.tolist(), rv.tolist()), pts.n, pts.n, parent):
            pass
        (tree,) = proximity._build_forest(pts, ru, rv, rsq, None, parent)
        assert max(map(len, tree.adj.values())) == 5
        assert shape(tree) == shape(reference_tree_from_adj(pts, range(7), tree.adj))
