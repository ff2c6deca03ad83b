"""The MST, the even forest and the crossing search's odd-count pass
against reference copies of the separate Kruskal loops they replaced: the
even-forest loop, the EMST loop and the Tutte-barrier sweep that labelled
components depth-first before merging them with its own union-find. The
trees are compared with the ones the depth-first component walk built
before the forest builder. ``kruskal`` is the one reference Kruskal pass
that other tests read."""
from __future__ import annotations

import random
from functools import partial
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
from planematch.proximity import (
    Tree,
    _build_forest,
    _roots,
    boruvka,
    delaunay,
    disk_graph,
    emst5,
    even_threshold,
    forest_leq,
    skeleton,
    sorted_candidate_edges,
    subtrees,
)

S = SCALE


def kruskal(edges, size: int, odd: int, parent: list[int] | None = None):
    """Kruskal's pass over ``edges``: yields (sq, u, v, odd) for each edge
    that joins two components, where ``odd`` is the number of odd
    components after it.

    ``edges`` yields (sq_length, u, v) in nondecreasing length over vertex
    ids below ``size``; ``odd`` is the number of vertices taking part, each
    an odd singleton at the start. ``sq`` is passed through unread, so a
    caller may put the edge's index in its place. An edge inside one
    component is skipped. ``parent``, when given, must be
    ``list(range(size))``; the pass runs its union-find in it, so the caller
    can read the components (``_roots``) where the pass stopped.
    """
    if parent is None:
        parent = list(range(size))
    weight = [1] * size
    for sq, u, v in edges:
        ru = u
        while parent[ru] != ru:
            parent[ru] = ru = parent[parent[ru]]
        rv = v
        while parent[rv] != rv:
            parent[rv] = rv = parent[parent[rv]]
        if ru == rv:
            continue
        wu, wv = weight[ru], weight[rv]
        odd -= 2 * (wu & wv & 1)
        if wu < wv:
            ru, rv = rv, ru
        parent[rv] = ru
        weight[ru] = wu + wv
        yield sq, u, v, odd


def rows(edges) -> list[tuple[int, int, int]]:
    """The arrays (sq, u, v) of sorted_candidate_edges as rows."""
    return list(zip(*(a.tolist() for a in edges)))


def built_tree(pts: PointSet, edges, vertices=None) -> Tree:
    """The Tree the forest builder makes of the (u, v) pairs ``edges``, with
    their exact squared lengths, as one component over ``vertices`` (the
    ends of the edges when None)."""
    ends = sorted((min(e), max(e)) for e in edges)
    u = np.array([a for a, _ in ends], dtype=np.int64)
    v = np.array([b for _, b in ends], dtype=np.int64)
    sq = np.empty(len(ends), dtype=object)
    sq[:] = [pts.sq_dist(a, b) for a, b in ends]
    if vertices is None:
        vertices = {x for e in ends for x in e}
    verts = np.array(sorted(vertices), dtype=np.int64)
    (tree,) = _build_forest(pts.n, u, v, sq, verts, np.zeros(pts.n, dtype=np.int64))
    return tree


def reference_shape_from_adj(pts: PointSet, vertices, adj):
    """The ``shape`` of the Tree the depth-first builder made of adjacency
    sets: sorted vertices and lists, lexicographic edges with recomputed
    lengths."""
    verts = tuple(sorted(vertices))
    tadj = {v: sorted(adj[v]) for v in verts}
    edge_sq = {}
    for v in verts:
        for u in tadj[v]:
            if v < u:
                edge_sq[(v, u)] = pts.sq_dist(v, u)
    return verts, tadj, edge_sq


def reference_component_trees(pts: PointSet, adj) -> list:
    """The shapes of the trees of the components of ``adj`` by depth-first
    search, ordered by their smallest vertex: the walk the forest builder
    replaced."""
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
        trees.append(reference_shape_from_adj(pts, comp, adj))
    return trees


def reference_even_forest(pts: PointSet):
    """(tree shapes, last_edge, last_sq) by the loop even_forest used to
    run."""
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
    assert all(len(nbrs) <= 5 for nbrs in adj.values())
    return reference_component_trees(pts, adj), last_edge, last_sq


def reference_emst5(pts: PointSet):
    """The shape of the tree emst5 used to build with its own union-find
    class."""
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
    assert all(len(nbrs) <= 5 for nbrs in adj.values())
    return reference_shape_from_adj(pts, range(n), adj)


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
    assert shape(emst5(pts)) == reference_emst5(pts)
    pts = PointSet(even(coords))
    if pts.n < 2:
        return
    ef = even_forest(pts)
    trees, last_edge, last_sq = reference_even_forest(pts)
    assert (ef.last_edge, ef.last_sq) == (last_edge, last_sq)
    assert list(map(shape, ef.forest.trees)) == trees
    barrier_steps(pts)


def wide_corpus():
    """The degenerate corpus scaled past a span of 2^62 and of 10^80, where
    squared lengths are object arrays of Python ints."""
    for scale, tag in ((2**62, "2^62"), (10**80, "10^80")):
        for name, coords in degenerate_corpus():
            yield f"{name}-x{tag}", [(x * scale - 3 * scale, y * scale + scale // 7) for x, y in coords]


@pytest.mark.parametrize(
    "name,coords", list(degenerate_corpus()) + list(wide_corpus()), ids=lambda v: v if isinstance(v, str) else ""
)
def test_consumers_equal_reference_loops(name, coords):
    check_consumers(coords)


def test_even_forest_leaves_out_a_later_edge_of_the_last_length():
    # A zigzag A-B-C-D of three edges of length 5, numbered so that AB =
    # (0, 2) and CD = (1, 3) come before BC = (2, 3) in (length, id) order:
    # the prefix is all-even after CD, so BC stays out although it is as
    # long, while the threshold forest at that length keeps it.
    pts = PointSet([(0, 0), (9, 4), (3, 4), (6, 0)])
    mst = emst5(pts)
    assert mst.edge_sq == {(0, 2): 25, (1, 3): 25, (2, 3): 25}
    ef = even_forest(pts)
    assert (ef.last_edge, ef.last_sq) == ((1, 3), 25)
    assert [t.edges() for t in ef.forest.trees] == [[(0, 2)], [(1, 3)]]
    assert even_threshold(mst) == 25
    assert [t.edges() for t in forest_leq(mst, 25, pts).trees] == [[(0, 2), (1, 3), (2, 3)]]
    trees, last_edge, last_sq = reference_even_forest(pts)
    assert (ef.last_edge, ef.last_sq) == (last_edge, last_sq)
    assert list(map(shape, ef.forest.trees)) == trees


@settings(max_examples=150, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40))
def test_consumers_equal_reference_loops_on_grid_subsets(cells):
    # A 7x7 grid: lengths tie everywhere, so the order in which Kruskal
    # takes equal edges decides the trees.
    check_consumers([(x * S, y * S) for x, y in cells])


def assert_built_tree(pts: PointSet, tree: Tree) -> None:
    """The views of a tree the forest builder made agree with its edge
    arrays: ``edge_sq`` is the arrays' items in lexicographic order, ``adj``
    is exactly the adjacency of those edges, and the forest's ``deg`` and
    ``int_deg`` count it."""
    u, v, sq = tree.u.tolist(), tree.v.tolist(), tree.sq.tolist()
    edges = list(zip(u, v))
    assert edges == sorted(edges) and all(a < b for a, b in edges)
    assert sq == [pts.sq_dist(a, b) for a, b in edges]
    assert list(tree.edge_sq.items()) == list(zip(edges, sq))
    assert list(tree.vertices) == sorted(tree.vertices) == list(tree.adj)
    nbrs = {x: [] for x in tree.vertices}
    for a, b in edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    assert tree.adj == {x: sorted(ys) for x, ys in nbrs.items()}
    assert len(edges) == max(tree.n - 1, 0)
    for x in tree.vertices:
        assert tree.deg[x] == len(tree.adj[x])
        assert tree.int_deg[x] == sum(len(tree.adj[y]) >= 2 for y in tree.adj[x])


def check_builder(coords, seed: int) -> None:
    """``assert_built_tree`` on every tree of emst5, skeleton, forest_leq,
    subtrees and even_forest."""
    pts = PointSet(coords)
    mst = emst5(pts)
    trees = [mst, skeleton(mst).tree]
    for limit in sorted(set(mst.sq.tolist())) + [-1]:
        trees += forest_leq(mst, limit, pts).trees
    rng = random.Random(seed)
    keep = np.array([rng.random() < 0.7 for _ in range(len(mst.u))], dtype=bool)
    drop = tuple(rng.sample(mst.vertices, min(2, mst.n)))
    trees += subtrees(pts, mst, keep=keep) + subtrees(pts, mst, drop=drop)
    if pts.n % 2 == 0:
        trees += even_forest(pts).forest.trees
    for tree in trees:
        assert_built_tree(pts, tree)


@pytest.mark.parametrize("name,coords", list(degenerate_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_built_trees_agree_with_their_arrays(name, coords):
    check_builder(coords, len(coords))


@settings(max_examples=100, deadline=None)
@given(st.sets(st.tuples(st.integers(0, 10**4), st.integers(0, 10**4)), min_size=1, max_size=40), st.integers(0, 2**32))
def test_built_trees_agree_with_their_arrays_on_random_sets(cells, seed):
    check_builder([(x * 997, y * 991) for x, y in cells], seed)


def test_barrier_sq_equals_reference_on_uniform_instances():
    steps = sum(barrier_steps(gen_points(300, seed, "uniform")) for seed in range(1, 81))
    assert steps >= 10


def wide_clusters(scale: int, dx: int, dy: int) -> PointSet:
    """``gen_points(2000, 1, "clustered")`` scaled and shifted past a span
    of 2^62."""
    base = gen_points(2000, 1, "clustered")
    pts = PointSet((x * scale + dx, y * scale + dy) for x, y in zip(base.xs, base.ys))
    assert pts.translated()[2] >= 2**62
    return pts


def unit_lattice(w: int, h: int) -> PointSet:
    return PointSet((x * S, y * S) for x in range(w) for y in range(h))


def emst5_inputs():
    """Generated points from 2k to 20k, unit lattices, where only the id
    order decides between edges of length 1, and spans past 2^62."""
    for n, seed in ((2000, 1), (6000, 2), (20000, 3)):
        for mode in ("uniform", "clustered"):
            yield f"{mode}-{n}-{seed}", partial(gen_points, n, seed, mode)
    for w, h in ((30, 20), (77, 80)):
        yield f"lattice-{w}x{h}", partial(unit_lattice, w, h)
    yield "clustered-2000-x2^50", partial(wide_clusters, 2**50, 2**70, -(2**66))
    yield "clustered-2000-x10^13", partial(wide_clusters, 10**13, -(10**30), 10**30)


@pytest.mark.parametrize("name,make", list(emst5_inputs()), ids=lambda v: v if isinstance(v, str) else "")
def test_emst5_equals_reference_on_larger_inputs(name, make):
    pts = make()
    assert shape(emst5(pts)) == reference_emst5(pts)


def components(label) -> list[int]:
    """The smallest id with the same root, for every id of a parent array."""
    root = _roots(label).tolist()
    first: dict[int, int] = {}
    return [first.setdefault(r, i) for i, r in enumerate(root)]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=90))
def test_boruvka_takes_the_edges_kruskal_takes_on_any_graph(n, pairs):
    # Repeated pairs, cycles, isolated ids and several components: the
    # index order alone decides.
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b and max(a, b) < n]
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    edges = (np.zeros(len(pairs), dtype=np.int64), u, v)
    parent = list(range(n))
    want = [i for i, _, _, _ in kruskal(zip(range(len(pairs)), u.tolist(), v.tolist()), n, n, parent)]
    taken, label = boruvka(n, edges)
    assert taken.tolist() == want
    assert np.array_equal(label[label], label)
    assert components(label) == components(parent)


def test_kruskal_yields_joining_edges_with_odd_counts():
    edges = [(1, 0, 1), (1, 2, 3), (2, 0, 1), (2, 1, 2), (3, 0, 3), (4, 4, 5)]
    assert list(kruskal(edges, 6, 6)) == [(1, 0, 1, 4), (1, 2, 3, 2), (2, 1, 2, 2), (4, 4, 5, 0)]
