"""The removal core ``udg._LiveTree`` and ``run_peeling`` over it, against
a reference copy of the peeling loop that kept its own removal state, and
against counts recomputed on the live subtree; and the point set's shared
``_PeelState`` against a fresh state per tree."""
from __future__ import annotations

import heapq
import math
import random
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planematch.bottleneck_one import critical_edge, first_approx, match_tree_first
from planematch.bottleneck_two import even_forest, match_tree_detailed, second_approx
from planematch.errors import InvariantViolation
from planematch.geometry import SCALE, PointSet, cross_ids
from planematch.matching import Matching
from planematch.proximity import Tree, emst5, skeleton
from planematch.udg import PeelResult, _LiveTree, _PeelState, run_peeling
from test_kruskal import degenerate_corpus

S = SCALE


def reference_run_peeling(
    pts: PointSet,
    tree: Tree,
    *,
    init_pairs: Sequence[tuple[int, int]] = (),
    forbidden: frozenset[int] = frozenset(),
    avoid: Optional[tuple[int, int]] = None,
) -> PeelResult:
    """run_peeling as it was before the removal core: its own alive set,
    adjacency, degree counts and skeleton-leaf heap."""
    vertices = tree.vertices
    alive = set(vertices)
    adj: dict[int, set[int]] = {v: set(tree.adj[v]) for v in vertices}
    deg = {v: len(adj[v]) for v in vertices}
    int_deg = {
        v: sum(1 for u in adj[v] if deg[u] >= 2) for v in vertices
    }
    heap = [v for v in vertices if deg[v] >= 2 and int_deg[v] <= 1]
    heapq.heapify(heap)
    in_heap = set(heap)

    def push(v: int) -> None:
        if v in alive and deg[v] >= 2 and int_deg[v] <= 1 and v not in in_heap:
            heapq.heappush(heap, v)
            in_heap.add(v)

    pairs = list(init_pairs)
    degrees: list[int] = []

    while heap:
        v = heapq.heappop(heap)
        in_heap.discard(v)
        if v not in alive or deg[v] < 2 or int_deg[v] > 1:
            continue
        leaves = tuple(sorted(u for u in adj[v] if deg[u] == 1))
        w = None
        for u in adj[v]:
            if deg[u] >= 2:
                w = u
                break
        matched = None
        for u in leaves:
            if u in forbidden or v in forbidden:
                continue
            if avoid is not None and cross_ids(pts, v, u, avoid[0], avoid[1]):
                continue
            matched = (v, u) if v < u else (u, v)
            break
        if matched is not None:
            pairs.append(matched)
        degrees.append(deg[v])
        for r in leaves:
            alive.discard(r)
            adj[r].clear()
        alive.discard(v)
        if w is not None:
            adj[w].discard(v)
            deg[w] -= 1
            int_deg[w] -= 1
            if deg[w] == 1:
                for t in adj[w]:
                    int_deg[t] -= 1
                    push(t)
            push(w)
        adj[v].clear()

    if len(alive) == 2:
        a, b = sorted(alive)
        if b not in adj[a]:
            raise InvariantViolation("leftover vertices are not adjacent")
        ok = a not in forbidden and b not in forbidden
        if ok and avoid is not None and cross_ids(pts, a, b, avoid[0], avoid[1]):
            ok = False
        if ok:
            pairs.append((a, b))
    elif len(alive) > 2:
        raise InvariantViolation(f"peeling left {len(alive)} vertices")

    return PeelResult(pairs=pairs, min_degree=min(degrees, default=None))


def seeds(tree: Tree, picks: Sequence[int]) -> list[dict]:
    """No keyword arguments, then all three built from the vertices at the
    given positions of ``tree.vertices``: a pre-matched, forbidden and
    avoided pair, and a further avoided segment with one forbidden end."""
    vs = tree.vertices
    p, q, a, b = (vs[i % len(vs)] for i in picks)
    out: list[dict] = [{}]
    if p != q:
        out.append(dict(init_pairs=[(min(p, q), max(p, q))], forbidden=frozenset((p, q)), avoid=(p, q)))
    if a != b:
        out.append(dict(forbidden=frozenset((a,)), avoid=(a, b)))
    return out


def check_against_reference(coords, picks) -> None:
    pts = PointSet(coords)
    tree = emst5(pts)
    for kw in seeds(tree, picks):
        assert run_peeling(pts, tree, **kw) == reference_run_peeling(pts, tree, **kw)


@pytest.mark.parametrize("name,coords", list(degenerate_corpus()), ids=lambda v: v if isinstance(v, str) else "")
def test_run_peeling_equals_reference_on_degenerate_corpus(name, coords):
    n = len(coords)
    check_against_reference(coords, (0, n // 2, n // 3, n - 1))


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40),
    st.lists(st.integers(0, 48), min_size=4, max_size=4),
)
def test_run_peeling_equals_reference_on_grid_subsets(cells, picks):
    # Equal lengths everywhere: many skeleton leaves tie in degree, so the
    # smallest-id pop order decides the rounds.
    check_against_reference([(x * S, y * S) for x, y in cells], picks)


def live_counts(tree: Tree, alive: set[int]):
    """(adjacency, deg, int_deg) of the live subtree, counted from scratch."""
    adj = {v: {u for u in tree.adj[v] if u in alive} for v in alive}
    deg = {v: len(adj[v]) for v in alive}
    int_deg = {v: sum(1 for u in adj[v] if deg[u] >= 2) for v in alive}
    return adj, deg, int_deg


def test_initial_skeleton_leaves_are_the_skeleton_reference():
    for _, coords in degenerate_corpus():
        pts = PointSet(coords)
        tree = emst5(pts)
        sk = skeleton(tree).tree
        expected = sorted(v for v in sk.vertices if len(sk.adj[v]) <= 1)
        assert list(iter(_LiveTree(tree, _PeelState(pts.n)).pop_leaf, None)) == expected


@settings(max_examples=150, deadline=None)
@given(
    st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=2, max_size=40),
    st.data(),
)
def test_remove_keeps_counts_of_the_live_subtree(cells, data):
    pts = PointSet([(x * S, y * S) for x, y in cells])
    tree = emst5(pts)
    live = _LiveTree(tree, _PeelState(pts.n))
    order = data.draw(st.permutations(tree.vertices))
    while order:
        k = data.draw(st.integers(1, 4))
        batch, order = order[:k], order[k:]
        before = {v: (live.deg[v], live.int_deg[v]) for v in live.live_vertices()}
        changed = live.remove(batch)
        alive = set(live.live_vertices())
        adj, deg, int_deg = live_counts(tree, alive)
        assert {v: set(live.nbrs(v)) for v in alive} == adj
        assert {v: live.deg[v] for v in alive} == deg
        assert {v: live.int_deg[v] for v in alive} == int_deg
        assert changed == {v for v in alive if before[v] != (deg[v], int_deg[v])}
        in_heap = {v for v in tree.vertices if live.in_heap[v]}
        assert {v for v in alive if deg[v] >= 2 and int_deg[v] <= 1} <= in_heap


def test_remove_rejects_duplicated_and_removed_vertices():
    pts = PointSet([(x * S, 0) for x in range(6)])
    tree = emst5(pts)
    live = _LiveTree(tree, _PeelState(pts.n))
    with pytest.raises(InvariantViolation):
        live.remove([2, 3, 2])
    live = _LiveTree(tree, _PeelState(pts.n))
    live.remove([0])
    with pytest.raises(InvariantViolation):
        live.remove([1, 0])


def far_pairs(k: int) -> PointSet:
    """k point pairs one unit apart on a grid of spacing 100: the even
    forest has one two-vertex tree per pair."""
    side = math.isqrt(k - 1) + 1
    coords = []
    for i in range(k):
        x, y = (i % side) * 100 * S, (i // side) * 100 * S
        coords += [(x, y), (x + S, y + (i % 7) * S // 10)]
    return PointSet(coords)


def blob_forest(seed: int) -> PointSet:
    """Far-apart random blobs of even sizes from 2 to 60: a forest of trees
    of many sizes and shapes."""
    rng = random.Random(seed)
    coords: set[tuple[int, int]] = set()
    for b in range(40):
        cx, cy = (b % 8) * 1000 * S, (b // 8) * 1000 * S
        target = len(coords) + 2 * rng.randint(1, 30)
        while len(coords) < target:
            coords.add((cx + rng.randrange(-10 * S, 10 * S), cy + rng.randrange(-10 * S, 10 * S)))
    return PointSet(sorted(coords))


def fresh(pts: PointSet) -> PointSet:
    """Drop the point set's peeling state, so the next peeling allocates
    its own."""
    pts._peel = None
    return pts


@pytest.fixture
def constructions(monkeypatch):
    """A list that gets one entry per ``_PeelState`` construction."""
    made: list[int] = []
    init = _PeelState.__init__

    def counting(self, n: int) -> None:
        made.append(n)
        init(self, n)

    monkeypatch.setattr(_PeelState, "__init__", counting)
    return made


@pytest.mark.parametrize(
    "make,n_trees", [(lambda: far_pairs(2000), 2000), (lambda: blob_forest(5), 40)], ids=["pairs", "blobs"]
)
def test_second_approx_equals_fresh_per_tree_runs(make, n_trees, constructions):
    pts = make()
    got = second_approx(pts)
    assert constructions == [pts.n]
    trees = even_forest(pts).forest.trees
    assert len(trees) == n_trees
    pairs = []
    for tree in trees:
        pairs += match_tree_detailed(fresh(pts), tree).pairs
    assert got == Matching.of(pts, pairs)


@pytest.mark.parametrize("make", [lambda: far_pairs(2000), lambda: blob_forest(6)], ids=["pairs", "blobs"])
def test_first_approx_equals_fresh_per_tree_runs(make, constructions):
    pts = make()
    got = first_approx(pts)
    assert constructions == [pts.n]
    ce = critical_edge(pts)
    seed_by_tree = {s.tree: s for s in ce.seeds}
    pairs = []
    for idx, tree in enumerate(ce.forest.trees):
        pairs += match_tree_first(fresh(pts), tree, seed_by_tree.get(idx)).pairs
    assert got == Matching.of(pts, pairs)


def with_chord(tree: Tree) -> Tree:
    """The tree plus an edge between its smallest and largest vertex: a
    cycle that peeling can never consume."""
    a, b = tree.vertices[0], tree.vertices[-1]
    adj = {v: sorted(tree.adj[v] + [b] * (v == a) + [a] * (v == b)) for v in tree.vertices}
    return Tree(vertices=tree.vertices, adj=adj, edge_sq=dict(tree.edge_sq))


def test_failed_tree_leaves_later_trees_unchanged():
    pts = blob_forest(7)
    trees = even_forest(pts).forest.trees
    expected = [match_tree_detailed(fresh(pts), t) for t in trees]
    expected_peel = [run_peeling(fresh(pts), t) for t in trees]
    fresh(pts)
    for i, tree in enumerate(trees):
        if tree.n < 8:
            continue
        # Both peelings stop part way, leaving the tree's vertices half removed.
        with pytest.raises(InvariantViolation):
            match_tree_detailed(pts, with_chord(tree))
        assert 0 < sum(not pts._peel.alive[v] for v in tree.vertices) < tree.n
        assert match_tree_detailed(pts, tree) == expected[i]
        with pytest.raises(InvariantViolation):
            run_peeling(pts, with_chord(tree))
        assert run_peeling(pts, tree) == expected_peel[i]
    assert [match_tree_detailed(pts, t) for t in trees] == expected


def test_remove_rejects_a_vertex_of_another_tree():
    pts = far_pairs(4)
    first, second = even_forest(pts).forest.trees[:2]
    state = _PeelState(pts.n)
    _LiveTree(first, state)
    live = _LiveTree(second, state)
    # The first tree's vertices are still flagged alive in the shared state.
    with pytest.raises(InvariantViolation):
        live.remove([first.vertices[0]])
