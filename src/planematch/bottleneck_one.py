"""First bottleneck approximation: a plane matching of size at least n/5
whose edges are no longer than the optimal plane-perfect-matching bottleneck.

The driver binary-searches the sorted MST edge lengths for the shortest
threshold the decision procedure cannot refute, which yields a forest of
even trees plus one stored seed pair per tree that has two leaves on a
common node. Each tree is then matched by skeleton peeling: a round that
sees degree at most four already meets the bound, and otherwise the run
restarts from the stored seed pair. The paper's third case, two leaves at
exactly pi/3 rewired into their equilateral edge, needs an exact pi/3
angle, which no two integer vectors make (see ``proximity.emst5``).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._nogc import nogc
from .errors import InvariantViolation, OddPointCount, SeedRequired
from .geometry import PointSet
from .matching import Matching
from .proximity import (
    Forest,
    Tree,
    emst5,
    even_threshold,
    forest_leq,
    second_closest_batch,
    subtrees,
)
from .udg import run_peeling


@dataclass(frozen=True)
class SeedTriple:
    """A stored leaf and its second-closest point within the same tree."""

    p: int
    p_prime: int
    tree: int


@dataclass
class CriticalEdgeResult:
    edge: tuple[int, int]
    sq_length: int
    forest: Forest
    seeds: list[SeedTriple]


def compare_to_opt(
    pts: PointSet, mst: Tree, sq_lambda: int, forest: Optional[Forest] = None
) -> Optional[list[SeedTriple]]:
    """Decision procedure for one threshold of the forest binary search.

    Returns None (refuted: the threshold is certainly below the optimal
    bottleneck) when some tree of the threshold forest has odd size, or when
    a tree with two leaves on one node stores a second-closest point outside
    that tree. Otherwise returns the list of stored seed triples.

    ``forest`` is the threshold forest ``forest_leq(mst, sq_lambda, pts)``
    when the caller has already built it; it is built here otherwise.
    """
    if pts.n % 2 != 0:
        raise OddPointCount(f"n must be even, got {pts.n}")
    if forest is None:
        forest = forest_leq(mst, sq_lambda, pts)
    trees = forest.trees
    if any(tree.n % 2 for tree in trees):
        return None
    checks = _two_leaf_hubs(trees)
    if not checks:
        return []
    queries = []
    for _, v, p, q in checks:
        queries.append((p, v))
        queries.append((q, v))
    answers = second_closest_batch(pts, queries)
    seeds: list[SeedTriple] = []
    for row, (idx, v, p, q) in enumerate(checks):
        pp = answers[2 * row]
        qq = answers[2 * row + 1]
        if (pts.sq_dist(p, pp), 0) <= (pts.sq_dist(q, qq), 1):
            leaf, other = p, pp
        else:
            leaf, other = q, qq
        if other not in trees[idx].adj:
            return None
        seeds.append(SeedTriple(p=leaf, p_prime=other, tree=idx))
    return seeds


def _two_leaf_hubs(trees: list[Tree]) -> list[tuple[int, int, int, int]]:
    """(tree index, v, p, q) for each tree with a vertex that has two leaf
    neighbours: its smallest such vertex v and v's two smallest leaf
    neighbours p < q, in tree order.

    Read off the trees' edge arrays: the (vertex, leaf neighbour) pairs
    sorted by vertex, then leaf; a vertex qualifies when its run of pairs
    goes on past the first.
    """
    u = np.concatenate([tree.u for tree in trees])
    v = np.concatenate([tree.v for tree in trees])
    label = np.repeat(np.arange(len(trees)), [len(tree.u) for tree in trees])
    deg = np.bincount(np.concatenate((u, v)))
    to_leaf, from_leaf = deg[v] == 1, deg[u] == 1
    hub = np.concatenate((u[to_leaf], v[from_leaf]))
    leaf = np.concatenate((v[to_leaf], u[from_leaf]))
    tree = np.concatenate((label[to_leaf], label[from_leaf]))
    by = np.lexsort((leaf, hub))
    hub, leaf, tree = hub[by], leaf[by], tree[by]
    run = np.r_[True, hub[1:] != hub[:-1]]
    two = np.flatnonzero(run[:-1] & ~run[1:])
    # The smallest such vertex of a tree is its first in vertex order.
    _, first = np.unique(tree[two], return_index=True)
    two = two[first]
    return list(zip(tree[two].tolist(), hub[two].tolist(), leaf[two].tolist(), leaf[two + 1].tolist()))


def critical_edge(pts: PointSet) -> CriticalEdgeResult:
    """Shortest MST edge length whose threshold forest survives the decision
    procedure, together with that forest and its stored seeds.

    The full MST always survives, so the binary search over the sorted
    distinct edge lengths is well defined and ends at most at the optimal
    bottleneck. The even threshold (``even_threshold``, the longest edge
    with an odd subtree below it in the rooted MST) is the shortest length
    whose forest has no odd tree; every probe below it is refuted without
    building a forest, exactly as ``compare_to_opt`` would refute it, and
    every other probe calls ``compare_to_opt`` on ``forest_leq``'s forest,
    which is labelled from the same rooting. The probe answers, and hence
    the search, are those of probing every length. The forest returned is
    the one the probe at the answer built, and the edge is the
    lexicographically first MST edge of the answer's length.
    """
    n = pts.n
    if n % 2 != 0:
        raise OddPointCount(f"n must be even, got {n}")
    if n < 2:
        raise OddPointCount("need at least 2 points")
    mst = emst5(pts)
    lengths = np.sort(mst.sq)
    lengths = lengths[np.append(True, lengths[1:] != lengths[:-1])].tolist()
    even_sq = even_threshold(mst)
    # (seeds, forest) per probed index; forest is None when no forest was built.
    results: dict[int, tuple[Optional[list[SeedTriple]], Optional[Forest]]] = {}

    def probe(i: int) -> tuple[Optional[list[SeedTriple]], Optional[Forest]]:
        if i not in results:
            if lengths[i] < even_sq:
                results[i] = (None, None)
            else:
                forest = forest_leq(mst, lengths[i], pts)
                results[i] = (compare_to_opt(pts, mst, lengths[i], forest), forest)
        return results[i]

    lo, hi = 0, len(lengths) - 1
    if probe(lo)[0] is not None:
        hi = lo
    else:
        # Invariant: probe(lo) is refuted, probe(hi) is not.
        if probe(hi)[0] is None:
            raise InvariantViolation("the full MST forest was refuted")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if probe(mid)[0] is None:
                lo = mid
            else:
                hi = mid
    seeds, forest = probe(hi)
    sq = lengths[hi]
    # The edge arrays are in lexicographic order.
    at = int(np.argmax(mst.sq == sq))
    edge = (int(mst.u[at]), int(mst.v[at]))
    return CriticalEdgeResult(edge=edge, sq_length=sq, forest=forest, seeds=seeds)


def match_tree_first(
    pts: PointSet, tree: Tree, seed: Optional[SeedTriple] = None
) -> Matching:
    """Plane matching of one even tree with at least n/5 of its vertices'
    pairs, every edge bounded by the tree's longest edge or the seed pair.

    Plain peeling suffices whenever some round sees degree at most four.
    Otherwise the peeling restarts pre-matched with the seed pair, either
    avoiding edges that cross it (seed partner is a leaf) or splitting the
    tree at the seed partner and peeling the parts.
    """
    if tree.n == 0:
        return Matching.of(pts, [])
    base = run_peeling(pts, tree)
    if tree.n <= 2 or base.min_degree <= 4:
        return Matching.of(pts, base.pairs)
    if seed is None:
        raise SeedRequired("every peeling round had degree five; a seed pair is required")
    p, pp = seed.p, seed.p_prime
    seed_pair = (min(p, pp), max(p, pp))
    if len(tree.adj[pp]) == 1:
        res = run_peeling(
            pts,
            tree,
            init_pairs=[seed_pair],
            forbidden=frozenset((p, pp)),
            avoid=(p, pp),
        )
        return Matching.of(pts, res.pairs)
    # Seed partner is internal: split the tree there, drop the matched leaf,
    # and peel every part while still avoiding the seed segment.
    parts = subtrees(pts, tree, drop=(p, pp))
    pairs: list[tuple[int, int]] = [seed_pair]
    for part in parts:
        sub = run_peeling(pts, part, avoid=(p, pp))
        pairs.extend(sub.pairs)
    return Matching.of(pts, pairs)


@nogc
def first_approx(pts: PointSet, seed_source: str = "critical") -> Matching:
    """Plane matching of size at least n/5 with bottleneck at most the
    optimal plane bottleneck.

    ``seed_source`` selects where restart seeds come from: "critical" uses
    the binary-search decision procedure; "crossing" derives the forest from
    the crossing bottleneck matching and seeds from its leaf-leaf edges.
    """
    n = pts.n
    if n % 2 != 0:
        raise OddPointCount(f"n must be even, got {n}")
    if n == 0:
        return Matching.of(pts, [])
    if seed_source == "critical":
        ce = critical_edge(pts)
        forest = ce.forest
        seed_by_tree = {s.tree: s for s in ce.seeds}
    elif seed_source == "crossing":
        from .blossom import bottleneck_crossing

        bc = bottleneck_crossing(pts)
        mst = emst5(pts)
        forest = forest_leq(mst, bc.bottleneck_sq, pts)
        owner = forest.tree_of()
        seed_by_tree = {}
        for a, b in bc.matching.pairs:
            ta = owner[a]
            if owner[b] != ta or ta in seed_by_tree:
                continue
            tr = forest.trees[ta]
            if len(tr.adj[a]) == 1 and len(tr.adj[b]) == 1:
                seed_by_tree[ta] = SeedTriple(p=a, p_prime=b, tree=ta)
    else:
        raise ValueError(f"unknown seed_source {seed_source!r}")

    pairs: list[tuple[int, int]] = []
    for idx, tree in enumerate(forest.trees):
        m = match_tree_first(pts, tree, seed_by_tree.get(idx))
        pairs.extend(m.pairs)
    return Matching.of(pts, pairs)
