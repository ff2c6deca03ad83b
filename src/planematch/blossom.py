"""Maximum-cardinality matching in general graphs (blossom shrinking) and
the possibly-crossing bottleneck perfect matching built on top of it.

The matcher is the classic augmenting-path algorithm with blossom
contraction via base pointers; worst case O(V^3). The crossing bottleneck
lies between the last edge L of the even prefix of the complete graph's
Kruskal order and 2L. The search probes L first; on uniform inputs L is
usually feasible, and one blossom run decides. Otherwise a Tutte barrier
read off the failed augmenting-path search names the next length at which
a perfect matching can exist, and the search jumps there.
"""
from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import dataclass

import numpy as np

from ._nogc import nogc
from .errors import InvariantViolation, OddPointCount
from .geometry import PointSet
from .matching import Matching
from .proximity import disk_graph, pairs_within


@dataclass(frozen=True)
class AbstractGraph:
    """A simple undirected graph with no geometry attached."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    @classmethod
    def from_edges(cls, n: int, edges) -> "AbstractGraph":
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                continue
            adj[u].add(v)
            adj[v].add(u)
        return cls(n=n, adj=tuple(tuple(sorted(a)) for a in adj))


def _searcher(n: int, adj, match: list[int]):
    """Edmonds' augmenting-path search from one root at a time, with
    blossom contraction via base pointers.

    Returns (find_path, used, tree). ``find_path(root)`` augments ``match``
    in place along a path from the exposed vertex ``root`` and returns
    True, or returns False; the vertices it reached are then in ``tree``,
    and ``used`` marks those an even alternating path from the root reaches.
    """
    p = [-1] * n
    base = list(range(n))
    used = [False] * n
    # Vertices the current search has reached, which are the only ones to
    # reset, and the reached vertices of each blossom base.
    tree: list[int] = []
    members: dict[int, list[int]] = {}

    def lca(a: int, b: int) -> int:
        on_path = set()
        x = a
        while True:
            x = base[x]
            on_path.add(x)
            if match[x] == -1:
                break
            x = p[match[x]]
        y = b
        while True:
            y = base[y]
            if y in on_path:
                return y
            y = p[match[y]]

    def mark_path(v: int, b: int, child: int, blossom: set) -> None:
        while base[v] != b:
            blossom.add(base[v])
            blossom.add(base[match[v]])
            p[v] = child
            child = match[v]
            v = p[match[v]]

    def find_path(root: int) -> bool:
        for i in tree:
            used[i] = False
            p[i] = -1
            base[i] = i
        tree.clear()
        members.clear()
        tree.append(root)
        members[root] = [root]
        used[root] = True
        q = deque([root])
        while q:
            v = q.popleft()
            for to in adj[v]:
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or (match[to] != -1 and p[match[to]] != -1):
                    curbase = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, curbase, to, blossom)
                    mark_path(to, curbase, v, blossom)
                    inside: list[int] = []
                    for b in blossom:
                        inside.extend(members.pop(b))
                    # Queued in index order: the matching found depends on
                    # the queue order.
                    inside.sort()
                    for i in inside:
                        base[i] = curbase
                        if not used[i]:
                            used[i] = True
                            q.append(i)
                    members.setdefault(curbase, []).extend(inside)
                elif p[to] == -1:
                    p[to] = v
                    tree.append(to)
                    members[to] = [to]
                    if match[to] == -1:
                        # Augment along the alternating path to the root.
                        u = to
                        while u != -1:
                            pv = p[u]
                            ppv = match[pv]
                            match[u] = pv
                            match[pv] = u
                            u = ppv
                        return True
                    used[match[to]] = True
                    tree.append(match[to])
                    members[match[to]] = [match[to]]
                    q.append(match[to])
        return False

    return find_path, used, tree


def max_matching_pairs(n: int, adj) -> list[tuple[int, int]]:
    """Maximum-cardinality matching as a sorted list of vertex pairs."""
    match = [-1] * n

    # Greedy initialization cuts down the number of augmenting searches.
    for v in range(n):
        if match[v] == -1:
            for u in adj[v]:
                if match[u] == -1:
                    match[v] = u
                    match[u] = v
                    break

    find_path, _, _ = _searcher(n, adj, match)
    # A search that finds no augmenting path from a vertex finds none after
    # later augmentations either, and any path from the last exposed vertex
    # would end at an earlier one; so that last search is skipped.
    exposed = [v for v in range(n) if match[v] == -1]
    for k, v in enumerate(exposed):
        if match[v] == -1 and any(match[u] == -1 for u in exposed[k + 1:]):
            find_path(v)
    return sorted((v, match[v]) for v in range(n) if match[v] > v)


def tutte_barrier(n: int, adj, pairs) -> list[int]:
    """A Tutte barrier of the graph given a maximum matching ``pairs`` with
    an exposed vertex: a vertex set A whose removal leaves more than |A|
    odd components, so no perfect matching exists.

    A is the set of inner vertices of the failed augmenting-path search from
    an exposed vertex. When that search ends, every edge from its outer
    vertices goes to an inner vertex or stays inside one blossom, so each of
    its blossoms, which have an odd number of vertices, is a component of
    the graph minus A; there is one blossom more than there are inner
    vertices. Of the exposed vertices' searches the one with the fewest
    inner vertices is taken: removing less of the graph, it tends to keep
    more odd components apart for longer as the radius grows.
    """
    match = _mates(n, pairs)
    find_path, used, tree = _searcher(n, adj, match)
    best = None
    for root in range(n):
        if match[root] != -1:
            continue
        if find_path(root):
            raise InvariantViolation("tutte_barrier needs a maximum matching")
        inner = [i for i in tree if not used[i]]
        if best is None or len(inner) < len(best):
            best = inner
    return best


def max_matching(g: AbstractGraph) -> tuple[tuple[int, int], ...]:
    """Maximum-cardinality matching of an abstract graph."""
    return tuple(max_matching_pairs(g.n, g.adj))


@dataclass(frozen=True)
class BottleneckCrossingResult:
    """Minimum bottleneck over all (possibly crossing) perfect matchings,
    with the certified lower end ``lower_sq`` = L^2 of its bracket
    [L^2, 4 L^2]."""

    bottleneck_sq: int
    matching: Matching
    lower_sq: int


# Rows per step when window arrays become Python rows for the odd-count
# pass, which often stops long before the end.
_ROW_CHUNK = 4096


class _Window:
    """The pairs of a point set at squared distance at most ``sq_radius``,
    held as the arrays (sq, u, v) of ``pairs_within`` (sorted by (sq, u,
    v)); the radius grows on demand up to ``top_sq``: the whole span while
    ``_crossing_bracket`` looks for L, then 4 L^2, beyond which no probe
    goes. Python rows are made only for the odd-count pass
    (``barrier_sq``) and the edges ``extend`` adds."""

    def __init__(self, pts: PointSet, pairs: tuple, sq_radius: int, top_sq: int):
        self.pts, self.pairs, self.sq_radius, self.top_sq = pts, pairs, sq_radius, top_sq

    def _after(self, sq: int) -> int:
        return int(np.searchsorted(self.pairs[0], sq, side="right"))

    def _grow(self) -> bool:
        if self.sq_radius >= self.top_sq:
            return False
        self.sq_radius = min(2 * self.sq_radius, self.top_sq)
        self.pairs = pairs_within(self.pts, self.sq_radius)
        return True

    def extend(self, adj, sq_from: int, sq_to: int) -> None:
        """Grow the sorted adjacency lists ``adj`` of the disk graph at
        squared radius ``sq_from`` in place to those of the one at ``sq_to``,
        which is within the window."""
        _, u, v = self.pairs
        part = slice(self._after(sq_from), self._after(sq_to))
        for a, b in zip(u[part].tolist(), v[part].tolist()):
            insort(adj[a], b)
            insort(adj[b], a)

    def barrier_sq(self, barrier: list[int]) -> int:
        """The first squared length at which removing ``barrier`` from the
        disk graph leaves at most |barrier| odd components.

        By the Tutte-Berge formula no disk graph below that length has a
        perfect matching. For the empty barrier it is the even-prefix
        length L; for a barrier of a failed probe the disk graph at 4 L^2
        has a perfect matching, so the pass ends in the window.

        Kruskal's pass over the pairs with no end in the barrier, in (sq,
        u, v) order, from the n - |barrier| odd singletons. An edge inside
        one component is skipped, which keeps the count right on graphs
        with cycles. Merging two even or two odd components leaves no new
        odd one, so the count never rises, and the first edge that brings
        it to |barrier| has the answer's length. The rows are made a chunk
        at a time; when the window runs out, it doubles its squared radius
        and the pass goes on with the pairs beyond the radius already read.
        """
        n, spare = self.pts.n, len(barrier)
        odd = n - spare
        parent = list(range(n))
        weight = [1] * n
        cut = np.zeros(n, dtype=bool)
        cut[barrier] = True
        start = 0
        while True:
            sq, u, v = (col[start:] for col in self.pairs)
            if spare:
                keep = ~(cut[u] | cut[v])
                sq, u, v = sq[keep], u[keep], v[keep]
            for lo in range(0, len(u), _ROW_CHUNK):
                hi = lo + _ROW_CHUNK
                for s, a, b in zip(sq[lo:hi].tolist(), u[lo:hi].tolist(), v[lo:hi].tolist()):
                    while parent[a] != a:
                        parent[a] = a = parent[parent[a]]
                    while parent[b] != b:
                        parent[b] = b = parent[parent[b]]
                    if a == b:
                        continue
                    wa, wb = weight[a], weight[b]
                    if wa & wb & 1:
                        odd -= 2
                        if odd <= spare:
                            return s
                    if wa < wb:
                        a, b = b, a
                    parent[b] = a
                    weight[a] = wa + wb
            swept = self.sq_radius
            if not self._grow():
                raise InvariantViolation("no length in the window leaves few enough odd components")
            start = self._after(swept)


def _crossing_bracket(pts: PointSet) -> tuple[int, _Window]:
    """(L^2, a window of the pairs up to 4 L^2 by length).

    L is the last edge of the even prefix of the complete graph's Kruskal
    order. Below L some threshold component is odd, so no perfect matching
    exists there. The square of an even tree has a perfect matching, and by
    the triangle inequality its edges are at most 2L, so the crossing
    bottleneck is one of the distances in [L, 2L].

    L is the barrier length of the empty barrier (``_Window.barrier_sq``):
    the first length that leaves no odd component. Only short pairs are
    listed, as the arrays of ``pairs_within``: the window starts at a radius
    of 2.5 times the mean point spacing, which covers L on uniform inputs,
    and may grow up to the whole span while the pass looks for L.
    """
    n = pts.n
    width = max(pts.xs) - min(pts.xs)
    height = max(pts.ys) - min(pts.ys)
    sq_radius = 25 * max(width * height // n, (max(width, height) // n) ** 2, 1) // 4
    span_sq = width * width + height * height
    window = _Window(pts, pairs_within(pts, sq_radius), sq_radius, span_sq)
    lower_sq = window.barrier_sq([])
    window.top_sq = 4 * lower_sq
    return lower_sq, window


def _mates(n: int, pairs) -> list[int]:
    """Each vertex's mate in ``pairs``, -1 if it has none."""
    mate = [-1] * n
    for a, b in pairs:
        mate[a], mate[b] = b, a
    return mate


@nogc
def bottleneck_crossing(pts: PointSet) -> BottleneckCrossingResult:
    """Minimum lambda among the pairwise distances such that the disk graph
    of radius lambda admits a perfect matching, plus a witness matching.

    lambda lies in [L, 2L] for the even-prefix length L
    (``_crossing_bracket``). The search probes L first; on uniform inputs L
    is usually feasible and its blossom matching is the witness. Otherwise
    the maximum matching of the last probe names a Tutte barrier A
    (``tutte_barrier``): while removing A leaves more than |A| odd
    components, no perfect matching exists, so the next probe is the first
    length at which that count falls to |A| (``_Window.barrier_sq``). Each
    probe lies strictly above the last and at most at lambda, so the first
    feasible one is lambda, and its blossom matching of the disk graph at
    lambda is the witness.
    """
    n = pts.n
    if n % 2 != 0:
        raise OddPointCount(f"n must be even, got {n}")
    if n == 0:
        return BottleneckCrossingResult(0, Matching.of(pts, []), 0)
    lower_sq, window = _crossing_bracket(pts)
    sq_radius = lower_sq
    adj = disk_graph(pts, sq_radius).adj
    pairs = max_matching_pairs(n, adj)
    while len(pairs) * 2 < n:
        next_sq = window.barrier_sq(tutte_barrier(n, adj, pairs))
        # adj stays equal to disk_graph(pts, sq_radius).adj.
        window.extend(adj, sq_radius, next_sq)
        sq_radius = next_sq
        pairs = max_matching_pairs(n, adj)
    return BottleneckCrossingResult(sq_radius, Matching.of(pts, pairs), lower_sq)
