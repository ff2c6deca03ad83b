"""Plane matchings in unit disk graphs.

Two algorithms: a rotation-plus-direction-partition construction that keeps
at least a third of any (possibly crossing) matching while never lengthening
its bottleneck, and a skeleton-peeling matching of the degree-bounded MST of
a connected unit disk graph with at least (n-1)/5 edges.

One removal core, ``_LiveTree``, tracks the live tree under vertex removal:
degrees, internal degrees and a heap of skeleton leaves. ``run_peeling`` is
a thin driver over it, which the first bottleneck approximation reruns with
a pre-matched seed pair, forbidden vertices and a segment that matched edges
must avoid crossing; the second approximation's tree matcher builds on the
same core.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import DisconnectedInput, InvariantViolation
from .geometry import SCALE, PointSet, cross_ids, sort_clockwise
from .matching import Matching, _crossing_candidates
from .proximity import Tree, disk_graph, emst5


@dataclass(frozen=True)
class RotationStep:
    removed: tuple[tuple[int, int], tuple[int, int]]
    added: tuple[tuple[int, int], tuple[int, int]]
    total_before: float
    total_after: float


@dataclass
class RotationTrace:
    steps: list[RotationStep] = field(default_factory=list)
    capped: bool = False
    class_sizes: tuple[int, int, int] = (0, 0, 0)


def _direction_class(pts: PointSet, a: int, b: int) -> int:
    """Class index 0/1/2 of the edge direction within [0, pi).

    Classes are [0, pi/3), [pi/3, 2pi/3), [2pi/3, pi); the pi/3 boundary
    goes to the middle class, all decided exactly.
    """
    dx = pts.xs[b] - pts.xs[a]
    dy = pts.ys[b] - pts.ys[a]
    if dy < 0 or (dy == 0 and dx < 0):
        dx, dy = -dx, -dy
    if dx > 0 and dy * dy < 3 * dx * dx:
        return 0
    if dx < 0 and dy * dy <= 3 * dx * dx:
        return 2
    return 1


def _rotation_pairing(pts: PointSet, e1, e2):
    """If the two crossing edges meet at a smallest angle <= pi/3, return the
    replacement pairing; otherwise None. Exact integer tests only."""
    p, q = e1
    r, s = e2
    ux = pts.xs[p] - pts.xs[q]
    uy = pts.ys[p] - pts.ys[q]
    vx = pts.xs[r] - pts.xs[s]
    vy = pts.ys[r] - pts.ys[s]
    d = ux * vx + uy * vy
    lhs = 4 * d * d
    rhs = (ux * ux + uy * uy) * (vx * vx + vy * vy)
    if lhs < rhs:
        return None
    if d > 0:
        return (p, r), (q, s)
    return (p, s), (q, r)


def _total_length(pts: PointSet, pairs) -> float:
    return sum(math.sqrt(pts.sq_dist(a, b)) for a, b in pairs) / SCALE


def one_third(
    pts: PointSet, m: Matching, cap: Optional[int] = None
) -> tuple[Matching, RotationTrace]:
    """Plane matching of size at least ceil(|m|/3) with bottleneck at most
    the bottleneck of ``m``.

    Crossing pairs meeting at an angle of at most pi/3 are re-paired (which
    strictly shrinks total length), then the fixpoint is partitioned into
    three direction classes and the largest class is returned. If the
    rotation cap fires, the trace is flagged and the largest class is
    greedily planarized instead, preserving planarity but not the bound.

    The rotatable pairs (e, f), e < f, are kept in a table filled once from
    the grid of ``_crossing_candidates``. Each rotation takes the smallest,
    which is the first pair a row-major rescan of the sorted edges would
    find; afterwards only the two new edges are tested against the others
    whose bounding boxes meet theirs.
    """
    covered = m.covered()
    if len(covered) != 2 * m.size:
        raise InvariantViolation("input pairs share vertices")
    if cap is None:
        cap = 10 * pts.n**3
    pairs = sorted(m.pairs)
    trace = RotationTrace()
    xs, ys = pts.xs, pts.ys

    def box(e) -> tuple[int, int, int, int]:
        (xa, xb), (ya, yb) = sorted((xs[e[0]], xs[e[1]])), sorted((ys[e[0]], ys[e[1]]))
        return xa, ya, xb, yb

    boxes = {e: box(e) for e in pairs}
    table: dict = {}

    def record(e, f) -> None:
        """Table the pair e < f if the two edges cross at an angle <= pi/3."""
        if cross_ids(pts, *e, *f):
            repl = _rotation_pairing(pts, e, f)
            if repl is not None:
                table[e, f] = repl

    for i, j in _crossing_candidates(pts, pairs):
        record(pairs[i], pairs[j])
    total = _total_length(pts, pairs)
    while table:
        e, f = min(table)
        repl = table[e, f]
        before = total
        new1 = tuple(sorted(repl[0]))
        new2 = tuple(sorted(repl[1]))
        pairs.remove(f)
        pairs.remove(e)
        pairs.append(new1)
        pairs.append(new2)
        pairs.sort()
        # Re-summed in pair order, so each step's floats are what summing
        # that matching gives; the next step starts from the same sum.
        total = _total_length(pts, pairs)
        trace.steps.append(
            RotationStep(removed=(e, f), added=(new1, new2), total_before=before, total_after=total)
        )
        if len(trace.steps) >= cap:
            trace.capped = True
            break
        for key in [k for k in table if e in k or f in k]:
            del table[key]
        # The new edges lie in opposite cones at the old crossing point, so
        # they cannot cross each other. Crossing edges have meeting boxes.
        boxes[new1], boxes[new2] = box(new1), box(new2)
        for new in (new1, new2):
            x0, y0, x1, y1 = boxes[new]
            for g in pairs:
                gx0, gy0, gx1, gy1 = boxes[g]
                if gx0 <= x1 and x0 <= gx1 and gy0 <= y1 and y0 <= gy1 and g != new1 and g != new2:
                    record(min(new, g), max(new, g))

    classes: list[list[tuple[int, int]]] = [[], [], []]
    for pair in pairs:
        classes[_direction_class(pts, *pair)].append(pair)
    trace.class_sizes = tuple(len(c) for c in classes)
    best = max(range(3), key=lambda i: (len(classes[i]), -i))
    chosen = classes[best]
    if trace.capped:
        kept: list[tuple[int, int]] = []
        for pair in chosen:
            if all(not cross_ids(pts, *pair, *other) for other in kept):
                kept.append(pair)
        chosen = kept
    return Matching.of(pts, chosen), trace


@dataclass(frozen=True)
class PeelIteration:
    """One round of skeleton peeling: the picked skeleton leaf, its degree,
    its internal neighbour, and its leaf neighbours at that moment."""

    v: int
    deg: int
    internal_nbr: Optional[int]
    leaves: tuple[int, ...]
    matched: Optional[tuple[int, int]]


@dataclass
class PeelResult:
    pairs: list[tuple[int, int]]
    iterations: list[PeelIteration]
    final_edge: Optional[tuple[int, int]]
    final_edge_skipped: bool
    skipped: int


class _LiveTree:
    """The live part of a tree under vertex removal.

    Keeps the adjacency sets of the live vertices, their degrees ``deg``
    and internal degrees ``int_deg`` (live neighbours that are not leaves),
    and a min-heap of skeleton leaves: live vertices with deg >= 2 and
    int_deg <= 1. The heap is lazy; ``remove`` pushes every vertex whose
    counts change, so ``pop_leaf`` returns the smallest skeleton leaf.
    """

    def __init__(self, tree: Tree):
        vertices = tree.vertices
        self.alive = set(vertices)
        self.adj: dict[int, set[int]] = {v: set(tree.adj[v]) for v in vertices}
        deg = self.deg = {v: len(self.adj[v]) for v in vertices}
        self.int_deg = {v: sum(1 for u in self.adj[v] if deg[u] >= 2) for v in vertices}
        self.heap = [v for v in vertices if self.is_skeleton_leaf(v)]
        heapq.heapify(self.heap)
        self.in_heap = set(self.heap)

    def is_skeleton_leaf(self, v: int) -> bool:
        return v in self.alive and self.deg[v] >= 2 and self.int_deg[v] <= 1

    def pop_leaf(self) -> Optional[int]:
        """Pop the smallest live skeleton leaf, or None when there is none."""
        while self.heap:
            v = heapq.heappop(self.heap)
            self.in_heap.discard(v)
            if self.is_skeleton_leaf(v):
                return v
        return None

    def leaves_of(self, v: int) -> list[int]:
        return sorted(u for u in self.adj[v] if self.deg[u] == 1)

    def internal_nbr(self, v: int) -> Optional[int]:
        for u in self.adj[v]:
            if self.deg[u] >= 2:
                return u
        return None

    def remove(self, batch: Sequence[int]) -> set[int]:
        """Delete the vertices one at a time and return the live vertices
        whose ``deg`` or ``int_deg`` changed, after pushing them."""
        alive, adj, deg, int_deg = self.alive, self.adj, self.deg, self.int_deg
        changed: set[int] = set()
        for r in batch:
            if r not in alive:
                raise InvariantViolation(f"vertex {r} is removed twice or not in the tree")
            alive.discard(r)
            internal = deg[r] >= 2
            for s in adj[r]:
                nbrs = adj[s]
                nbrs.discard(r)
                changed.add(s)
                if internal:
                    int_deg[s] -= 1
                deg[s] -= 1
                if deg[s] == 1:
                    # s became a leaf, so its last neighbour lost an internal one.
                    for t in nbrs:
                        int_deg[t] -= 1
                        changed.add(t)
            adj[r].clear()
        changed &= alive
        for v in changed:
            if v not in self.in_heap and self.is_skeleton_leaf(v):
                heapq.heappush(self.heap, v)
                self.in_heap.add(v)
        return changed


def run_peeling(
    pts: PointSet,
    tree: Tree,
    *,
    init_pairs: Sequence[tuple[int, int]] = (),
    forbidden: frozenset[int] = frozenset(),
    avoid: Optional[tuple[int, int]] = None,
) -> PeelResult:
    """Skeleton peeling on a tree.

    Repeatedly picks the smallest-id leaf of the skeleton, matches its tree
    vertex to the smallest eligible adjacent tree leaf, and removes the
    vertex together with all its adjacent leaves. ``forbidden`` vertices are
    never matched; candidate edges crossing ``avoid`` are skipped. A leftover
    single edge is appended when present.
    """
    live = _LiveTree(tree)
    pairs = list(init_pairs)
    iterations: list[PeelIteration] = []
    skipped = 0

    while (v := live.pop_leaf()) is not None:
        leaves = tuple(live.leaves_of(v))
        w = live.internal_nbr(v)
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
        else:
            skipped += 1
        iterations.append(
            PeelIteration(
                v=v, deg=live.deg[v], internal_nbr=w, leaves=leaves, matched=matched
            )
        )
        live.remove((v, *leaves))

    final_edge = None
    final_skipped = False
    alive = live.alive
    if len(alive) == 2:
        a, b = sorted(alive)
        if b not in live.adj[a]:
            raise InvariantViolation("leftover vertices are not adjacent")
        ok = a not in forbidden and b not in forbidden
        if ok and avoid is not None and cross_ids(pts, a, b, avoid[0], avoid[1]):
            ok = False
        if ok:
            final_edge = (a, b)
            pairs.append(final_edge)
        else:
            final_skipped = True
    elif len(alive) > 2:
        raise InvariantViolation(f"peeling left {len(alive)} vertices")

    return PeelResult(
        pairs=pairs,
        iterations=iterations,
        final_edge=final_edge,
        final_edge_skipped=final_skipped,
        skipped=skipped,
    )


def _connected(adj: list[list[int]]) -> bool:
    n = len(adj)
    if n == 0:
        return True
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def plane_matching(pts: PointSet) -> Matching:
    """Plane matching of the degree-bounded MST of a connected unit disk
    graph, of size at least (n-1)/5.

    Requires every point within unit distance of some other point such that
    the whole unit disk graph is connected.
    """
    g = disk_graph(pts, SCALE * SCALE)
    if not _connected(g.adj):
        raise DisconnectedInput("unit disk graph is not connected")
    tree = emst5(pts)
    res = run_peeling(pts, tree)
    return Matching.of(pts, res.pairs)


def consecutive_leaf_pairs(
    pts: PointSet, it: PeelIteration
) -> list[tuple[int, int]]:
    """Leaf pairs consecutive in clockwise order around the peeled vertex.

    With an internal neighbour the order starts just after it and does not
    wrap; for a pure star every cyclic pair is consecutive.
    """
    v = it.v
    if it.internal_nbr is not None:
        order = sort_clockwise(pts, v, list(it.leaves), it.internal_nbr)
        return [(order[i], order[i + 1]) for i in range(len(order) - 1)]
    if len(it.leaves) < 2:
        return []
    anchor = it.leaves[0]
    rest = [u for u in it.leaves if u != anchor]
    order = [anchor] + sort_clockwise(pts, v, rest, anchor)
    k = len(order)
    return [(order[i], order[(i + 1) % k]) for i in range(k)]
