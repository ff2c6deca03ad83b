"""Plane matchings in unit disk graphs.

Two algorithms: a rotation-plus-direction-partition construction that keeps
at least a third of any (possibly crossing) matching while never lengthening
its bottleneck, and a skeleton-peeling matching of the degree-bounded MST of
a connected unit disk graph with at least (n-1)/5 edges.

One removal core, ``_LiveTree``, tracks the live tree under vertex removal:
degrees, internal degrees and a heap of skeleton leaves. A peeling round,
a skeleton leaf removed with its leaves, changes the counts of at most two
live vertices and costs O(1) updates apart from the heap. Its per-vertex
state sits in flat arrays indexed by point id (``_PeelState``), allocated
once per point set and set up per tree in O(|tree|), so a forest costs O(n)
to allocate however many trees it has; adjacency is read from the tree's
own lists. ``run_peeling`` is a thin loop of such rounds that keeps no
record of them: it returns the pairs and the smallest degree a round saw,
which is all the first bottleneck approximation reads before it reruns the
loop with a pre-matched seed pair, forbidden vertices and a segment that
matched edges must avoid crossing. The second approximation's tree matcher
builds on the same core.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ._nogc import nogc
from .errors import BadParameters, DisconnectedInput, InvariantViolation
from .geometry import SCALE, PointSet, cross_ids
from .matching import Matching, _box_pairs, _boxes, _meet
from .proximity import Tree, _component_labels, disk_graph, emst5


@dataclass(frozen=True)
class RotationStep:
    removed: tuple[tuple[int, int], tuple[int, int]]
    added: tuple[tuple[int, int], tuple[int, int]]


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


@nogc
def one_third(
    pts: PointSet, m: Matching, cap: Optional[int] = None
) -> tuple[Matching, RotationTrace]:
    """Plane matching of size at least ceil(|m|/3) with bottleneck at most
    the bottleneck of ``m``.

    Crossing pairs meeting at an angle of at most pi/3 are re-paired (which
    strictly shrinks total length), then the fixpoint is partitioned into
    three direction classes and the largest class is returned. At most
    ``cap`` rotations are made; if rotatable pairs are left after them, the
    trace is flagged and the largest class is greedily planarized instead,
    preserving planarity but not the bound. A negative cap raises
    ``BadParameters``.

    The edges sit in slots of one list, with their bounding boxes in the
    arrays of ``_boxes``. The rotatable pairs (e, f), e < f, are kept
    in a table filled once from the meeting boxes (``_box_pairs``, the
    kernel ``validate`` uses). Each rotation takes the smallest, which is
    the first pair a row-major rescan of the sorted edges would find. The
    two new edges take the slots of the pair they replace, and only the
    edges whose boxes meet theirs (``_meet`` over every slot) are tested
    against them. The edges are sorted once, at the fixpoint.
    """
    covered = m.covered()
    if len(covered) != 2 * m.size:
        raise InvariantViolation("input pairs share vertices")
    if cap is None:
        cap = 10 * pts.n**3
    if cap < 0:
        raise BadParameters(f"the rotation cap must be at least 0, got {cap}")
    pairs = sorted(m.pairs)
    trace = RotationTrace()
    xy = pts.translated()[3]
    box = _boxes(xy, np.array(pairs, dtype=np.int64).reshape(-1, 2))
    slot = {e: k for k, e in enumerate(pairs)}
    table: dict = {}

    def record(e, f) -> None:
        """Table the pair e < f if the two edges cross at an angle <= pi/3."""
        if cross_ids(pts, *e, *f):
            repl = _rotation_pairing(pts, e, f)
            if repl is not None:
                table[e, f] = repl

    for i, j in _box_pairs(box):
        record(pairs[i], pairs[j])
    while table:
        if len(trace.steps) >= cap:
            trace.capped = True
            break
        e, f = min(table)
        new1, new2 = (tuple(sorted(pair)) for pair in table[e, f])
        trace.steps.append(RotationStep(removed=(e, f), added=(new1, new2)))
        for key in [k for k in table if e in k or f in k]:
            del table[key]
        i, j = slot.pop(e), slot.pop(f)
        pairs[i], pairs[j] = new1, new2
        slot[new1], slot[new2] = i, j
        for side, part in zip(box, _boxes(xy, np.array((new1, new2)))):
            side[[i, j]] = part
        # The new edges lie in opposite cones at the old crossing point, so
        # they cannot cross each other. Crossing edges have meeting boxes.
        for k, new in ((i, new1), (j, new2)):
            for g in np.flatnonzero(_meet(box, k, slice(None))).tolist():
                if g != i and g != j:
                    record(min(new, pairs[g]), max(new, pairs[g]))

    pairs.sort()
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


@dataclass
class PeelResult:
    """The pairs of a peeling, and the smallest degree a round's skeleton
    leaf had when it was picked (None when no round ran)."""

    pairs: list[tuple[int, int]]
    min_degree: Optional[int]


class _PeelState:
    """Per-vertex peeling state of one point set, in flat arrays indexed by
    point id: the alive flag, ``deg``, ``int_deg``, membership of the
    skeleton-leaf heap, and for ``bottleneck_two``'s tree matcher the
    second-level skeleton flag ``tdp`` and membership of its heap ``in2``.

    It is allocated once per point set (``_peel_state``) and shared by every
    tree peeled over it: the trees of a forest are vertex-disjoint, and each
    ``_LiveTree`` set-up rewrites every field it reads for its own vertices,
    so what an earlier tree left behind, finished or not, is never read.
    One peeling runs over a point set at a time.
    """

    __slots__ = ("alive", "deg", "int_deg", "in_heap", "tdp", "in2")

    def __init__(self, n: int):
        self.alive = bytearray(n)
        self.deg = [0] * n
        self.int_deg = [0] * n
        self.in_heap = bytearray(n)
        self.tdp = bytearray(n)
        self.in2 = bytearray(n)


def _peel_state(pts: PointSet) -> _PeelState:
    """The point set's peeling state, allocated on first use."""
    state = pts._peel
    if state is None:
        state = pts._peel = _PeelState(pts.n)
    return state


class _LiveTree:
    """The live part of one tree under vertex removal, over the point set's
    shared ``_PeelState``.

    Adjacency is the tree's own sorted ``adj`` lists, never copied: a
    removed vertex gets ``deg`` 0, so a tree neighbour of a live vertex is
    live exactly when its ``deg`` is nonzero. ``int_deg`` counts the live
    neighbours that are not leaves. The min-heap holds skeleton leaves (live
    vertices with deg >= 2 and int_deg <= 1) and is lazy: the peeling loops
    pop it themselves and skip an entry that no longer qualifies, and both
    removal routines push every live vertex whose counts change that has
    become a skeleton leaf. ``peel`` is one peeling round, O(1) apart from
    the heap: it removes a skeleton leaf with all its leaves. ``remove``
    deletes any batch one vertex at a time. ``size`` is the number of live
    vertices. Set-up writes only the tree's own vertices, in O(|tree|), and
    takes their counts from the forest builder (``Tree.deg``,
    ``Tree.int_deg``).
    """

    def __init__(self, tree: Tree, state: _PeelState):
        self.tree = tree
        self.adj = tree.adj
        alive = self.alive = state.alive
        deg = self.deg = state.deg
        int_deg = self.int_deg = state.int_deg
        in_heap = self.in_heap = state.in_heap
        vertices = tree.vertices
        self.size = len(vertices)
        tree_deg, tree_int_deg = tree.deg, tree.int_deg
        for v in vertices:
            alive[v] = 1
            in_heap[v] = 0
            deg[v] = tree_deg[v]
            int_deg[v] = tree_int_deg[v]
        heap = [v for v in vertices if int_deg[v] <= 1 and deg[v] >= 2]
        for v in heap:
            in_heap[v] = 1
        heapq.heapify(heap)
        self.heap = heap

    def live_vertices(self) -> list[int]:
        """The live vertices, in the order of ``tree.vertices``; O(|tree|)."""
        alive = self.alive
        return [v for v in self.tree.vertices if alive[v]]

    def nbrs(self, v: int) -> list[int]:
        """The live neighbours of live vertex ``v``, in increasing order."""
        deg = self.deg
        return [u for u in self.adj[v] if deg[u]]

    def leaves_of(self, v: int) -> list[int]:
        deg = self.deg
        return [u for u in self.adj[v] if deg[u] == 1]

    def internal_nbr(self, v: int) -> Optional[int]:
        deg = self.deg
        for u in self.adj[v]:
            if deg[u] >= 2:
                return u
        return None

    def peel(self, v: int, w: Optional[int], leaves: Sequence[int]) -> tuple[int, ...]:
        """Remove skeleton leaf ``v`` with ``leaves``, all of its live
        leaves, and return the live vertices whose counts changed, after
        pushing those that became skeleton leaves. ``w`` is v's internal
        neighbour, None when v and its leaves are all that is live.

        Only w changes: it loses v from ``deg`` and ``int_deg``, and when
        it drops to one neighbour, that neighbour t loses w from its
        ``int_deg``. The result is (), (w,) or (w, t). The caller read v,
        w and the leaves off v's live neighbours and vouches for them.
        """
        alive, deg = self.alive, self.deg
        alive[v] = 0
        deg[v] = 0
        for u in leaves:
            alive[u] = 0
            deg[u] = 0
        self.size -= 1 + len(leaves)
        if w is None:
            return ()
        int_deg, in_heap = self.int_deg, self.in_heap
        d = deg[w] - 1
        deg[w] = d
        int_deg[w] -= 1
        if d >= 2:
            if not in_heap[w] and int_deg[w] <= 1:
                heapq.heappush(self.heap, w)
                in_heap[w] = 1
            return (w,)
        # w became a leaf, so its last neighbour lost an internal one.
        for t in self.adj[w]:
            if deg[t]:
                break
        int_deg[t] -= 1
        if not in_heap[t] and deg[t] >= 2 and int_deg[t] <= 1:
            heapq.heappush(self.heap, t)
            in_heap[t] = 1
        return (w, t)

    def remove(self, batch: Sequence[int]) -> set[int]:
        """Delete the vertices one at a time and return the live vertices
        whose ``deg`` or ``int_deg`` changed, after pushing them. A vertex
        that is duplicated, already removed or not in the tree raises
        ``InvariantViolation``."""
        adj, alive, deg, int_deg = self.adj, self.alive, self.deg, self.int_deg
        changed: set[int] = set()
        add = changed.add
        for r in batch:
            nbrs = adj.get(r)
            if nbrs is None or not alive[r]:
                raise InvariantViolation(f"vertex {r} is removed twice or not in the tree")
            alive[r] = 0
            self.size -= 1
            internal = deg[r] >= 2
            deg[r] = 0
            for s in nbrs:
                d = deg[s]
                if not d:
                    continue
                add(s)
                if internal:
                    int_deg[s] -= 1
                deg[s] = d - 1
                if d == 2:
                    # s became a leaf, so its last neighbour lost an internal one.
                    for t in adj[s]:
                        if deg[t]:
                            int_deg[t] -= 1
                            add(t)
        # Only batch vertices died, so the rest of ``changed`` is live.
        changed.difference_update(batch)
        heap, in_heap = self.heap, self.in_heap
        for v in changed:
            if not in_heap[v] and deg[v] >= 2 and int_deg[v] <= 1:
                heapq.heappush(heap, v)
                in_heap[v] = 1
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

    Each round pops the live tree's heap, reads the leaves and the internal
    neighbour off one scan of the vertex's tree neighbours, and ends in one
    ``_LiveTree.peel``.
    """
    live = _LiveTree(tree, _peel_state(pts))
    heap, in_heap, adj, deg, int_deg = live.heap, live.in_heap, live.adj, live.deg, live.int_deg
    pairs = list(init_pairs)
    min_degree: Optional[int] = None

    while heap:
        v = heapq.heappop(heap)
        in_heap[v] = 0
        d = deg[v]
        if d < 2 or int_deg[v] > 1:
            continue
        leaves = []
        w = None
        for u in adj[v]:
            du = deg[u]
            if du == 1:
                leaves.append(u)
            elif du:
                w = u
        if min_degree is None or d < min_degree:
            min_degree = d
        if v not in forbidden:
            for u in leaves:
                if u in forbidden:
                    continue
                if avoid is not None and cross_ids(pts, v, u, avoid[0], avoid[1]):
                    continue
                pairs.append((v, u) if v < u else (u, v))
                break
        live.peel(v, w, leaves)

    if live.size == 2:
        a, b = sorted(live.live_vertices())
        if b not in live.adj[a]:
            raise InvariantViolation("leftover vertices are not adjacent")
        if a not in forbidden and b not in forbidden and (
            avoid is None or not cross_ids(pts, a, b, avoid[0], avoid[1])
        ):
            pairs.append((a, b))
    elif live.size > 2:
        raise InvariantViolation(f"peeling left {live.size} vertices")

    return PeelResult(pairs=pairs, min_degree=min_degree)


@nogc
def plane_matching(pts: PointSet) -> Matching:
    """Plane matching of the degree-bounded MST of a connected unit disk
    graph, of size at least (n-1)/5.

    Requires every point within unit distance of some other point such that
    the whole unit disk graph is connected. Connectivity is read off the
    component labels that hook-and-shortcut gives the disk graph's edge
    arrays (``_component_labels``): every label is the smallest id of its
    component, so the graph is connected exactly when all are 0. No points
    give the empty matching.
    """
    if pts.n == 0:
        return Matching.of(pts, [])
    g = disk_graph(pts, SCALE * SCALE)
    if _component_labels(pts.n, g.u, g.v).any():
        raise DisconnectedInput("unit disk graph is not connected")
    tree = emst5(pts)
    res = run_peeling(pts, tree)
    return Matching.of(pts, res.pairs)
