"""Second bottleneck approximation: a plane matching of size at least 2n/5
whose edges are at most (sqrt(2)+sqrt(3)) times the optimal plane bottleneck.

The Kruskal prefix of the Euclidean MST (``emst5``) stops as soon as every
component is even; each resulting tree (an exact MST of its points, of
degree at most five) is then consumed iteratively. While the tree is large
and some skeleton leaf is not an anchor, a local leaf or leaf-pair is
matched (Step 1). When every skeleton leaf is an anchor, a leaf of the
second-level skeleton is resolved through one of four convex-empty-region
cases (Step 2). Trees of at most six vertices and single-vertex
second-level skeletons end in closed-form base cases. Every iteration
matches at least four fifths of what it removes.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Optional

from ._nogc import nogc
from .errors import (
    DegeneratePolygon,
    InvariantViolation,
    NotSkeletonLeaf,
    OddPointCount,
    TooFewPoints,
)
from .geometry import (
    PointSet,
    cmp_cw_angle,
    cmp_unsigned_angle,
    convex_empty,
    cw_ge_pi,
    cw_le_half_pi,
    dot_sign,
    orientation,
    sort_clockwise,
)
from .matching import Matching
# bench/tracer.py wraps ``delaunay`` and ``sorted_candidate_edges`` in this
# module too (tests/test_tracer_targets.py), so they stay bound here.
from .proximity import (
    Forest,
    Tree,
    delaunay,
    emst5,
    last_odd_edge,
    sorted_candidate_edges,
    subtrees,
)
from .udg import _LiveTree, _peel_state


@dataclass
class EvenForest:
    """The first Kruskal prefix of the MST whose trees are all even."""

    forest: Forest
    last_edge: tuple[int, int]
    last_sq: int


@dataclass
class TreeMatchResult:
    pairs: list[tuple[int, int]]
    rounds: list[tuple[int, int]]  # (vertices removed, vertices matched)
    regions: list[tuple[int, ...]]  # convex regions backing non-tree edges


def even_forest(pts: PointSet) -> EvenForest:
    """The prefix of the MST (``emst5``) in (length, lexicographic) order
    that ends at the first edge after which every component has even size:
    the MST's last edge with an odd subtree below it (``last_odd_edge``),
    whose ends and squared length are ``last_edge`` and ``last_sq``. Every
    later edge is cut, even one as long. Each tree is the exact MST of its
    vertex set, so its degrees are at most five and its edges at a vertex
    meet at more than pi/3 (see ``emst5``).
    """
    n = pts.n
    if n % 2 != 0:
        raise OddPointCount(f"n must be even, got {n}")
    if n < 2:
        raise TooFewPoints("need at least 2 points")
    mst = emst5(pts)
    i = last_odd_edge(mst)
    sq, last_sq = mst.sq, mst.sq[i]
    # The prefix: the shorter edges, and those as long that come no later
    # in the arrays' lexicographic order.
    keep = sq <= last_sq
    keep[i + 1 :] &= sq[i + 1 :] != last_sq
    trees = [mst] if keep.all() else subtrees(pts, mst, keep=keep)
    u, v = int(mst.u[i]), int(mst.v[i])
    return EvenForest(forest=Forest(trees=trees), last_edge=(u, v), last_sq=int(last_sq))


def is_anchor(pts: PointSet, tree: Tree, v: int) -> bool:
    """True iff skeleton leaf ``v`` has exactly one internal neighbour and
    exactly two leaf neighbours spanning a clockwise angle of at least pi.

    Raises NotSkeletonLeaf when v is not a leaf of the skeleton tree.
    """
    if v not in tree.adj or len(tree.adj[v]) < 2:
        raise NotSkeletonLeaf(f"vertex {v} is not internal")
    internal = [u for u in tree.adj[v] if len(tree.adj[u]) >= 2]
    if len(internal) > 1:
        raise NotSkeletonLeaf(f"vertex {v} has {len(internal)} internal neighbours")
    leaves = [u for u in tree.adj[v] if len(tree.adj[u]) == 1]
    if len(internal) != 1 or len(leaves) != 2:
        return False
    w = internal[0]
    u1, u2 = sort_clockwise(pts, v, leaves, w)
    return cw_ge_pi(pts, u1, v, u2)


class _TreeMatcher:
    """Incremental matcher for one even tree.

    The live tree and its skeleton leaves are a ``_LiveTree``; the matcher
    adds the second-level skeleton (vertices with at least two internal
    neighbours: the ``tdp`` flags of the shared ``_PeelState``, counted in
    ``tdp_size``) and a heap of its candidate leaves with membership flags
    ``in2``, all updated from the vertices each removal changes. A Step-1
    round at a skeleton leaf with one leaf, most rounds on random input, is
    one ``_LiveTree.peel`` and an update over the at most two vertices it
    changes; every other round removes its batch with ``_LiveTree.remove``.
    """

    def __init__(self, pts: PointSet, tree: Tree, validate_regions: bool = False):
        self.pts = pts
        self.validate_regions = validate_regions
        state = _peel_state(pts)
        self.live = live = _LiveTree(tree, state)
        deg, int_deg = live.deg, live.int_deg
        self.tdp = tdp = state.tdp
        self.in2 = in2 = state.in2
        heap2: list[int] = []
        for v in tree.vertices:
            flag = deg[v] >= 2 and int_deg[v] >= 2
            tdp[v] = in2[v] = flag
            if flag:
                heap2.append(v)
        heapq.heapify(heap2)
        self.heap2 = heap2
        self.tdp_size = len(heap2)
        self.pairs: list[tuple[int, int]] = []
        self.rounds: list[tuple[int, int]] = []
        self.regions: list[tuple[int, ...]] = []

    # -- structure maintenance -------------------------------------------

    def _remove(self, removed: list[int], matched: int) -> None:
        self.rounds.append((len(removed), matched))
        changed = self.live.remove(removed)
        tdp = self.tdp
        for r in removed:
            if tdp[r]:
                tdp[r] = 0
                self.tdp_size -= 1
        self._update_second(changed)

    def _update_second(self, changed) -> None:
        """Bring ``tdp`` and ``heap2`` up to date with the live vertices
        whose counts a removal changed; by then no removed vertex carries
        the flag.

        A live vertex's second-skeleton degree changes only when a removed
        neighbour carried the flag, which puts the vertex in ``changed``, or
        when a neighbour in ``changed`` leaves tdp. Both are pushed, so every
        tdp vertex of second-skeleton degree one is in ``heap2``; an extra
        entry is skipped when popped.
        """
        live, tdp, in2, heap2 = self.live, self.tdp, self.in2, self.heap2
        deg, int_deg, adj = live.deg, live.int_deg, live.adj
        for x in changed:
            if not tdp[x]:
                continue
            # Counts only fall, so a vertex can leave tdp but never join it.
            if deg[x] < 2 or int_deg[x] < 2:
                tdp[x] = 0
                self.tdp_size -= 1
                for u in adj[x]:
                    if tdp[u] and not in2[u]:
                        heapq.heappush(heap2, u)
                        in2[u] = 1
            elif not in2[x]:
                heapq.heappush(heap2, x)
                in2[x] = 1

    # -- local predicates --------------------------------------------------

    def _is_anchor(self, v: int) -> bool:
        if self.live.deg[v] != 3 or self.live.int_deg[v] != 1:
            return False
        w = self.live.internal_nbr(v)
        leaves = self.live.leaves_of(v)
        u1, u2 = sort_clockwise(self.pts, v, leaves, w)
        return cw_ge_pi(self.pts, u1, v, u2)

    def _anchor_leaves(self, v: int, w: int) -> tuple[int, int]:
        leaves = self.live.leaves_of(v)
        if len(leaves) != 2:
            raise InvariantViolation(f"anchor {v} has {len(leaves)} leaves")
        u1, u2 = sort_clockwise(self.pts, v, leaves, w)
        return u1, u2

    def _pop_step2(self) -> Optional[int]:
        """The smallest vertex of the second-level skeleton with exactly one
        neighbour in it."""
        heap2, tdp, in2, adj = self.heap2, self.tdp, self.in2, self.live.adj
        while heap2:
            v = heapq.heappop(heap2)
            in2[v] = 0
            if tdp[v]:
                k = 0
                for u in adj[v]:
                    if tdp[u]:
                        k += 1
                if k == 1:
                    return v
        return None

    def _add_pair(self, a: int, b: int) -> None:
        self.pairs.append((a, b) if a < b else (b, a))

    def _add_region(self, poly: tuple[int, ...]) -> None:
        self.regions.append(poly)
        if self.validate_regions and not convex_empty(self.pts, poly):
            raise InvariantViolation(f"region {poly} is not convex and empty")

    def _merge_last_rounds(self, count: int) -> None:
        """Fold the last ``count`` removal batches into one accounting round
        (used when one logical iteration removes vertices in stages)."""
        if count <= 1 or len(self.rounds) < count:
            return
        tail = self.rounds[-count:]
        del self.rounds[-count:]
        self.rounds.append(
            (sum(r for r, _ in tail), sum(m for _, m in tail))
        )

    # -- step 1 -------------------------------------------------------------

    def _step1_pair(self, v: int, w: int) -> None:
        """Step 1 at a non-anchor skeleton leaf ``v`` with internal
        neighbour ``w`` and at least two leaves: match the first clockwise
        pair of consecutive leaves below pi and remove it."""
        leaves = self.live.leaves_of(v)
        order = sort_clockwise(self.pts, v, leaves, w)
        for i in range(len(leaves) - 1):
            u1, u2 = order[i], order[i + 1]
            if not cw_ge_pi(self.pts, u1, v, u2):
                self._add_pair(u1, u2)
                self._add_region((u1, v, u2))
                self._remove([u1, u2], 2)
                return
        raise InvariantViolation(
            "no consecutive leaf pair below pi at a non-anchor skeleton leaf"
        )

    # -- step 2 and base case machinery --------------------------------------

    def _hub_split(
        self, w: int, y: Optional[int]
    ) -> tuple[list[int], list[int], list[int]]:
        """The live neighbours of hub ``w`` other than ``y``, clockwise from
        ``y`` (from the smallest non-leaf when ``y`` is None), then the
        anchors and the leaves among them in that order."""
        live = self.live
        deg = live.deg
        others = [u for u in live.nbrs(w) if u != y]
        ref = y if y is not None else min(u for u in others if deg[u] >= 2)
        order = sort_clockwise(self.pts, w, others, ref)
        return order, [u for u in order if deg[u] >= 2], [u for u in order if deg[u] == 1]

    def _resolve_hub(self, w: int, y: Optional[int]) -> None:
        """Match around a hub vertex ``w`` whose non-leaf neighbours other
        than ``y`` are all anchors, then remove the hub, its anchors with
        their leaves, and its own leaves."""
        pts = self.pts
        order, anchors_cw, x_cw = self._hub_split(w, y)
        for v in anchors_cw:
            if not self._is_anchor(v):
                raise InvariantViolation(f"hub neighbour {v} is not an anchor")
        k = len(anchors_cw)
        ab = {v: self._anchor_leaves(v, w) for v in anchors_cw}
        removed: list[int] = [w]
        for v in anchors_cw:
            removed.extend((v, ab[v][0], ab[v][1]))
        removed.extend(x_cw)
        if self.validate_regions and k >= 1:
            # The interleaved sequence a_1, v_1, b_1, ..., a_k, v_k, b_k must
            # be clockwise-sorted around the hub.
            seq: list[int] = []
            for v in anchors_cw:
                seq.extend((ab[v][0], v, ab[v][1]))
            ref = y if y is not None else seq[0]
            for i in range(len(seq) - 1):
                if cmp_cw_angle(pts, ref, w, seq[i], ref, w, seq[i + 1]) > 0:
                    raise InvariantViolation(
                        "anchor leaves are not clockwise-sorted around the hub"
                    )
        pairs_before = len(self.pairs)

        if k == 4:
            self._case_four(w, anchors_cw, ab)
        elif k == 1 and len(x_cw) >= 2:
            (v1,) = anchors_cw
            a1, b1 = ab[v1]
            # Order the first two leaves by their unsigned angle to the anchor.
            c = cmp_unsigned_angle(pts, v1, w, x_cw[0], v1, w, x_cw[1])
            x1, x2 = (x_cw[0], x_cw[1]) if c <= 0 else (x_cw[1], x_cw[0])
            if dot_sign(pts, v1, w, x1) >= 0:
                if cw_le_half_pi(pts, x1, w, v1):
                    self._add_pair(v1, a1)
                    self._add_pair(b1, x1)
                    self._add_region((v1, b1, w, x1))
                else:
                    self._add_pair(v1, b1)
                    self._add_pair(a1, x1)
                    self._add_region((v1, x1, w, a1))
                self._add_pair(x2, w)
            else:
                self._pair_anchors(w, anchors_cw, ab)
                self._add_pair(x1, x2)
                self._add_region((x1, w, x2))
        elif 1 <= k <= 3:
            used: tuple[int, ...] = ()
            if k >= 2 and x_cw:
                # The first leaf x takes a leaf of one anchor through an empty
                # quadrilateral with w; that anchor pairs with its other leaf.
                x = x_cw[0]
                slot = order.index(x)  # only anchors come before the first leaf
                if 0 < slot < k:
                    # Between v_i and v_j: a_i when it lies right of w->x,
                    # else b_j.
                    vi, vj = anchors_cw[slot - 1], anchors_cw[slot]
                    take_a = orientation(pts, x, w, ab[vi][0]) < 0
                    u = vi if take_a else vj
                else:
                    # Before the first anchor or after the last, the mirror
                    # rule on the two anchors at that end: b_i when it lies
                    # left of w->x, else a_j.
                    vi, vj = anchors_cw[:2] if slot == 0 else anchors_cw[-2:]
                    take_a = orientation(pts, x, w, ab[vi][1]) <= 0
                    u = vj if take_a else vi
                a, b = ab[u]
                if take_a:
                    self._add_pair(x, a)
                    self._add_region((x, w, a, u))
                    self._add_pair(u, b)
                else:
                    self._add_pair(x, b)
                    self._add_region((w, x, u, b))
                    self._add_pair(u, a)
                used = (u,)
            self._pair_anchors(w, anchors_cw, ab, used)
        else:
            raise InvariantViolation(f"hub with {k} anchors")

        matched_new = 2 * (len(self.pairs) - pairs_before)
        self._remove(removed, matched_new)

    def _pair_anchors(self, w, anchors_cw, ab, used=()) -> None:
        """Pair the anchors not in ``used`` with their first leaves, and w
        with the second leaf of the first of them."""
        free = [v for v in anchors_cw if v not in used]
        for v in free:
            self._add_pair(v, ab[v][0])
        v, b = free[0], ab[free[0]][1]
        self._add_pair(b, w)
        self._add_region((b, v, w))

    def _case_four(self, w, anchors_cw, ab) -> None:
        pts = self.pts
        v = anchors_cw
        a1 = ab[v[0]][0]
        a2, b2 = ab[v[1]]
        b3 = ab[v[2]][1]
        span_a = (0, 1) if orientation(pts, a1, w, b2) > 0 else (2, 3)
        span_b = (1, 2) if orientation(pts, a2, w, b3) > 0 else (3, 0)
        shared = set(span_a) & set(span_b)
        if len(shared) != 1:
            raise InvariantViolation("pentagon spans share no anchor")
        s = shared.pop()
        vs = v[s]
        as_, bs = ab[vs]

        def wedge_args(span):
            # vs as the right anchor: wedge cw(b_s, v_s, w); as the left
            # anchor: wedge cw(w, v_s, a_s).
            if span[1] == s:
                return (bs, vs, w)
            return (w, vs, as_)

        wa = wedge_args(span_a)
        wb = wedge_args(span_b)
        c = cmp_cw_angle(pts, *wa, *wb)
        if c < 0:
            chosen = span_a
        elif c > 0:
            chosen = span_b
        else:
            key_a = tuple(sorted((v[span_a[0]], v[span_a[1]])))
            key_b = tuple(sorted((v[span_b[0]], v[span_b[1]])))
            chosen = span_a if key_a <= key_b else span_b
        li, ri = chosen
        vl, vr = v[li], v[ri]
        al, bl = ab[vl]
        ar, br = ab[vr]
        self._add_pair(al, br)
        self._add_region((al, vl, vr, br, w))
        self._add_pair(vl, bl)
        self._add_pair(vr, ar)
        self._pair_anchors(w, anchors_cw, ab, (vl, vr))

    def _step2(self, w: int) -> None:
        y = None
        for u in self.live.adj[w]:
            if self.tdp[u]:
                y = u
                break
        if y is None:
            raise InvariantViolation("second-skeleton leaf without neighbour")
        self._resolve_hub(w, y)

    def _base_case_hub(self, w: int) -> None:
        """Single second-level-skeleton vertex: consume the whole tree."""
        order, anchors_cw, x_cw = self._hub_split(w, None)
        k = len(anchors_cw)
        merge_rounds = 1
        if k < 2:
            raise InvariantViolation("base hub must touch at least two anchors")
        if k == 2 and len(x_cw) == 3:
            # Two cyclically consecutive leaves exist; pair the first such.
            m = len(order)
            pair = None
            for i in range(m):
                u1, u2 = order[i], order[(i + 1) % m]
                if self.live.deg[u1] == 1 and self.live.deg[u2] == 1:
                    pair = (u1, u2)
                    break
            if pair is None:
                raise InvariantViolation("no consecutive leaf pair at the hub")
            if cw_ge_pi(self.pts, pair[0], w, pair[1]):
                raise InvariantViolation("consecutive hub leaves span >= pi")
            self._add_pair(*pair)
            self._add_region((pair[0], w, pair[1]))
            self._remove(list(pair), 2)
            merge_rounds = 2
        if k == 5:
            v5 = anchors_cw[4]
            a5, b5 = self._anchor_leaves(v5, w)
            self._add_pair(v5, a5)
            self._remove([v5, a5, b5], 2)
            merge_rounds += 1
        # The smallest anchor, the clockwise reference, is never removed
        # above, so the resolver's split keeps the order of this one.
        self._resolve_hub(w, None)
        self._merge_last_rounds(merge_rounds)

    # -- base case: at most six vertices -------------------------------------

    def _match_four(self, vs: list[int]) -> None:
        pts = self.pts
        center = None
        for v in vs:
            if self.live.deg[v] == 3:
                center = v
                break
        pairs_before = len(self.pairs)
        if center is None:
            # Path: each end pairs with its neighbour.
            ends = sorted(v for v in vs if self.live.deg[v] == 1)
            e1 = ends[0]
            n1 = self.live.nbrs(e1)[0]
            rest = [v for v in vs if v not in (e1, n1)]
            self._add_pair(e1, n1)
            self._add_pair(rest[0], rest[1])
        else:
            leaves = self.live.leaves_of(center)
            best = None
            for i in range(3):
                for j in range(i + 1, 3):
                    cand = (leaves[i], leaves[j])
                    if best is None or (
                        cmp_unsigned_angle(
                            pts, cand[0], center, cand[1], best[0], center, best[1]
                        )
                        < 0
                    ):
                        best = cand
            rest = [u for u in leaves if u not in best][0]
            self._add_pair(*best)
            self._add_region((best[0], center, best[1]))
            self._add_pair(center, rest)
        self._remove(list(vs), 2 * (len(self.pairs) - pairs_before))

    def _match_star6(self, center: int) -> None:
        pts = self.pts
        leaves = self.live.leaves_of(center)
        ref = leaves[0]
        order = [ref] + sort_clockwise(pts, center, [u for u in leaves if u != ref], ref)
        gaps_ok = [
            not cw_ge_pi(pts, order[i], center, order[(i + 1) % 5])
            for i in range(5)
        ]
        for i in range(5):
            if gaps_ok[i] and gaps_ok[(i + 2) % 5]:
                p1 = (order[i], order[(i + 1) % 5])
                p2 = (order[(i + 2) % 5], order[(i + 3) % 5])
                spare = order[(i + 4) % 5]
                self._add_pair(*p1)
                self._add_region((p1[0], center, p1[1]))
                self._add_pair(*p2)
                self._add_region((p2[0], center, p2[1]))
                self._add_pair(center, spare)
                self._remove([center] + leaves, 6)
                return
        raise InvariantViolation("no two disjoint sub-pi gaps in a 5-star")

    def _match_six_two_centers(self, v1: int, v2: int) -> None:
        pts = self.pts
        a1, b1 = self._anchor_leaves(v1, v2)
        a2, b2 = self._anchor_leaves(v2, v1)
        anch1 = cw_ge_pi(pts, a1, v1, b1)
        anch2 = cw_ge_pi(pts, a2, v2, b2)
        pairs_before = len(self.pairs)
        if not anch1 and not anch2:
            self._add_pair(a1, b1)
            self._add_region((a1, v1, b1))
            self._add_pair(a2, b2)
            self._add_region((a2, v2, b2))
            self._add_pair(v1, v2)
        elif anch1 and anch2:
            if cw_le_half_pi(pts, v1, v2, a2):
                self._add_pair(v1, b1)
                self._add_pair(v2, b2)
                self._add_pair(a1, a2)
                self._add_region((v1, a2, v2, a1))
            elif cw_le_half_pi(pts, b2, v2, v1):
                self._add_pair(v1, a1)
                self._add_pair(v2, a2)
                self._add_pair(b1, b2)
                self._add_region((v1, b1, v2, b2))
            else:
                raise InvariantViolation("two-anchor hub without a half-pi wedge")
        else:
            if anch2:
                v1, v2 = v2, v1
                a1, b1 = self._anchor_leaves(v1, v2)
                a2, b2 = self._anchor_leaves(v2, v1)
            # v1 is the anchor. Its spare leaf pairs across to v2 through an
            # empty triangle at v1; pick the smaller wedge, verify at runtime.
            options = [
                ((v1, a1), (b1, v2), (b1, v1, v2)),
                ((v1, b1), (a1, v2), (v2, v1, a1)),
            ]
            c = cmp_cw_angle(pts, b1, v1, v2, v2, v1, a1)
            ordered = options if c <= 0 else options[::-1]
            done = False
            for spoke, chord, tri in ordered:
                try:
                    ok = convex_empty(pts, tri)
                except DegeneratePolygon:
                    ok = False
                if ok:
                    self._add_pair(*spoke)
                    self._add_pair(*chord)
                    self.regions.append(tri)
                    self._add_pair(a2, b2)
                    self._add_region((a2, v2, b2))
                    done = True
                    break
            if not done:
                raise InvariantViolation("one-anchor six-vertex case failed")
        self._remove(
            [v1, v2, a1, b1, a2, b2], 2 * (len(self.pairs) - pairs_before)
        )

    def _base_small(self) -> None:
        vs = sorted(self.live.live_vertices())
        t = len(vs)
        if t == 0:
            return
        if t in (1, 3):
            raise InvariantViolation(f"unreachable base case t={t}")
        if t == 2:
            a, b = vs
            if b not in self.live.adj[a]:
                raise InvariantViolation("two leftover vertices not adjacent")
            self._add_pair(a, b)
            self._remove(vs, 2)
            return
        if t == 4:
            self._match_four(vs)
            return
        if t == 5:
            maxdeg = max(self.live.deg[v] for v in vs)
            cands = sorted(
                u
                for u in vs
                if self.live.deg[u] == 1
                and any(self.live.deg[x] == maxdeg for x in self.live.nbrs(u))
            )
            if not cands:
                raise InvariantViolation("five-vertex tree without droppable leaf")
            drop = cands[0]
            self._remove([drop], 0)
            self._match_four([v for v in vs if v != drop])
            self._merge_last_rounds(2)
            return
        # t == 6
        for u in vs:
            if self.live.deg[u] == 1:
                d = self.live.nbrs(u)[0]
                if self.live.deg[d] == 2:
                    self._add_pair(u, d)
                    self._remove([u, d], 2)
                    self._match_four([v for v in vs if v not in (u, d)])
                    return
        centers = [v for v in vs if self.live.deg[v] == 5]
        if centers:
            self._match_star6(centers[0])
            return
        deg3 = sorted(v for v in vs if self.live.deg[v] == 3)
        if len(deg3) != 2 or deg3[1] not in self.live.adj[deg3[0]]:
            raise InvariantViolation("unexpected six-vertex tree shape")
        self._match_six_two_centers(deg3[0], deg3[1])

    # -- driver ---------------------------------------------------------------

    def run(self) -> TreeMatchResult:
        live = self.live
        if live.size % 2 != 0:
            raise OddPointCount(f"tree has odd size {live.size}")
        heap, in_heap, adj, deg, int_deg = live.heap, live.in_heap, live.adj, live.deg, live.int_deg
        pairs, rounds = self.pairs, self.rounds
        while live.size > 6:
            # Step 1 at the smallest skeleton leaf that is not an anchor. An
            # anchor stays out of the heap until a removal changes its counts.
            v = None
            while heap:
                x = heapq.heappop(heap)
                in_heap[x] = 0
                d, i = deg[x], int_deg[x]
                if d >= 2 and i <= 1 and not (d == 3 and i == 1 and self._is_anchor(x)):
                    v = x
                    break
            if v is not None:
                w = leaf = None
                k = 0
                for u in adj[v]:
                    du = deg[u]
                    if du == 1:
                        leaf = u
                        k += 1
                    elif du:
                        w = u
                if w is None:
                    raise InvariantViolation("skeleton-isolated vertex in a large tree")
                if k == 1:
                    # v pairs with its one leaf, and both leave in one round.
                    pairs.append((v, leaf) if v < leaf else (leaf, v))
                    rounds.append((2, 2))
                    self._update_second(live.peel(v, w, (leaf,)))
                else:
                    self._step1_pair(v, w)
                continue
            if self.tdp_size == 1:
                (hub,) = (u for u in live.live_vertices() if self.tdp[u])
                self._base_case_hub(hub)
                return TreeMatchResult(self.pairs, self.rounds, self.regions)
            w = self._pop_step2()
            if w is None:
                raise InvariantViolation("no second-skeleton leaf available")
            self._step2(w)
        self._base_small()
        return TreeMatchResult(self.pairs, self.rounds, self.regions)


def match_tree_detailed(
    pts: PointSet, tree: Tree, validate_regions: bool = False
) -> TreeMatchResult:
    """Full matching result for one even tree, with instrumentation."""
    return _TreeMatcher(pts, tree, validate_regions).run()


def match_tree_second(
    pts: PointSet, tree: Tree, validate_regions: bool = False
) -> Matching:
    """Plane matching of one even tree covering at least 4/5 of the vertices
    removed in every iteration (hence at least 2n/5 pairs overall), with all
    edges within (sqrt(2)+sqrt(3)) times the tree's longest edge."""
    res = match_tree_detailed(pts, tree, validate_regions)
    return Matching.of(pts, res.pairs)


@dataclass
class SecondApproxResult:
    """``second_approx``'s matching with the even forest (None for no
    points) and the per-tree results it was built from."""

    matching: Matching
    even: Optional[EvenForest]
    trees: list[TreeMatchResult]


@nogc
def second_approx_detailed(
    pts: PointSet, validate_regions: bool = False
) -> SecondApproxResult:
    """``second_approx`` with its even forest and per-tree results, from
    which the length bound can be certified against L = ``last_sq``."""
    n = pts.n
    if n % 2 != 0:
        raise OddPointCount(f"n must be even, got {n}")
    if n == 0:
        return SecondApproxResult(Matching.of(pts, []), None, [])
    ef = even_forest(pts)
    results = [match_tree_detailed(pts, tree, validate_regions) for tree in ef.forest.trees]
    pairs = [pair for res in results for pair in res.pairs]
    return SecondApproxResult(Matching.of(pts, pairs), ef, results)


@nogc
def second_approx(pts: PointSet, validate_regions: bool = False) -> Matching:
    """Plane matching of size at least 2n/5 whose bottleneck is at most
    (sqrt(2)+sqrt(3)) times the optimal plane-perfect-matching bottleneck."""
    return second_approx_detailed(pts, validate_regions).matching
