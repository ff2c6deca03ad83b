"""Independent output checks for the benchmark.

Everything here works on the benchmark's own copy of each instance's scaled
integer coordinates, never on the program's parsed point set or its
validator, so a broken layer cannot certify its own output. Arithmetic is
exact: Python ints only.
"""
from __future__ import annotations

import math

# Point files carry six decimals; coordinates are integers in 10^-6 units.
SCALE = 10**6
# (sqrt(2) + sqrt(3))^2 <= 9_898_979_486 / 10^9, the approx2 length factor.
FACTOR2_SQ_NUM = 9_898_979_486
FACTOR2_SQ_DEN = 10**9


def _orient(ax, ay, bx, by, cx, cy) -> int:
    d = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (d > 0) - (d < 0)


def _on_segment(ax, ay, bx, by, px, py) -> bool:
    """For p collinear with a-b: does p lie on the closed segment?"""
    return min(ax, bx) <= px <= max(ax, bx) and min(ay, by) <= py <= max(ay, by)


def segments_meet(xs, ys, a, b, c, d) -> bool:
    """Do the closed segments a-b and c-d share a point?

    For four distinct points this is exactly a crossing in the program's
    sense: shared endpoints are impossible, so any contact is an endpoint
    interior to the other segment, a proper crossing, or a collinear overlap.
    """
    ax, ay, bx, by = xs[a], ys[a], xs[b], ys[b]
    cx, cy, dx, dy = xs[c], ys[c], xs[d], ys[d]
    o1 = _orient(ax, ay, bx, by, cx, cy)
    o2 = _orient(ax, ay, bx, by, dx, dy)
    o3 = _orient(cx, cy, dx, dy, ax, ay)
    o4 = _orient(cx, cy, dx, dy, bx, by)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return (
        (o1 == 0 and _on_segment(ax, ay, bx, by, cx, cy))
        or (o2 == 0 and _on_segment(ax, ay, bx, by, dx, dy))
        or (o3 == 0 and _on_segment(cx, cy, dx, dy, ax, ay))
        or (o4 == 0 and _on_segment(cx, cy, dx, dy, bx, by))
    )


def meeting_pairs(xs, ys, pairs) -> list[tuple[int, int]]:
    """Indices (i, j) of vertex-disjoint edges that meet.

    Edges are bucketed by the grid cells their bounding boxes cover. A pair
    is tested only in the cell holding the lower-left corner of the overlap
    of the two boxes, which both boxes cover, so every pair of overlapping
    boxes is tested exactly once.
    """
    m = len(pairs)
    boxes = []
    for a, b in pairs:
        boxes.append((min(xs[a], xs[b]), min(ys[a], ys[b]), max(xs[a], xs[b]), max(ys[a], ys[b])))
    if m < 2:
        return []
    dims = sorted(max(x1 - x0, y1 - y0) for x0, y0, x1, y1 in boxes)
    cell = max(1, 2 * dims[m // 2], dims[-1] // 32)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (x0, y0, x1, y1) in enumerate(boxes):
        for cx in range(x0 // cell, x1 // cell + 1):
            for cy in range(y0 // cell, y1 // cell + 1):
                buckets.setdefault((cx, cy), []).append(i)
    out = []
    for key, members in buckets.items():
        for ii, i in enumerate(members):
            bi = boxes[i]
            for j in members[ii + 1:]:
                bj = boxes[j]
                if bi[0] > bj[2] or bj[0] > bi[2] or bi[1] > bj[3] or bj[1] > bi[3]:
                    continue
                if (max(bi[0], bj[0]) // cell, max(bi[1], bj[1]) // cell) != key:
                    continue
                (a, b), (c, d) = pairs[i], pairs[j]
                if len({a, b, c, d}) == 4 and segments_meet(xs, ys, a, b, c, d):
                    out.append((min(i, j), max(i, j)))
    return sorted(out)


def sq_len(xs, ys, a, b) -> int:
    dx = xs[a] - xs[b]
    dy = ys[a] - ys[b]
    return dx * dx + dy * dy


def bottleneck_sq(xs, ys, pairs) -> int:
    return max((sq_len(xs, ys, a, b) for a, b in pairs), default=0)


def matching_problems(n: int, pairs) -> list[str]:
    """Problems that stop ``pairs`` from being a matching on n points."""
    problems = []
    seen: set[int] = set()
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n) or a == b:
            return [f"bad pair ({a}, {b}) for n={n}"]
        for v in (a, b):
            if v in seen:
                problems.append(f"vertex {v} matched twice")
            seen.add(v)
    return problems


def plane_matching_problems(xs, ys, pairs) -> list[str]:
    """Problems that stop ``pairs`` from being a plane matching on the points."""
    problems = matching_problems(len(xs), pairs)
    if problems and problems[0].startswith("bad pair"):
        return problems
    crossings = meeting_pairs(xs, ys, pairs)
    if crossings:
        i, j = crossings[0]
        problems.append(f"{len(crossings)} crossing edge pairs, first {pairs[i]} x {pairs[j]}")
    return problems


def even_prefix_sq(n: int, edges) -> int:
    """Certified lower bound L^2 on the squared optimal bottleneck.

    ``edges`` is a spanning tree as (sq_length, u, v). Kruskal order over it
    is scanned to the first prefix whose components all have even size; the
    last edge of that prefix has length L. Every shorter threshold leaves an
    odd component, so no perfect matching has bottleneck below L. The value
    does not depend on the order inside ties. Raises ValueError when the
    edges do not form a spanning tree or n is odd.
    """
    if n % 2:
        raise ValueError(f"odd point count {n}")
    if len(edges) != n - 1:
        raise ValueError(f"spanning tree needs {n - 1} edges, got {len(edges)}")
    parent = list(range(n))
    size = [1] * n

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    odd = n
    for sq, u, v in sorted(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValueError(f"edge ({u}, {v}) closes a cycle")
        if size[ru] % 2 and size[rv] % 2:
            odd -= 2
        parent[rv] = ru
        size[ru] += size[rv]
        if odd == 0:
            return sq
    raise ValueError("no even prefix")


def guarantee_problems(command, xs, ys, pairs, lower_sq, witness=None) -> list[str]:
    """Every size or length guarantee of ``command`` that ``pairs`` breaks.

    ``lower_sq`` is L^2 from ``even_prefix_sq``. For one-third, ``witness``
    is the crossing bottleneck matching as (pairs, claimed bottleneck_sq).
    Planarity is ``plane_matching_problems``'s job.
    """
    n = len(xs)
    problems = []
    b_sq = bottleneck_sq(xs, ys, pairs)
    size = len(pairs)
    if command == "approx2":
        if size < math.ceil(2 * n / 5):
            problems.append(f"size {size} < ceil(2n/5) for n={n}")
        if b_sq * FACTOR2_SQ_DEN > FACTOR2_SQ_NUM * lower_sq:
            problems.append(f"bottleneck^2 {b_sq} above (sqrt2+sqrt3)^2 * L^2 = {lower_sq}")
    elif command == "approx1":
        if size < math.ceil(n / 5):
            problems.append(f"size {size} < ceil(n/5) for n={n}")
    elif command == "udg-match":
        if size < math.ceil((n - 1) / 5):
            problems.append(f"size {size} < ceil((n-1)/5) for n={n}")
        if b_sq > SCALE * SCALE:
            problems.append(f"bottleneck^2 {b_sq} above the unit radius")
    elif command == "one-third":
        w_pairs, claimed_sq = witness
        w_sq = bottleneck_sq(xs, ys, w_pairs)
        problems.extend(f"crossing witness: {p}" for p in matching_problems(n, w_pairs))
        if 2 * len(w_pairs) != n:
            problems.append(f"crossing witness has {len(w_pairs)} pairs, not n/2 for n={n}")
        if w_sq != claimed_sq:
            problems.append(f"crossing bottleneck^2 claimed {claimed_sq}, witness has {w_sq}")
        if not lower_sq <= w_sq <= 4 * lower_sq:
            problems.append(f"crossing bottleneck^2 {w_sq} outside [L^2, 4 L^2] with L^2 = {lower_sq}")
        if size < math.ceil(len(w_pairs) / 3):
            problems.append(f"size {size} < ceil(|M|/3) for |M|={len(w_pairs)}")
        if b_sq > w_sq:
            problems.append(f"bottleneck^2 {b_sq} above the crossing bottleneck^2 {w_sq}")
    else:
        raise ValueError(f"unknown command {command!r}")
    return problems
