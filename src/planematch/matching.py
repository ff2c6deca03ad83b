"""The matching data type and the validator that certifies algorithm output.

Bottlenecks are stored and compared as exact squared lengths; only the CLI
renders them as decimals.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError
from .geometry import PointSet, segments_cross_coords


@dataclass(frozen=True)
class Matching:
    """Vertex-disjoint point-id pairs with a cached exact bottleneck."""

    pairs: tuple[tuple[int, int], ...]
    bottleneck_sq: int

    @classmethod
    def of(cls, pts: PointSet, pairs) -> "Matching":
        """Normalise the pairs to ``a < b`` and sort them. Raises
        UnknownPointId for an id outside ``pts`` and FormatError for a pair
        of a point with itself."""
        norm = tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))
        for a, b in norm:
            pts.check_id(a)
            pts.check_id(b)
            if a == b:
                raise FormatError(f"pair ({a}, {b}) matches a point with itself")
        bq = max((pts.sq_dist(a, b) for a, b in norm), default=0)
        return cls(pairs=norm, bottleneck_sq=bq)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def covered(self) -> set[int]:
        out: set[int] = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return out


@dataclass(frozen=True)
class ValidationReport:
    is_matching: bool
    is_plane: bool
    size: int
    bottleneck_sq: int
    violations: tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]


def _crossing_candidates(pts: PointSet, pairs):
    """Candidate edge index pairs whose bounding boxes overlap.

    Exact crossing requires overlapping bounding boxes, so bucketing the
    boxes on a grid sized to the typical edge never misses a crossing pair.
    Up to 64 edges every pair of boxes is compared, in row-major order.
    """
    m = len(pairs)
    xs, ys = pts.xs, pts.ys
    boxes = []
    dims = []
    for a, b in pairs:
        x0, x1 = (xs[a], xs[b]) if xs[a] <= xs[b] else (xs[b], xs[a])
        y0, y1 = (ys[a], ys[b]) if ys[a] <= ys[b] else (ys[b], ys[a])
        boxes.append((x0, y0, x1, y1))
        dims.append(max(x1 - x0, y1 - y0))
    if m <= 64:
        for i in range(m):
            bx = boxes[i]
            for j in range(i + 1, m):
                by = boxes[j]
                if not (bx[0] > by[2] or by[0] > bx[2] or bx[1] > by[3] or by[1] > bx[3]):
                    yield i, j
        return
    dims.sort()
    cell = max(1, dims[(19 * m) // 20] + 1)
    buckets: dict[tuple[int, int], list[int]] = {}
    for idx, (x0, y0, x1, y1) in enumerate(boxes):
        for cx in range(x0 // cell, x1 // cell + 1):
            for cy in range(y0 // cell, y1 // cell + 1):
                buckets.setdefault((cx, cy), []).append(idx)
    seen: set[tuple[int, int]] = set()
    for members in buckets.values():
        k = len(members)
        for ii in range(k):
            i = members[ii]
            bx = boxes[i]
            for jj in range(ii + 1, k):
                j = members[jj]
                key = (i, j) if i < j else (j, i)
                if key in seen:
                    continue
                seen.add(key)
                by = boxes[j]
                if bx[0] > by[2] or by[0] > bx[2] or bx[1] > by[3] or by[1] > bx[3]:
                    continue
                yield key


def validate(pts: PointSet, m: Matching) -> ValidationReport:
    """Certify a matching: vertex-disjointness, planarity, size, bottleneck.

    ``violations`` lists every shared-vertex pair and every crossing pair.
    """
    for a, b in m.pairs:
        pts.check_id(a)
        pts.check_id(b)
    violations: list[tuple[str, tuple[int, int], tuple[int, int]]] = []
    seen: dict[int, tuple[int, int]] = {}
    is_matching = True
    for pair in m.pairs:
        for v in pair:
            if v in seen:
                is_matching = False
                violations.append(("shared_vertex", seen[v], pair))
            else:
                seen[v] = pair
    xs, ys = pts.xs, pts.ys
    is_plane = True
    pairs = m.pairs
    for i, j in _crossing_candidates(pts, pairs):
        a, b = pairs[i]
        c, d = pairs[j]
        if segments_cross_coords(
            xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
        ):
            is_plane = False
            violations.append(("crossing", pairs[i], pairs[j]))
    bq = max((pts.sq_dist(a, b) for a, b in pairs), default=0)
    return ValidationReport(
        is_matching=is_matching,
        is_plane=is_plane,
        size=len(pairs),
        bottleneck_sq=bq,
        violations=tuple(violations),
    )
