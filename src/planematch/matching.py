"""The matching data type and the validator that certifies algorithm output.

Bottlenecks are stored and compared as exact squared lengths; only the CLI
renders them as decimals.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Optional

import numpy as np

from ._nogc import nogc
from .errors import FormatError
from .geometry import PointSet, segments_cross_coords, sq_lengths


# From this many pairs up, ``Matching.of`` normalises the pairs in an int64
# id array and ``validate`` proves them vertex-disjoint with one bincount;
# below it Python loops are faster than numpy's per-call overhead. Crossing
# candidates take the box kernel at every size.
_ARRAY_MIN_PAIRS = 256


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
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        ends = _id_array(pts, pairs) if len(pairs) >= _ARRAY_MIN_PAIRS else None
        if ends is not None and not (ends[:, 0] == ends[:, 1]).any():
            lo, hi = ends.min(axis=1), ends.max(axis=1)
            order = np.lexsort((hi, lo))
            norm = tuple(zip(lo[order].tolist(), hi[order].tolist()))
            return cls(pairs=norm, bottleneck_sq=_bottleneck_sq(pts, norm, ends))
        norm = tuple(sorted((a, b) if a < b else (b, a) for a, b in pairs))
        for a, b in norm:
            pts.check_id(a)
            pts.check_id(b)
            if a == b:
                raise FormatError(f"pair ({a}, {b}) matches a point with itself")
        return cls(pairs=norm, bottleneck_sq=_bottleneck_sq(pts, norm))

    @property
    def size(self) -> int:
        return len(self.pairs)

    def covered(self) -> set[int]:
        out: set[int] = set()
        for a, b in self.pairs:
            out.add(a)
            out.add(b)
        return out


def _pair_array(pairs) -> Optional[np.ndarray]:
    """The sequence ``pairs`` as an (m, 2) int64 array, or None when an
    entry is not a pair of integers."""
    try:
        if not set(map(len, pairs)) <= {2}:
            return None
        flat = np.array(list(chain.from_iterable(pairs)))
    except (TypeError, OverflowError):
        return None
    if flat.dtype != np.int64:
        return None if len(flat) else np.zeros((0, 2), dtype=np.int64)
    return flat.reshape(-1, 2)


def _id_array(pts: PointSet, pairs) -> Optional[np.ndarray]:
    """``_pair_array`` of ``pairs`` when every entry is a point id of
    ``pts``; None otherwise, and the caller goes through the pairs one at a
    time."""
    ends = _pair_array(pairs)
    if ends is None or (len(ends) and (ends.min() < 0 or ends.max() >= pts.n)):
        return None
    return ends


def _bottleneck_sq(pts: PointSet, pairs, ends: Optional[np.ndarray] = None) -> int:
    """The largest squared length of the pairs, 0 for none: the max of
    ``sq_lengths`` when ``ends`` holds them, else of ``sq_dist``."""
    if ends is not None and len(ends):
        return int(sq_lengths(pts, ends[:, 0], ends[:, 1]).max())
    return max((pts.sq_dist(a, b) for a, b in pairs), default=0)


@dataclass(frozen=True)
class ValidationReport:
    is_matching: bool
    is_plane: bool
    size: int
    bottleneck_sq: int
    violations: tuple[tuple[str, tuple[int, int], tuple[int, int]], ...]


def _crossing_candidates(pts: PointSet, pairs, ends: Optional[np.ndarray] = None) -> list[tuple[int, int]]:
    """The index pairs (i, j), i < j, of the edges ``pairs`` whose bounding
    boxes meet, in row-major order: every pair that can cross. ``ends`` is
    ``pairs`` as an (m, 2) array when the caller has it."""
    if ends is None:
        ends = _pair_array(pairs)
    return _box_pairs(_boxes(pts.translated()[3], ends))


def _boxes(xy: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, ...]:
    """The bounding boxes (x0, y0, x1, y1) of the edges ``ends``, one array
    per side, over the translated coordinates ``xy``."""
    xs, ys = xy[:, 0], xy[:, 1]
    xa, xb, ya, yb = xs[ends[:, 0]], xs[ends[:, 1]], ys[ends[:, 0]], ys[ends[:, 1]]
    return np.minimum(xa, xb), np.minimum(ya, yb), np.maximum(xa, xb), np.maximum(ya, yb)


def _grid(m: int, dims) -> int:
    """The side of the grid cells for m boxes with the given sorted largest
    sides: just above the 95th percentile, so most boxes meet few cells."""
    return max(1, int(dims[(19 * m) // 20]) + 1)


def _box_pairs(box) -> list[tuple[int, int]]:
    """The index pairs (i, j), i < j, of the boxes ``box`` (``_boxes``) that
    meet, in row-major order.

    Each box is listed once per grid cell it meets (``_grid``'s rule), the
    list is sorted by cell, and every two boxes that share a cell form a
    pair; a box meeting more than m cells is compared with every box
    instead. Boxes that meet share a cell, so the pairs whose boxes meet,
    deduplicated by the code i * m + j, are all of them, in row-major
    order. The boxes and cell coordinates have the dtype of
    ``PointSet.translated``'s array, Python ints past ``INT64_SPAN``; the
    cell counts are capped, so they are int64.
    """
    m = len(box[0])
    if m < 2:
        return []
    cell = _grid(m, np.sort(np.maximum(box[2] - box[0], box[3] - box[1])))
    cx0, cy0 = box[0] // cell, box[1] // cell
    # Cells per axis, capped so that their product cannot overflow.
    wide = np.minimum(box[2] // cell - cx0 + 1, m + 1).astype(np.int64)
    high = np.minimum(box[3] // cell - cy0 + 1, m + 1).astype(np.int64)
    cells = wide * high
    big = cells > m
    cells[big] = 0
    owner = np.repeat(np.arange(m), cells)
    step = np.arange(len(owner)) - np.repeat(np.cumsum(cells) - cells, cells)
    cx = cx0[owner] + step // high[owner]
    cy = cy0[owner] + step % high[owner]
    if len(owner) and (int(cx.max()) + 1) * (int(cy.max()) + 1) * m < 1 << 63:
        order = np.argsort((cx * (int(cy.max()) + 1) + cy) * m + owner)
    else:
        order = np.lexsort((owner, cy, cx))
    cx, cy, owner = cx[order], cy[order], owner[order]
    # Entry p pairs with the later entries of its cell, up to ``stop``.
    starts = np.flatnonzero(np.append(True, (cx[1:] != cx[:-1]) | (cy[1:] != cy[:-1])))
    stop = np.repeat(np.append(starts[1:], len(owner)), np.diff(np.append(starts, len(owner))))
    later = stop - np.arange(len(owner)) - 1
    left = np.repeat(np.arange(len(owner)), later)
    right = left + 1 + np.arange(len(left)) - np.repeat(np.cumsum(later) - later, later)
    i, j = owner[left], owner[right]
    ok = _meet(box, i, j)
    codes = [i[ok] * m + j[ok]]
    everyone = np.arange(m)
    for k in np.flatnonzero(big).tolist():
        others = everyone[_meet(box, k, everyone) & (everyone != k)]
        codes.append(np.minimum(others, k) * m + np.maximum(others, k))
    # Sorted and deduplicated by hand: np.unique's default path imports
    # numpy.ma, which would cost more memory than the pairs.
    code = np.sort(np.concatenate(codes))
    code = code[np.diff(code, prepend=-1) != 0]
    return list(zip((code // m).tolist(), (code % m).tolist()))


def _meet(box, i, j) -> np.ndarray:
    """Whether the boxes (x0, y0, x1, y1) with indices i and j meet,
    elementwise."""
    x0, y0, x1, y1 = box
    return (x0[i] <= x1[j]) & (x0[j] <= x1[i]) & (y0[i] <= y1[j]) & (y0[j] <= y1[i])


@nogc
def validate(pts: PointSet, m: Matching) -> ValidationReport:
    """Certify a matching: vertex-disjointness, planarity, size, bottleneck.

    ``violations`` lists every shared-vertex pair, in the order the pairs
    and their ends come, then every crossing pair, in row-major order. A
    point of two pairs takes the pair-by-pair scan; otherwise one bincount
    proves that no point repeats.
    """
    pairs = m.pairs
    ends = _id_array(pts, pairs) if len(pairs) >= _ARRAY_MIN_PAIRS else None
    if ends is None:
        for a, b in pairs:
            pts.check_id(a)
            pts.check_id(b)
    violations: list[tuple[str, tuple[int, int], tuple[int, int]]] = []
    is_matching = True
    if ends is None or (len(ends) and np.bincount(ends.ravel()).max() > 1):
        seen: dict[int, tuple[int, int]] = {}
        for pair in pairs:
            for v in pair:
                if v in seen:
                    is_matching = False
                    violations.append(("shared_vertex", seen[v], pair))
                else:
                    seen[v] = pair
    xs, ys = pts.xs, pts.ys
    is_plane = True
    for i, j in _crossing_candidates(pts, pairs, ends):
        a, b = pairs[i]
        c, d = pairs[j]
        if segments_cross_coords(
            xs[a], ys[a], xs[b], ys[b], xs[c], ys[c], xs[d], ys[d]
        ):
            is_plane = False
            violations.append(("crossing", pairs[i], pairs[j]))
    bq = _bottleneck_sq(pts, pairs, ends)
    return ValidationReport(
        is_matching=is_matching,
        is_plane=is_plane,
        size=len(pairs),
        bottleneck_sq=bq,
        violations=tuple(violations),
    )
