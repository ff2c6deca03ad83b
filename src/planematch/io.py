"""Point-file parsing, deterministic instance generation and SVG rendering.

The text format is ASCII: one integer count line followed by that many
"x y" lines with at most six decimal places; coordinates round-trip
losslessly through the scaled-integer representation.
"""
from __future__ import annotations

import math
import re
from typing import Optional

import numpy as np

from ._nogc import nogc
from .errors import BadParameters, FormatError, InvariantViolation
from .geometry import SCALE, PointSet
from .matching import Matching

# The point-file grammar is ASCII: a coordinate is an optional sign, ASCII
# digits and at most six decimals; spaces and tabs separate and surround the
# values of a line; a line ends at "\n", "\r\n" or the end of the text.
# ``_ROW_RE`` matches one coordinate line or one blank line; the whole part
# keeps its sign, so int(whole + decimals padded to six) is the scaled value.
_COUNT = r"[+-]?[0-9]+"
_COORD = rf"({_COUNT})(?:\.([0-9]{{1,6}}))?"
_COORD_RE = re.compile(_COORD)
_ROW_RE = re.compile(rf"[ \t]*(?:{_COORD}[ \t]+{_COORD}[ \t]*)?(?:\r?\n|\Z)")
_HEAD_RE = re.compile(rf"(?:[ \t]*\r?\n)*[ \t]*({_COUNT})[ \t]*(?:\r?\n|\Z)")
_COUNT_RE = re.compile(rf"[ \t]*({_COUNT})[ \t]*")
_BLANKS_RE = re.compile(r"[ \t]+")


def parse_coord(token: str) -> int:
    """Parse one decimal coordinate into its scaled integer, exactly."""
    m = _COORD_RE.fullmatch(token)
    if not m:
        raise FormatError(f"bad coordinate {token!r} (up to 6 decimals allowed)")
    whole, frac = m.group(1, 2)
    try:
        return int(whole + (frac or "").ljust(6, "0"))
    except ValueError:  # past Python's limit on the digits int() reads
        raise FormatError(
            f"coordinate {token[:12]!r}... has too many digits ({len(token)} characters)"
        ) from None


def parse_count(token: str) -> int:
    """Parse a point count as a point file's count line spells it: an
    optional sign and ASCII digits, with spaces and tabs around them."""
    m = _COUNT_RE.fullmatch(token)
    if not m:
        raise FormatError(f"bad count {token!r}")
    try:
        return int(m.group(1))
    except ValueError:  # past Python's limit on the digits int() reads
        raise FormatError(f"count has too many digits ({len(m.group(1))})") from None


def format_coord(scaled: int) -> str:
    """Render a scaled integer back to the canonical 6-decimal text form."""
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, SCALE)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:06d}".rstrip("0")


def _lines(text: str) -> list[str]:
    """The non-blank lines of ``text``, without their line ending and
    without surrounding spaces and tabs. A "\r" is part of the ending only
    before "\n"."""
    pieces = text.split("\n")
    last = len(pieces) - 1
    out = []
    for i, piece in enumerate(pieces):
        if i < last and piece.endswith("\r"):
            piece = piece[:-1]
        piece = piece.strip(" \t")
        if piece:
            out.append(piece)
    return out


def _format_error(text: str, start: int, n: Optional[int]) -> FormatError:
    """The error for a text whose count line (``n`` None) or whose
    coordinate line at offset ``start`` breaks the grammar. Errors come in
    a fixed order: no line at all, the count line, the number of coordinate
    lines, then the first bad line."""
    lines = _lines(text)
    if not lines:
        return FormatError("empty input")
    if n is None:
        return FormatError(f"first line must be the point count: {lines[0]!r}")
    if len(lines) - 1 != n:
        return FormatError(f"expected {n} coordinate lines, got {len(lines) - 1}")
    line = _lines(text[start:])[0]
    parts = _BLANKS_RE.split(line)
    if len(parts) != 2:
        return FormatError(f"expected 'x y', got {line!r}")
    for token in parts:
        parse_coord(token)
    raise InvariantViolation(f"the row scan rejected the valid line {line!r}")


@nogc
def parse_points(text: str | bytes) -> PointSet:
    """Parse the point-file format: a count line, then "x y" lines.

    One scan: the count line, then ``_ROW_RE`` matched line after line, each
    match starting where the previous one ended, so no character goes
    unread. Coordinates stay exact Python ints at any magnitude.
    """
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    head = _HEAD_RE.match(text)
    if head is None:
        raise _format_error(text, 0, None)
    count = head.group(1)
    try:
        n = int(count)
    except ValueError:  # past Python's limit on the digits int() reads
        raise FormatError(f"point count has too many digits ({len(count)})") from None
    pos = head.end()
    xs: list[int] = []
    ys: list[int] = []
    try:
        for m in _ROW_RE.finditer(text, pos):
            if m.start() != pos:
                break
            pos = m.end()
            wx, fx, wy, fy = m.groups("")
            if wx:
                xs.append(int(wx + fx.ljust(6, "0")))
                ys.append(int(wy + fy.ljust(6, "0")))
    except ValueError:  # a coordinate past the digit limit; parse_coord names it
        raise _format_error(text, m.start(), n) from None
    if pos != len(text):
        raise _format_error(text, pos, n)
    if len(xs) != n:
        raise FormatError(f"expected {n} coordinate lines, got {len(xs)}")
    return PointSet(zip(xs, ys))  # raises DuplicatePoint on repeats


def format_points(pts: PointSet) -> str:
    lines = [str(pts.n)]
    for i in range(pts.n):
        lines.append(f"{format_coord(pts.xs[i])} {format_coord(pts.ys[i])}")
    return "\n".join(lines) + "\n"


def _star_chain_coords(k: int) -> list[tuple[int, int]]:
    """Chain of k five-spoke stars sharing degree-two connector leaves.

    All tree edges are just under unit length and every other pairwise
    distance is comfortably above one, so the unit disk graph is exactly the
    tree. Spokes sit 72 degrees apart; the chain heading alternates so the
    layout never folds back on itself.
    """
    scale = 1.0 - 5e-6
    coords: list[tuple[int, int]] = []

    def add(x: float, y: float) -> int:
        coords.append((round(x * scale * SCALE), round(y * scale * SCALE)))
        return len(coords) - 1

    theta = 0.0
    cx, cy = 0.0, 0.0
    for i in range(k):
        add(cx, cy)
        # Spoke slots: 0 = outgoing connector, 2 or 3 = incoming connector.
        in_slot = None
        if i > 0:
            in_slot = 2 if i % 2 == 1 else 3
        used = {0} if i < k - 1 else set()
        if in_slot is not None:
            used.add(in_slot)
        for s in range(5):
            if s in used:
                continue
            ang = math.radians(theta + 72 * s)
            add(cx + math.cos(ang), cy + math.sin(ang))
        if i < k - 1:
            ang = math.radians(theta)
            bx, by = cx + math.cos(ang), cy + math.sin(ang)
            add(bx, by)  # the connector, shared leaf of stars i and i+1
            # The next centre continues straight through the connector; its
            # local frame rotates so the incoming spoke lands on the chosen
            # slot, bending the frame +-36 degrees alternately.
            cx, cy = bx + math.cos(ang), by + math.sin(ang)
            nxt_slot = 2 if (i + 1) % 2 == 1 else 3
            theta = (theta + 180) - 72 * nxt_slot
    return coords


def gen_points(n: int, seed: int, mode: str) -> PointSet:
    """Deterministic instance generation.

    uniform: n distinct points on the 6-decimal grid in [0, 1000]^2.
    clustered: gaussian blobs around up to n//10 uniform centres.
    star-chain: the chained five-spoke-star family whose unit disk graph is
    a tree with maximum matching (n-1)/5; requires n = 5k+1, or an even n
    with n-2 = 5k+1, which is padded with one far-away close pair.

    The seed must be at least 0. Uniform and clustered points are distinct
    points of the grid, so n above its (1000 * SCALE + 1)^2 points is
    rejected before anything is drawn.

    The order of the draws from ``PCG64(seed)`` fixes every instance, and
    ``tests/test_cli.py`` pins it. Both modes make attempts until n
    distinct points are drawn; an attempt that hits a drawn point is lost.
    Each attempt adds at most one point, so the n - d attempts after d
    distinct points are drawn as one batch, which is exactly what one
    attempt at a time would draw. Uniform draws a batch's x, then its y.
    Clustered draws the k = max(1, n // 10) centres first, as one (k, 2)
    batch, then per attempt a centre index in [0, k), the x normal and the
    y normal, each by its own scalar call: numpy draws a bounded index by
    Lemire's method from 32-bit halves of the generator's 64-bit words and
    a normal from whole words, so drawing the indices together would read
    the stream in another order. An attempt's coordinate is the centre plus
    5 * SCALE times the normal, truncated towards zero and clamped to the
    square. Points are deduplicated as the codes x * (1000 * SCALE + 1) + y
    by a sort and a mask rather than by ``np.unique``, whose default path
    imports numpy.ma.
    """
    if n < 2:
        raise BadParameters(f"n must be at least 2, got {n}")
    if seed < 0:
        raise BadParameters(f"seed must be at least 0, got {seed}")
    top = 1000 * SCALE
    grid = (top + 1) ** 2
    if mode in ("uniform", "clustered") and n > grid:
        raise BadParameters(f"n = {n} exceeds the {grid} grid points {mode} mode draws from")
    if mode == "star-chain":
        if n % 5 == 1 and n >= 6:
            return PointSet(_star_chain_coords((n - 1) // 5))
        if n % 2 == 0 and (n - 2) % 5 == 1 and n >= 8:
            base = _star_chain_coords((n - 3) // 5)
            far = 10**10
            base.append((far, far))
            base.append((far + SCALE // 2, far))
            return PointSet(base)
        raise BadParameters(
            "star-chain needs n = 5k+1, or even n with n-2 = 5k+1"
        )
    rng = np.random.Generator(np.random.PCG64(seed))
    if mode == "uniform":

        def attempts(m: int) -> tuple[np.ndarray, np.ndarray]:
            xs = rng.integers(0, top + 1, size=m)
            return xs, rng.integers(0, top + 1, size=m)

    elif mode == "clustered":
        k = max(1, n // 10)
        centers = rng.integers(0, top + 1, size=(k, 2))
        index, normal = rng.integers, rng.standard_normal

        def attempts(m: int) -> tuple[np.ndarray, np.ndarray]:
            i, zx, zy = [0] * m, [0.0] * m, [0.0] * m
            for a in range(m):
                i[a], zx[a], zy[a] = index(0, k), normal(), normal()
            c = centers[np.array(i, dtype=np.int64)]
            # Per element, the double the scalar form int(c + normal(0.0,
            # 5.0) * SCALE) truncates: normal is 0.0 + 5.0 * standard_normal,
            # which differs only in the sign of a zero, lost in the sum.
            xs = (c[:, 0] + 5.0 * np.array(zx) * SCALE).astype(np.int64)
            ys = (c[:, 1] + 5.0 * np.array(zy) * SCALE).astype(np.int64)
            return np.clip(xs, 0, top), np.clip(ys, 0, top)

    else:
        raise BadParameters(f"unknown mode {mode!r}")
    # Codes below grid < 2^63 sort as the points do, x first.
    codes = np.empty(0, dtype=np.int64)
    while len(codes) < n:
        xs, ys = attempts(n - len(codes))
        codes = np.sort(np.concatenate((codes, xs * (top + 1) + ys)))
        codes = codes[np.diff(codes, prepend=-1) != 0]
    xs, ys = np.divmod(codes, top + 1)
    return PointSet(zip(xs.tolist(), ys.tolist()))


def render_svg(pts: PointSet, m: Matching) -> bytes:
    """Deterministic SVG: one circle per point, one line per matched edge,
    viewBox set to the bounding box plus a five percent margin. Raises
    BadParameters for a coordinate or a viewBox past the double range."""
    if pts.n == 0:
        return b'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1"/>\n'
    try:
        xs = [x / SCALE for x in pts.xs]
        ys = [y / SCALE for y in pts.ys]
    except OverflowError:
        raise BadParameters("cannot draw coordinates past the double range") from None
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-6)
    margin = 0.05 * span
    vb = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
    if not all(map(math.isfinite, vb)):
        raise BadParameters("cannot draw a viewBox past the double range")
    r = span / 200 + 1e-9
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="{:.6f} {:.6f} {:.6f} {:.6f}">'.format(*vb),
    ]
    for a, b in m.pairs:
        out.append(
            '<line x1="{:.6f}" y1="{:.6f}" x2="{:.6f}" y2="{:.6f}" '
            'stroke="black" stroke-width="{:.6f}"/>'.format(
                xs[a], ys[a], xs[b], ys[b], r / 2
            )
        )
    for i in range(pts.n):
        out.append(
            '<circle cx="{:.6f}" cy="{:.6f}" r="{:.6f}" fill="crimson"/>'.format(
                xs[i], ys[i], r
            )
        )
    out.append("</svg>")
    return ("\n".join(out) + "\n").encode("utf-8")
