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
_COORD = r"([+-]?[0-9]+)(?:\.([0-9]{1,6}))?"
_COORD_RE = re.compile(_COORD)
_ROW_RE = re.compile(rf"[ \t]*(?:{_COORD}[ \t]+{_COORD}[ \t]*)?(?:\r?\n|\Z)")
_HEAD_RE = re.compile(r"(?:[ \t]*\r?\n)*[ \t]*([+-]?[0-9]+)[ \t]*(?:\r?\n|\Z)")
_BLANKS_RE = re.compile(r"[ \t]+")


def parse_coord(token: str) -> int:
    """Parse one decimal coordinate into its scaled integer, exactly."""
    m = _COORD_RE.fullmatch(token)
    if not m:
        raise FormatError(f"bad coordinate {token!r} (up to 6 decimals allowed)")
    whole, frac = m.group(1, 2)
    return int(whole + (frac or "").ljust(6, "0"))


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
    n = int(head.group(1))
    pos = head.end()
    xs: list[int] = []
    ys: list[int] = []
    for m in _ROW_RE.finditer(text, pos):
        if m.start() != pos:
            break
        pos = m.end()
        wx, fx, wy, fy = m.groups("")
        if wx:
            xs.append(int(wx + fx.ljust(6, "0")))
            ys.append(int(wy + fy.ljust(6, "0")))
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
    """
    if n < 2:
        raise BadParameters(f"n must be at least 2, got {n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if mode == "uniform":
        coords: set[tuple[int, int]] = set()
        while len(coords) < n:
            xs = rng.integers(0, 1000 * SCALE + 1, size=n - len(coords))
            ys = rng.integers(0, 1000 * SCALE + 1, size=n - len(coords))
            coords.update(zip(map(int, xs), map(int, ys)))
        return PointSet(sorted(coords))
    if mode == "clustered":
        k = max(1, n // 10)
        centers = rng.integers(0, 1000 * SCALE + 1, size=(k, 2))
        coords = set()
        while len(coords) < n:
            c = centers[int(rng.integers(0, k))]
            dx = rng.normal(0.0, 5.0) * SCALE
            dy = rng.normal(0.0, 5.0) * SCALE
            x = min(max(int(c[0] + dx), 0), 1000 * SCALE)
            y = min(max(int(c[1] + dy), 0), 1000 * SCALE)
            coords.add((x, y))
        return PointSet(sorted(coords))
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
    raise BadParameters(f"unknown mode {mode!r}")


def render_svg(pts: PointSet, m: Matching) -> bytes:
    """Deterministic SVG: one circle per point, one line per matched edge,
    viewBox set to the bounding box plus a five percent margin."""
    if pts.n == 0:
        return b'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1"/>\n'
    xs = [x / SCALE for x in pts.xs]
    ys = [y / SCALE for y in pts.ys]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    span = max(x1 - x0, y1 - y0, 1e-6)
    margin = 0.05 * span
    vb = (x0 - margin, y0 - margin, (x1 - x0) + 2 * margin, (y1 - y0) + 2 * margin)
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
