"""The point-file grammar: the one-scan parser against a frozen per-line
reference, and the ASCII-only rules."""
from __future__ import annotations

import contextlib
import io as stdio
import json
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planematch.cli import main
from planematch.errors import FormatError, PlaneMatchError
from planematch.geometry import SCALE, PointSet
from planematch.io import parse_points

# ---------------------------------------------------------------------------
# Frozen reference: the per-line parser that the one-scan parser replaced,
# restricted to the ASCII grammar. Lines split only at "\n" (a "\r" right
# before it belongs to the line ending), only spaces and tabs strip and
# separate values, and only ASCII digits are digits. Do not edit it to make
# a test pass: it is the specification the scan is checked against.

_REF_NUM_RE = re.compile(r"^[+-]?([0-9]+)(?:\.([0-9]{1,6}))?$")


def ref_parse_coord(token: str) -> int:
    m = _REF_NUM_RE.match(token)
    if not m:
        raise FormatError(f"bad coordinate {token!r} (up to 6 decimals allowed)")
    whole, frac = m.group(1), m.group(2) or ""
    value = int(whole) * SCALE + int(frac.ljust(6, "0") or 0)
    if token.lstrip().startswith("-"):
        value = -value
    return value


def ref_parse_points(text: str | bytes) -> PointSet:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FormatError(f"input is not UTF-8: {exc}") from exc
    pieces = text.split("\n")
    ends = [p[:-1] if i < len(pieces) - 1 and p.endswith("\r") else p for i, p in enumerate(pieces)]
    lines = [ln.strip(" \t") for ln in ends if ln.strip(" \t")]
    if not lines:
        raise FormatError("empty input")
    if not re.fullmatch(r"[+-]?[0-9]+", lines[0]):
        raise FormatError(f"first line must be the point count: {lines[0]!r}")
    n = int(lines[0])
    if n < 0 or len(lines) - 1 != n:
        raise FormatError(f"expected {n} coordinate lines, got {len(lines) - 1}")
    coords = []
    for ln in lines[1:]:
        parts = re.split(r"[ \t]+", ln)
        if len(parts) != 2:
            raise FormatError(f"expected 'x y', got {ln!r}")
        coords.append((ref_parse_coord(parts[0]), ref_parse_coord(parts[1])))
    return PointSet(coords)


# ---------------------------------------------------------------------------


def outcome(parse, text):
    """Coordinates, or the error's type and message."""
    try:
        pts = parse(text)
    except PlaneMatchError as exc:
        return type(exc).__name__, str(exc)
    return pts.xs, pts.ys


@st.composite
def coordinate(draw):
    """(token, scaled value): a sign, leading zeros, a whole part up to past
    2^63, and zero to six decimals."""
    sign = draw(st.sampled_from(["", "+", "-"]))
    whole = draw(st.one_of(st.integers(0, 10**4), st.integers(2**63 - 5, 2**80)))
    zeros = draw(st.sampled_from(["", "0", "00"]))
    frac = draw(st.text("0123456789", max_size=6))
    token = sign + zeros + str(whole) + ("." + frac if frac else "")
    value = whole * SCALE + int(frac.ljust(6, "0"))
    return token, -value if sign == "-" else value


BLANKS = st.sampled_from(["", " ", "\t", "  ", " \t "])
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t", "\t \t"])
ENDINGS = st.sampled_from(["\n", "\r\n"])


@st.composite
def point_file(draw):
    """(text, xs, ys) of a valid point file in every allowed layout: CRLF
    or LF per line, tabs, blank lines, surrounding blanks, signs, 0 to 6
    decimals and coordinates above 2^63, with or without a final newline."""
    rows = draw(st.lists(st.tuples(coordinate(), coordinate()), max_size=12,
                         unique_by=lambda r: (r[0][1], r[1][1])))
    count = draw(st.sampled_from(["", "+", "0"])) + str(len(rows))
    lines = [count] + [x + draw(SEPARATORS) + y for (x, _), (y, _) in rows]
    out = []
    for line in lines:
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(BLANKS) + draw(ENDINGS))
        out.append(draw(BLANKS) + line + draw(BLANKS) + draw(ENDINGS))
    text = "".join(out)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, [x for (_, x), _ in rows], [y for _, (_, y) in rows]


# Characters a malformed file may gain: other whitespace and line breaks,
# underscores, non-ASCII digits, stray signs and dots, letters.
HOSTILE = st.sampled_from(
    list("0123456789 \t\r\n.+-_eE,x") + ["\x0b", "\x0c", "\x85", "\u2028", "\u00a0", "\u0663", "\uff11", "\ufeff"]
)


@st.composite
def malformed_file(draw):
    """A valid point file with a few characters inserted, deleted or
    replaced: mostly malformed, sometimes still valid."""
    text = list(draw(point_file())[0])
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        if edit == "insert" or i == len(text):
            text.insert(i, draw(HOSTILE))
        elif edit == "delete":
            del text[i]
        else:
            text[i] = draw(HOSTILE)
    return "".join(text)


@given(point_file(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_parse_valid_files_equal_the_reference(case, as_bytes):
    text, xs, ys = case
    data = text.encode() if as_bytes else text
    assert outcome(parse_points, data) == outcome(ref_parse_points, data) == (xs, ys)


@given(malformed_file(), st.booleans())
@settings(max_examples=500, deadline=None)
def test_parse_malformed_files_fail_like_the_reference(text, as_bytes):
    data = text.encode() if as_bytes else text
    assert outcome(parse_points, data) == outcome(ref_parse_points, data)


@given(malformed_file())
@settings(max_examples=60, deadline=None)
def test_cli_reports_malformed_files_as_format_errors(text):
    try:
        ref_parse_points(text)
    except FormatError as exc:
        want = str(exc)
    else:
        return  # still a valid file
    code, rep = run_approx2(text.encode())
    assert code != 0
    assert rep == {"error": {"code": "format_error", "message": want}}


@given(st.binary(max_size=40))
@settings(max_examples=200, deadline=None)
def test_parse_arbitrary_bytes_like_the_reference(data):
    assert outcome(parse_points, data) == outcome(ref_parse_points, data)


def run_approx2(data: bytes):
    fd, path = tempfile.mkstemp(suffix=".txt")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["approx2", "--input", path])
    finally:
        os.unlink(path)
    return code, json.loads(out.getvalue())


TEN_ROWS = "".join(f"{k} 0\n" for k in range(10))
THREE_ROWS = "0 0\n1 0\n2 0\n"


@pytest.mark.parametrize(
    "text,message",
    [
        ("1_0\n" + TEN_ROWS, "first line must be the point count: '1_0'"),
        ("\u0663\n" + THREE_ROWS, "first line must be the point count: '\u0663'"),
        ("3\n0 0\n1 0\n\u0663 0\n", "bad coordinate '\u0663' (up to 6 decimals allowed)"),
        ("3\n0 0\n1 0\n2 1_0\n", "bad coordinate '1_0' (up to 6 decimals allowed)"),
        ("2\n0 0\x0b1 0\n", "expected 2 coordinate lines, got 1"),
        ("2\r0 0\r1 0\r", "first line must be the point count: '2\\r0 0\\r1 0\\r'"),
        ("2\r\n0 0\r\n1 0\r", "bad coordinate '0\\r' (up to 6 decimals allowed)"),
        ("2\n0 0\n1\u00a00\n", "expected 'x y', got '1\\xa00'"),
    ],
)
def test_parse_grammar_is_ascii(text, message):
    for data in (text, text.encode()):
        with pytest.raises(FormatError) as err:
            parse_points(data)
        assert str(err.value) == message
    code, rep = run_approx2(text.encode())
    assert code == 2
    assert rep == {"error": {"code": "format_error", "message": message}}


def test_parse_keeps_coordinates_past_2_63_exact():
    big = 2**64 + 1
    pts = parse_points(f"2\r\n\t-{big}.000001  +{big}\r\n\n 0.5 -0.000001")
    assert pts.xs == [-(big * SCALE + 1), 500000]
    assert pts.ys == [big * SCALE, -1]
