"""Tests for parsing, generation, SVG rendering and the CLI commands."""
from __future__ import annotations

import json

import pytest

from planematch.cli import main
from planematch.errors import BadParameters, DuplicatePoint, FormatError
from planematch.geometry import SCALE
from planematch.io import format_points, gen_points, parse_points, render_svg
from planematch.matching import Matching


def test_parse_two_points():
    pts = parse_points("2\n0 0\n1 0\n")
    assert pts.n == 2
    assert pts.xs == [0, SCALE]


def test_parse_count_mismatch():
    with pytest.raises(FormatError):
        parse_points("3\n0 0\n1 0\n")


def test_parse_duplicate():
    with pytest.raises(DuplicatePoint):
        parse_points("2\n0 0\n0 0\n")


def test_parse_too_many_decimals():
    with pytest.raises(FormatError):
        parse_points("1\n0.1234567 0\n")


def test_parse_negative_and_decimal_exact():
    pts = parse_points("2\n-1.5 2.000001\n3 -0.000001\n")
    assert pts.xs == [-1500000, 3000000]
    assert pts.ys == [2000001, -1]


def test_points_round_trip():
    pts = gen_points(30, 11, "uniform")
    again = parse_points(format_points(pts))
    assert again.xs == pts.xs and again.ys == pts.ys


def test_gen_deterministic():
    a = gen_points(4, 42, "uniform")
    b = gen_points(4, 42, "uniform")
    assert a.xs == b.xs and a.ys == b.ys


def test_gen_clustered_small():
    pts = gen_points(2, 0, "clustered")
    assert pts.n == 2


def test_gen_bad_parameters():
    with pytest.raises(BadParameters):
        gen_points(1, 0, "uniform")
    with pytest.raises(BadParameters):
        gen_points(9, 0, "star-chain")
    with pytest.raises(BadParameters):
        gen_points(4, 0, "nonsense")


def test_gen_star_chain_is_tight_family():
    from planematch.blossom import AbstractGraph, max_matching
    from planematch.proximity import disk_graph, emst5

    pts = gen_points(11, 7, "star-chain")
    g = disk_graph(pts, SCALE * SCALE)
    tree = emst5(pts)
    assert set(g.edges()) == set(tree.edges())
    ag = AbstractGraph.from_edges(pts.n, g.edges())
    assert len(max_matching(ag)) == 2


def test_render_svg_structure():
    pts = parse_points("2\n0 0\n1 0\n")
    m = Matching.of(pts, [(0, 1)])
    svg = render_svg(pts, m)
    assert svg.count(b"<circle") == 2
    assert svg.count(b"<line") == 1
    assert render_svg(pts, m) == svg  # byte-identical reruns
    empty = render_svg(pts, Matching.of(pts, []))
    assert empty.count(b"<line") == 0


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_cli_exact(capsys, tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("4\n0 0\n1 0\n0 1\n1 1\n")
    code, rep = run_cli(capsys, "exact", "--input", str(f))
    assert code == 0
    assert rep["algorithm"] == "exact"
    assert rep["size"] == 2
    assert rep["plane"] is True
    assert rep["bottleneck"] == pytest.approx(1.0)


def test_cli_approx1_oracle(capsys):
    code, rep = run_cli(
        capsys, "approx1", "--n", "10", "--seed", "3", "--oracle"
    )
    assert code == 0
    assert rep["checks"]["size_bound"] is True
    assert rep["checks"]["length_bound"] is True


def test_cli_approx2_oracle_with_svg_json(capsys, tmp_path):
    svg = tmp_path / "m.svg"
    js = tmp_path / "rep.json"
    code, rep = run_cli(
        capsys,
        "approx2",
        "--n", "12", "--seed", "5", "--oracle",
        "--svg", str(svg), "--json", str(js),
    )
    assert code == 0
    assert rep["checks"]["size_bound"] and rep["checks"]["length_bound"]
    assert svg.read_bytes().startswith(b"<?xml")
    assert json.loads(js.read_text())["n"] == 12


def test_cli_one_third(capsys):
    code, rep = run_cli(capsys, "one-third", "--n", "14", "--seed", "2", "--oracle")
    assert code == 0
    assert rep["cap_exceeded"] is False
    assert rep["checks"]["size_bound"] and rep["checks"]["length_bound"]
    assert rep["checks"]["crossing_lower_bound"]
    assert rep["checks"]["crossing_bracket"]
    assert 0 < rep["lambda_lower_bound"]


def test_cli_udg_match_star_chain(capsys):
    code, rep = run_cli(capsys, "udg-match", "--n", "16", "--mode", "star-chain")
    assert code == 0
    assert rep["size"] == 3
    assert rep["checks"]["size_bound"] and rep["checks"]["length_bound"]


def test_cli_crossing_bottleneck(capsys, tmp_path):
    code, rep = run_cli(capsys, "crossing-bottleneck", "--n", "8", "--seed", "1", "--oracle")
    assert code == 0
    assert rep["checks"]["size_bound"] and rep["checks"]["length_bound"]
    assert rep["checks"]["crossing_bracket"]
    assert rep["lambda_lower_bound"] <= rep["bottleneck"] <= 2 * rep["lambda_lower_bound"]
    # Four points on a line at 0, 1, 3, 4: L = 1 and the bottleneck is 1.
    f = tmp_path / "pts.txt"
    f.write_text("4\n0 0\n1 0\n3 0\n4 0\n")
    code, rep = run_cli(capsys, "crossing-bottleneck", "--input", str(f))
    assert code == 0
    assert rep["lambda_lower_bound"] == 1.0 and rep["bottleneck"] == 1.0
    assert rep["checks"]["crossing_bracket"]


def test_cli_validate_round_trip(capsys, tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("4\n0 0\n1 0\n2 0\n3 0\n")
    rep_file = tmp_path / "m.json"
    rep_file.write_text(json.dumps({"edges": [[0, 1], [2, 3]]}))
    code, rep = run_cli(
        capsys, "validate", "--input", str(f), "--matching", str(rep_file)
    )
    assert code == 0
    assert rep["plane"] and rep["matching"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": [[0, 1], [1, 2]]}))
    code, rep = run_cli(
        capsys, "validate", "--input", str(f), "--matching", str(bad)
    )
    assert code == 1
    assert rep["matching"] is False


def test_cli_gen_and_bench(capsys, tmp_path):
    out = tmp_path / "pts.txt"
    code = main(["gen", "--n", "6", "--seed", "9", "--output", str(out)])
    assert code == 0
    pts = parse_points(out.read_text())
    assert pts.n == 6
    capsys.readouterr()
    code = main([
        "bench", "--algorithm", "approx2", "--sizes", "8,16", "--seed", "1",
    ])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["n"] for row in report["rows"]] == [8, 16]
    assert all(row["plane"] for row in report["rows"])


def test_cli_error_object(capsys):
    code, rep = run_cli(capsys, "exact", "--n", "7", "--seed", "0")
    assert code == 2
    assert rep["error"]["code"] == "odd_point_count"


def test_cli_error_on_unreadable_file(capsys, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, rep = run_cli(capsys, "approx1", "--input", missing)
    assert code == 2
    assert rep["error"]["code"] == "format_error"
    assert missing in rep["error"]["message"]
    f = tmp_path / "pts.txt"
    f.write_text("2\n0 0\n1 0\n")
    code, rep = run_cli(capsys, "validate", "--input", str(f), "--matching", missing)
    assert code == 2
    assert rep["error"]["code"] == "format_error"
    code, rep = run_cli(capsys, "approx2", "--input", str(tmp_path))
    assert code == 2
    assert rep["error"]["code"] == "format_error"


@pytest.mark.parametrize(
    "text",
    [
        '{"edges": [[0, 1]',
        '{"edges": [[0, 1, 2]]}',
        '{"edges": [["a", 1]]}',
        '{"edges": [[0, true]]}',
        '{"edges": [[0.0, 1]]}',
        '{"edges": [0, 1]}',
        '{"edges": {"0": 1}}',
        '[[0, 1]]',
        '"edges"',
        "",
    ],
)
def test_cli_error_on_malformed_matching(capsys, tmp_path, text):
    f = tmp_path / "pts.txt"
    f.write_text("2\n0 0\n1 0\n")
    bad = tmp_path / "m.json"
    bad.write_text(text)
    code, rep = run_cli(capsys, "validate", "--input", str(f), "--matching", str(bad))
    assert code == 2
    assert rep["error"]["code"] == "format_error"
    assert str(bad) in rep["error"]["message"]


def test_cli_error_on_oversize(capsys):
    code, rep = run_cli(capsys, "exact", "--n", "18", "--seed", "0")
    assert code == 2
    assert rep["error"]["code"] == "instance_too_large"
