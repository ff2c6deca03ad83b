"""Tests for parsing, generation, SVG rendering and the CLI commands."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import runpy
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from planematch import bottleneck_two, cli
from planematch.cli import main
from planematch.errors import BadParameters, DuplicatePoint, FormatError
from planematch.geometry import SCALE, PointSet
from planematch.io import format_points, gen_points, parse_points, render_svg
from planematch.matching import Matching, validate
from test_proximity import DROPPED_WITH_A_WRONG_TRIANGLE


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


@pytest.mark.parametrize("mode", ["uniform", "clustered", "star-chain"])
def test_gen_rejects_a_negative_seed(mode):
    with pytest.raises(BadParameters, match="seed"):
        gen_points(6, -1, mode)
    assert gen_points(6, 10**29, mode).n == 6


@pytest.mark.parametrize("mode", ["uniform", "clustered"])
def test_gen_rejects_more_points_than_the_grid_holds(mode):
    # Only counts above the bound: they are rejected before any allocation.
    grid = (1000 * SCALE + 1) ** 2
    for n in (grid + 1, 10**20):
        with pytest.raises(BadParameters, match="grid"):
            gen_points(n, 0, mode)


def test_gen_star_chain_is_tight_family():
    from planematch.blossom import AbstractGraph, max_matching
    from planematch.proximity import disk_graph, emst5

    pts = gen_points(11, 7, "star-chain")
    g = disk_graph(pts, SCALE * SCALE)
    tree = emst5(pts)
    assert set(g.edges()) == set(tree.edges())
    ag = AbstractGraph.from_edges(pts.n, g.edges())
    assert len(max_matching(ag)) == 2


# sha256 of repr((xs, ys)) of gen_points(n, seed, mode) for the seeds
# GEN_SEEDS (star-chain: seed 0), computed with the per-point loops that
# _reference_points keeps. Every timing and benchmark is measured on
# gen_points instances, so these pin the draw order that fixes them.
GEN_SEEDS = (0, 1, 31001, 10**29)
GEN_DIGESTS = {
    ("uniform", 2): (
        "f28c3c288b787f419592ca0bb111fe137e8ac032cc8e80057c9a2406ad9e3558",
        "500729a1900af464edb1365ca13f2acc3fa122c6ec36ec97c8b721bb4dd5bf34",
        "037318d683d3936bfb37491d4787385afccd90d661f44a17869e75de18bf358d",
        "ed0f713c82b73b2b8b5912ec04adcee1a71c3504cb2770c1f24876bf47a1eb55",
    ),
    ("uniform", 11): (
        "ff61f62db044a5ad8b12355cbdb8418faa67663e1fdd0fb69aa2159934bdaafd",
        "04733e10ac6b2947e699b1b77b05639238d6d915a82aa3f635c8e144d8181cd6",
        "2f90244f56e46bab5a8528850cfcfa8cd8f3802105e6c26d71bc633cfc1495b5",
        "0909456839d649d5f2ad68fd9f06145a4a2398cd036e495068f13cf4fd4f6098",
    ),
    ("uniform", 120): (
        "e377153785d4f17aff47b216dbdfc0050926c9944438ed1dc8d3d620720ce7bf",
        "12c02e1ab81dcb19502eab4cb3d864ea903d34cb9570e96a11133cec0138c417",
        "f2bb4aae96eb4d6563763b1e6a243f0b481e7074b94b5b54f290054a0d9a7f4a",
        "a729b05aeb3c0628eb9efec2f2fab97bbd4c5d34c2d5c677589c4edc281efe40",
    ),
    ("uniform", 300): (
        "b93f42addd344ac1344216c37dfd08b27e7cdf4a610a2d75e6b3aa9497a6a67a",
        "861a7a19a7662d72753fd024d951621fc53448ac95f37e473767ec9a66e10d45",
        "0b54fe387699124f5d64641f2cb6b89ae6fd83e278b7fe5231ba0ecac030b7ec",
        "25d8bab0a34923ac3606cc59eb475aada089ee641d790016bf619daef7c925b4",
    ),
    ("uniform", 5000): (
        "61e9a23baa0b04dbfa43dcec2bf93914afb8ec1a2d433ee0a9101e7aecd95d0e",
        "98e34af2a35a95592b95a6e8f71f056b89bed4bb2fef835439a62e9c93664351",
        "d6a9d3875963d11bb3865a048b2daed35d4867072ecae11ad4aa7272a08ca603",
        "02d73d339991a11a98da2ee872f305a117cde6b02ec2620ea0fd6ccf91e3a621",
    ),
    ("uniform", 6000): (
        "132236b3cbf0366e43c5f0a688105a2d6a7a49737060d7f4c5b9ee0490c555bf",
        "8fb1ba3c62f72ea8d77027d1d36937df2a12632e29f339697b6ee0084bf606cb",
        "a18285d38a5e0a1c2dfe2b2947aa925d8ed4b0a5e46246c7e05653e009521105",
        "257c4c77e19f21d147e0b5cefa0e1e216c514d18fb241436f5359bace8affc8a",
    ),
    ("clustered", 2): (
        "429f532d248ceb4d6983c2652fea0ef80c8608c388bd7e0d7992ac1153e2c49b",
        "2a6e69a615b26dd68ec549d47032e268c3b139ac25e64d98573229b423fe86c8",
        "4c7d98d4a517068a5f4bde7e7c3c9639ccc88e6513a8946e03bc4d81b814e2e0",
        "f7f4cf32159ac8a05eb9e1f41beb6d5063f80af8eb365ee95f6f2e1bc51e202b",
    ),
    ("clustered", 11): (
        "63927ddcd34cff325a7626fd619f1d7b38c1c1e1336ab90a00a70c0c045fcbff",
        "b08e9ff7b0f80cec7de063e3a5c2188ff7d9cc631af28463116fbca2ca95bbad",
        "fcdc459f309957e1a83a61d34380565edb9d0295a08a01dc5d6a77c3a255447c",
        "833b4fbc41b376bd2fb45c242ac3fcacd47a2c7709d70f3ebec585f603ce6203",
    ),
    ("clustered", 120): (
        "1d156b42f2aa8933591c46964d68dde855bc6f0c70b078c2da055b0152b014e4",
        "35100ac68eb594369de9344d26625c892b140ad307baef0eb5be62fa115bd07b",
        "7e02e19863abe3a5274156851ab4db848a7131c44baf4379cfa8e0f1df2d5c02",
        "867db2f62708b1f57ed39f8acb9ab1e448c9d859d139d3ea07ba33b974ddc429",
    ),
    ("clustered", 300): (
        "5695688bc43aabb6eaf295e79c499c467834b0fa1596e23a5b8f53a0268b6dd9",
        "640ec8bcbbb7d7cbf7d26f63c83a49e7276a90c3004fa0ccfde8b833e43066ef",
        "551917b1ef425c232f1738fd4a46aa37b635864433464ac86f6b68a2035570d7",
        "9ec5b6ee58475018ce447adc95c833496d735c24d04d4107bf826e6d5c295d90",
    ),
    ("clustered", 5000): (
        "e600a045902b8f6d6ce53ac756d343d2aeeb357c05f928448fdd7ff033842c87",
        "658aec77a9bd633641fec845bf3dd2e5197f2e953be20bc746f5e3a50c969bf6",
        "666e00a91b00f32e975dfd877a0ceb99c5a50d98200a825093c1bc9708446389",
        "41091741af2f6b5a67cf103e3e95317cadb55438342ca46d625bc78944fb62f0",
    ),
    ("clustered", 6000): (
        "f9d89d241e663589c2cf928ffa3970adc1a61932960a41e819a24b5809275ea8",
        "2852e25f56e64442d9d7c224895837e886c235778e605ee182920c0e50bf7dee",
        "d6802396927a7bab54d766d600ccde50ca02dcb70d19f5529d7dec94bf1b41ca",
        "08debc36b2c1d9ba1f312edb060a4e7baa3b90db644fad9067bffe6e54c65309",
    ),
    ("star-chain", 11): "14d80f3ef6d242f16f8b1d892cf13defb647a10677224c4ea9e45f6fb42b7723",
    ("star-chain", 16): "1ea0b88cac848558f37a19c8927c39ca28b31ed9b568353f270e2cd0cc40369c",
}


def _points_digest(pts: PointSet) -> str:
    return hashlib.sha256(repr((pts.xs, pts.ys)).encode()).hexdigest()


@pytest.mark.parametrize("mode,n", list(GEN_DIGESTS), ids=lambda v: str(v))
def test_gen_output_is_pinned(mode, n):
    want = GEN_DIGESTS[mode, n]
    if mode == "star-chain":
        assert _points_digest(gen_points(n, 0, mode)) == want
    else:
        assert tuple(_points_digest(gen_points(n, seed, mode)) for seed in GEN_SEEDS) == want


def _reference_points(n: int, seed: int, mode: str) -> PointSet:
    """The uniform and clustered generators as per-point loops over numpy
    scalars: the definition gen_points must keep, draw for draw."""
    rng = np.random.Generator(np.random.PCG64(seed))
    coords: set[tuple[int, int]] = set()
    if mode == "uniform":
        while len(coords) < n:
            xs = rng.integers(0, 1000 * SCALE + 1, size=n - len(coords))
            ys = rng.integers(0, 1000 * SCALE + 1, size=n - len(coords))
            coords.update(zip(map(int, xs), map(int, ys)))
        return PointSet(sorted(coords))
    k = max(1, n // 10)
    centers = rng.integers(0, 1000 * SCALE + 1, size=(k, 2))
    while len(coords) < n:
        c = centers[int(rng.integers(0, k))]
        dx = rng.normal(0.0, 5.0) * SCALE
        dy = rng.normal(0.0, 5.0) * SCALE
        x = min(max(int(c[0] + dx), 0), 1000 * SCALE)
        y = min(max(int(c[1] + dy), 0), 1000 * SCALE)
        coords.add((x, y))
    return PointSet(sorted(coords))


@pytest.mark.parametrize("mode", ["uniform", "clustered"])
def test_gen_equals_the_per_point_reference(mode):
    for seed in range(20):
        for n in (2, 3, 7, 19, 64):
            want = _reference_points(n, seed, mode)
            got = gen_points(n, seed, mode)
            assert (got.xs, got.ys) == (want.xs, want.ys), (n, seed)


def test_gen_clustered_clamps_as_the_reference_does():
    want = _reference_points(100_000, 2, "clustered")
    got = gen_points(100_000, 2, "clustered")
    edge = (0, 1000 * SCALE)
    assert sum(x in edge for x in got.xs) + sum(y in edge for y in got.ys) > 100
    assert (got.xs, got.ys) == (want.xs, want.ys)


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


def test_approx1_and_approx2_are_plane_on_far_apart_clusters(capsys, tmp_path):
    # Past a 2^53 span Qhull's joggled triangles of this set are not all
    # counterclockwise. Without the exact rebuild both commands exited 0
    # with a crossing matching, and approx2 certified its length bound
    # against L^2 = 1,570,634 instead of the even prefix's 24,644.
    from test_proximity import wide_set

    coords = wide_set()
    f = tmp_path / "wide.txt"
    f.write_text(f"{len(coords)}\n" + "".join(f"{x} {y}\n" for x, y in coords))
    for command in ("approx1", "approx2"):
        code, rep = run_cli(capsys, command, "--input", str(f))
        assert (code, rep["plane"]) == (0, True)
    assert rep["lambda_lower_bound"] == pytest.approx(math.sqrt(24644))
    assert rep["checks"] == {"length_bound": True, "round_accounting": True, "size_bound": True}
    assert bottleneck_two.second_approx_detailed(PointSet(coords)).even.last_sq == 24644


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


def test_cli_one_third_cap_counts_rotations(capsys):
    # This instance reaches its fixpoint after three rotations.
    caps = {}
    for cap in ("0", "2", "3", "4"):
        code, rep = run_cli(capsys, "one-third", "--n", "400", "--seed", "2", "--cap", cap)
        assert code == 0
        caps[cap] = rep["rotations"], rep["cap_exceeded"]
    assert caps == {"0": (0, True), "2": (2, True), "3": (3, False), "4": (3, False)}
    code, rep = run_cli(capsys, "one-third", "--n", "400", "--seed", "2", "--cap", "-1")
    assert code == 2
    assert rep["error"]["code"] == "bad_parameters"


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


@pytest.mark.parametrize("sizes", ["10,abc", "", "8,,16", "1_0, 8", "8,\uff11\uff10", "8,1e1"])
def test_cli_bench_rejects_malformed_sizes(capsys, sizes):
    # Sizes follow the point file's count-line grammar, which has no
    # underscores, exponents or non-ASCII digits (Python's int() takes them).
    code, rep = run_cli(capsys, "bench", "--algorithm", "approx2", "--sizes", sizes)
    assert code == 2
    assert rep["error"]["code"] == "bad_parameters"
    assert repr(sizes) in rep["error"]["message"]


def test_cli_bench_sizes_take_blanks_around_counts(capsys):
    code = main(["bench", "--algorithm", "approx2", "--sizes", " 8,\t10 ", "--seed", "1"])
    assert code == 0
    assert [row["n"] for row in json.loads(capsys.readouterr().out)["rows"]] == [8, 10]


def test_cli_bench_solves_once_untimed_before_the_rows(capsys, monkeypatch):
    calls = []

    def counted(pts):
        calls.append(pts.n)
        return bottleneck_two.second_approx(pts)

    monkeypatch.setitem(cli._BENCH_ALGS, "approx2", counted)
    code = main(["bench", "--algorithm", "approx2", "--sizes", "10,12", "--seed", "1"])
    assert code == 0
    assert [row["n"] for row in json.loads(capsys.readouterr().out)["rows"]] == [10, 12]
    # The warm-up instance (8 points) comes first and gives no row.
    assert calls == [8, 10, 12]


@pytest.mark.parametrize("algorithm", ["crossing-bottleneck", "one-third"])
def test_cli_bench_times_the_crossing_commands(capsys, algorithm):
    # Each row is the matching the command itself returns on the instance.
    code, report = run_cli(capsys, "bench", "--algorithm", algorithm, "--sizes", "8,16", "--seed", "1")
    assert code == 0
    assert report["algorithm"] == algorithm
    assert [row["n"] for row in report["rows"]] == [8, 16]
    for row in report["rows"]:
        _, rep = run_cli(capsys, algorithm, "--n", str(row["n"]), "--seed", "1")
        assert row["plane"] and rep["plane"]
        assert (row["size"], row["bottleneck"]) == (rep["size"], rep["bottleneck"])


def test_cli_error_object(capsys):
    code, rep = run_cli(capsys, "exact", "--n", "7", "--seed", "0")
    assert code == 2
    assert rep["error"]["code"] == "odd_point_count"


@pytest.mark.parametrize("algorithm", ["approx1", "approx2"])
def test_cli_matches_points_qhull_drops(capsys, tmp_path, algorithm):
    # Points on a line and two points 3,000,000 units away, one of them
    # 10^-6 off the line: Qhull drops most of the line, and the exact sweep
    # triangulates the whole set.
    line10 = [f"{x} 0" for x in range(10)] + ["3000000 0.000001", "3000000 5"]
    line20 = [f"{x} 0" for x in range(20)] + ["-3000000 0.000001", "-3000000 -5"]
    for lines in (line10, line20):
        f = tmp_path / "pts.txt"
        f.write_text(f"{len(lines)}\n" + "\n".join(lines) + "\n")
        code, rep = run_cli(capsys, algorithm, "--input", str(f))
        assert code == 0
        assert rep["plane"] and all(rep["checks"].values())
        pts = parse_points(f.read_text())
        m = Matching.of(pts, [tuple(e) for e in rep["edges"]])
        report = validate(pts, m)
        assert report.is_plane and report.is_matching


@pytest.mark.parametrize("algorithm", ["approx1", "approx2"])
def test_cli_matches_points_qhull_drops_beside_a_wrong_triangle(capsys, tmp_path, algorithm):
    # Qhull drops 15 of these points and returns a wrongly oriented
    # triangle; a triangulation built from its output had crossing edges,
    # and so had the matching.
    f = tmp_path / "pts.txt"
    f.write_text(format_points(PointSet(DROPPED_WITH_A_WRONG_TRIANGLE)))
    code, rep = run_cli(capsys, algorithm, "--input", str(f))
    assert code == 0
    assert rep["plane"] and all(rep["checks"].values())


def wide_point_file(tmp_path, exponent: int, n: int):
    """A file of n points uniform in [0, 10^exponent)^2."""
    rng = random.Random(exponent)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(10**exponent * SCALE), rng.randrange(10**exponent * SCALE)))
    f = tmp_path / "pts.txt"
    f.write_text(format_points(PointSet(sorted(coords))))
    return f


@pytest.mark.parametrize("exponent", [80, 150, 300, 400])
@pytest.mark.parametrize("algorithm", ["approx1", "approx2", "one-third"])
def test_cli_matches_points_with_wide_spans(capsys, tmp_path, algorithm, exponent):
    # Qhull fails on coordinates this large, even joggled, unless it gets
    # them shifted down to 53 bits; the bottleneck and lower bound pass
    # 2^1024 when squared, and at 10^400 they pass the double range.
    f = wide_point_file(tmp_path, exponent, 200)
    code, rep = run_cli(capsys, algorithm, "--input", str(f))
    assert code == 0
    assert rep["plane"] and all(rep["checks"].values())
    assert 10 ** (exponent - 3) < rep["bottleneck"] < 10 ** (exponent + 1)


def test_cli_reports_lengths_past_the_double_range(capsys, tmp_path):
    # Lengths past the double range are the integer part of the exact root;
    # a drawing of such points is refused with the JSON error alone.
    f = wide_point_file(tmp_path, 400, 20)
    js = tmp_path / "m.json"
    code, rep = run_cli(capsys, "crossing-bottleneck", "--input", str(f), "--json", str(js))
    assert code == 0 and rep["plane"] and all(rep["checks"].values())
    pts = parse_points(f.read_text())
    m = Matching.of(pts, rep["edges"])
    assert rep["bottleneck"] == math.isqrt(m.bottleneck_sq) // SCALE
    assert type(rep["lambda_lower_bound"]) is int
    code, rep = run_cli(capsys, "validate", "--input", str(f), "--matching", str(js))
    assert code == 0 and rep["plane"] and rep["matching"] and all(rep["checks"].values())
    assert rep["bottleneck"] == math.isqrt(m.bottleneck_sq) // SCALE
    svg = tmp_path / "m.svg"
    code, rep = run_cli(capsys, "approx2", "--input", str(f), "--svg", str(svg), "--json", str(js))
    assert code == 2 and rep["error"]["code"] == "bad_parameters"
    assert not svg.exists()
    with pytest.raises(BadParameters):
        render_svg(pts, m)
    # Coordinates that are doubles can still span more than the largest one.
    f.write_text(f"2\n-{10**308} 0\n{10**308} 0\n")
    code, rep = run_cli(capsys, "approx1", "--input", str(f), "--svg", str(svg))
    assert code == 2 and rep["error"]["code"] == "bad_parameters"
    assert not svg.exists()


def test_sq_to_decimal_is_a_float_in_the_double_range():
    # The bytes of every report whose lengths are doubles stay as they were.
    for sq in (0, 1, SCALE**2 * 2, 2**1023 - 1, 2**1023, (SCALE * 2**1000) ** 2, (SCALE * 2**1023) ** 2):
        got = cli._sq_to_decimal(sq)
        assert type(got) is float
        assert got == (math.isqrt(sq) if sq >= 2**1023 else math.sqrt(sq)) / SCALE
    for sq in ((SCALE * 2**1024) ** 2, 10**900 + 7):
        assert cli._sq_to_decimal(sq) == math.isqrt(sq) // SCALE


def test_python_m_planematch(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["planematch", "approx2", "--n", "8"])
    with pytest.raises(SystemExit) as exit_:
        runpy.run_module("planematch", run_name="__main__")
    assert exit_.value.code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["algorithm"] == "approx2" and rep["n"] == 8


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
    "argv",
    [
        ("approx2", "--n", "12", "--json"),
        ("approx2", "--n", "12", "--svg"),
        ("gen", "--n", "12", "--output"),
        ("bench", "--algorithm", "approx2", "--sizes", "12", "--json"),
    ],
    ids=["approx2-json", "approx2-svg", "gen-output", "bench-json"],
)
def test_cli_error_on_unwritable_output(capsys, tmp_path, argv):
    # stdout holds the error object alone, and the exit code is not
    # validate's "invalid matching".
    target = str(tmp_path / "missing" / "out")
    code, rep = run_cli(capsys, *argv, target)
    assert code == 2
    assert rep["error"]["code"] == "bad_parameters"
    assert target in rep["error"]["message"]


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


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(2**70), 2**70) | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=24,
)
# Edge lists near the expected shape, long enough to reach the array path
# of Matching.of (256 pairs), with ids in and out of range and odd lengths.
EDGE_LISTS = st.lists(
    st.lists(st.one_of(st.integers(-2, 9), st.sampled_from([2**63, -(2**63) - 1, 10**30])), min_size=1, max_size=3),
    max_size=300,
)
MATCHING_FILES = st.one_of(
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.builds(lambda edges, extra: json.dumps({"edges": edges, **extra}).encode(), EDGE_LISTS, st.dictionaries(st.text(max_size=4), JSON_VALUES, max_size=2)),
    st.binary(max_size=64),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "pts.txt").write_text("8\n" + "".join(f"{i} {i * i % 5}\n" for i in range(8)))
    return d


@settings(max_examples=300, deadline=None)
@given(MATCHING_FILES)
@example(b"[" * 100_000)
@example(b'{"edges": ' + b"[" * 100_000 + b"]" * 100_000 + b"}")
@example(json.dumps({"edges": [[2 * i % 8, (2 * i + 1) % 8] for i in range(300)] + [[0, 10**30]]}).encode())
@example(json.dumps({"edges": [[0, 1], [2, 3], [4, 5], [6, 7]]}).encode())
@example("\ufeff{}".encode())
def test_cli_validate_fuzzed_matching_files(fuzz_dir, data):
    # Any bytes as the matching file give a report (exit 0 or 1) or a
    # documented JSON error naming the file with exit 2, never a traceback:
    # format_error, or unknown_point_id for an id outside the point set.
    path = fuzz_dir / "m.json"
    path.write_bytes(data)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["validate", "--input", str(fuzz_dir / "pts.txt"), "--matching", str(path)])
    rep = json.loads(out.getvalue())
    if code == 2:
        assert rep["error"]["code"] in ("format_error", "unknown_point_id")
        assert str(path) in rep["error"]["message"]
    else:
        assert rep["algorithm"] == "validate" and code == (0 if rep["plane"] and rep["matching"] else 1)


def test_cli_error_on_self_pair_in_matching(capsys, tmp_path):
    f = tmp_path / "pts.txt"
    f.write_text("4\n0 0\n1 0\n2 0\n3 0\n")
    bad = tmp_path / "m.json"
    bad.write_text(json.dumps({"edges": [[0, 0], [1, 2]]}))
    code, rep = run_cli(capsys, "validate", "--input", str(f), "--matching", str(bad))
    assert code == 2
    assert rep["error"]["code"] == "format_error"
    assert str(bad) in rep["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ("approx2", "--n", "4", "--seed", "-1"),
        ("gen", "--n", "4", "--seed", "-3"),
        ("bench", "--algorithm", "approx2", "--sizes", "8", "--seed", "-2"),
        ("approx2", "--n", "100000000000000000000"),
        ("approx1", "--n", "100000000000000000000", "--mode", "clustered"),
        ("gen", "--n", str((1000 * SCALE + 1) ** 2 + 1)),
    ],
)
def test_cli_rejects_a_negative_seed_and_an_impossible_count(capsys, argv):
    code, rep = run_cli(capsys, *argv)
    assert code == 2
    assert rep["error"]["code"] == "bad_parameters"


def test_cli_udg_match_without_points(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0\n")
    code, rep = run_cli(capsys, "udg-match", "--input", str(f))
    assert code == 0
    assert rep["size"] == 0
    assert rep["checks"] == {"size_bound": True, "length_bound": True}


def test_cli_error_on_oversize(capsys):
    code, rep = run_cli(capsys, "exact", "--n", "18", "--seed", "0")
    assert code == 2
    assert rep["error"]["code"] == "instance_too_large"


@pytest.mark.parametrize("mode", ["uniform", "clustered"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cli_approx2_certifies_against_the_even_forest(capsys, monkeypatch, seed, mode):
    runs = []
    even_forest = bottleneck_two.even_forest

    def counting(pts):
        runs.append(even_forest(pts))
        return runs[-1]

    monkeypatch.setattr(bottleneck_two, "even_forest", counting)
    code, rep = run_cli(capsys, "approx2", "--n", "4000", "--seed", str(seed), "--mode", mode)
    assert code == 0
    (ef,) = runs
    assert rep["checks"] == {"size_bound": True, "length_bound": True, "round_accounting": True}
    assert rep["lambda_lower_bound"] == math.sqrt(ef.last_sq) / SCALE
    assert rep["bottleneck_over_lb"] == pytest.approx(rep["bottleneck"] / rep["lambda_lower_bound"])
    assert rep["bottleneck_over_lb"] ** 2 <= 9.899


def test_cli_approx2_without_points_reports_no_lower_bound(capsys, tmp_path):
    f = tmp_path / "empty.txt"
    f.write_text("0\n")
    code, rep = run_cli(capsys, "approx2", "--input", str(f))
    assert code == 0
    assert rep["checks"] == {"size_bound": True}
    assert "lambda_lower_bound" not in rep and "bottleneck_over_lb" not in rep
