"""Golden outputs: every algorithm is deterministic, so refactors of the
layers under them must reproduce these matchings byte for byte.

Each digest is the sha256 of the JSON list of matched pairs, in the sorted
order ``Matching.pairs`` keeps (for an even forest, of its sorted tree
edges). Unit lattices have every shortest edge of the same length, so their
digests pin Kruskal's tie order.
"""
from __future__ import annotations

import hashlib
import json
import math
import random

import pytest

from planematch.blossom import bottleneck_crossing
from planematch.bottleneck_one import first_approx
from planematch.bottleneck_two import even_forest, match_tree_detailed, second_approx
from planematch.geometry import SCALE, PointSet
from planematch.io import gen_points
from planematch.matching import validate
from planematch.proximity import emst5, even_threshold, forest_leq
from planematch.udg import one_third, plane_matching, run_peeling

GOLDENS = {
    (1, "uniform"): (
        "0c7b90f16b10aae9a469e1ce29ae4a7bc291f03b5482090cb1b16bce7022ec6d",
        "c9797c7ba5f16a79f0caed418802ed89c51e73ed3e85e3d2799808902b765c9d",
    ),
    (1, "clustered"): (
        "18b04b3840f17a98ccaa4ee91b59aa50782f69eee41c3e4d85b61b81a279fb1b",
        "5ce5c0fd23333bed8b660575af1e0b0494b2db32d5d802e8a1ce8b6af04b0cc4",
    ),
    (2, "uniform"): (
        "3a8b3a2ccf43acd3bdd2d61f43cf8d89758fd194776a0e94bbfe106ef56114fc",
        "0c5478b47837a48c653a94d1d20f37f141a18536b5483807cd99cf0008997599",
    ),
    (2, "clustered"): (
        "2255daef168ff83b516cd3a9258df88f44c691bf60b31bd6b0424801611d523e",
        "afc3274034b6cf7114bee8ab754d65ca04c62a8446e4d780a3da0fc3d97d45e7",
    ),
}


# (seed, shift) -> (plane_matching digest, even_forest (last_edge, last_sq,
# digest of the forest's edges)).
LATTICE_GOLDENS = {
    (1, 0): (
        "edfb040327aeac1e07fd4cd6f6ee52559f08f76d790c2810068c9e1d3ee2646c",
        ((233, 251), SCALE * SCALE, "97841572d4aee4f62c787219e6f9a9912d26a6dd65c4c1a625cee15c7d55c116"),
    ),
    (2, 0): (
        "6ae327bc08bde11bc35aa9e9f54c375ec46c355185cc86abcefdaa496b170eb8",
        ((206, 215), SCALE * SCALE, "b2d3389d1d0c983d472c411f0246de79b5a4b2d1a265d36b3f16f634080d7c56"),
    ),
    (5, 2**60): (
        "b58d8b28804bfdd09e369d2567d414f749d29d9c0e66aa1c3cf8d334313de00c",
        ((246, 259), SCALE * SCALE, "1d776ee9d3c55210d264b014813b6ec052d2e38633249cb2ee6982998fcce68f"),
    ),
}

# seed -> (last_edge, last_sq, digest of the forest's edges) of even_forest
# on a lattice with holes: it stops inside a run of diagonal edges, some of
# which would still join two of its trees.
HOLED_GOLDENS = {
    2: ((53, 62), 2 * SCALE * SCALE, "7486e49acc0547e2bd5ff8acd8f4a4d6ff92a96cfee49c44fe54c92595f69e4b"),
    3: ((127, 134), 2 * SCALE * SCALE, "0280819a51ba322eb1f897d652ed3fb7f89ca4e07bbb64378159a8b59435654d"),
}

# seed -> (bottleneck_sq, lower_sq, witness digest) on gen_points(300, seed).
# L is infeasible on both, and each takes several Tutte-barrier steps.
CROSSING_GOLDENS = {
    1: (6855197014046025, 6243558952033901, "9332b05782446e5e5561630f23ebbd8e5ad50eee9b8622d9a8f96905b001a8bc"),
    57: (7209324813924584, 6485465866640245, "1f04e0aa9f757126d3e2106955173c0132df4590f6815789da17d7330c5131a4"),
}

# seed -> (bottleneck_sq, lower_sq, witness digest, one_third digest) on
# gen_points(2000, seed, "clustered"). The first scan radius lies far below
# L on these, so the bracket lists the short pairs at several radii.
CLUSTERED_CROSSING_GOLDENS = {
    1: (
        7629114607299805,
        7629114607299805,
        "67dd91b537ad6ffa6dab90476e7d71c70447d4b4cebb6574c286bfb174065294",
        "79bb996b4700956f463310fc2c78aa8e5b1bc8ae1c376447e47d7a3e26c80597",
    ),
    2: (
        7376148867658925,
        7376148867658925,
        "488819b95e488e8cbf8a3a10b8eaa58a438b0354aca628092cba859c9454ce2f",
        "d5a5d9a5e734ec05bda78ddcc95900d995799a93b538325cdaf3ef1546265ba3",
    ),
}

# instance -> (match_tree_detailed digest over the even forest's trees,
# run_peeling digest on emst5, the same with a seed). A run_peeling digest
# is of its pairs and the smallest degree a peeling round saw. The instance
# is gen_points(2000, seed, mode) or a LATTICE_GOLDENS lattice.
PEELING_GOLDENS = {
    (1, "uniform"): (
        "aca5f719c8049444c44f29251d3757aaabe0f15684036c16435985323e283d6e",
        "15661db98d5eef774d1b84a940f161d8bd8b8d8e385bc6b27de2ac5fe202ed59",
        "c79ffb79ad037733e91217e426e308a4d7de8c4dd4e89b4d514bb548c0b06e6f",
    ),
    (1, "clustered"): (
        "8722bc04a2d6307c7d296e5aa6ace123a1923120e3c91fe480853e935ae52362",
        "20c972f2780e6eeabf04b1c1dba3ddd8743855f0ea7a99ad0c502822baf8478e",
        "ba7179619b2f064cafc2c0eaa3cf729cd72e776bc8b0961016fba4b0edf77283",
    ),
    (2, "uniform"): (
        "76fa136cdd47608769cdbcb1e37c0ceb9ba2a2c876ad7d502dec8a310df4d6ee",
        "9f91ea47d090fa4d813aa60a8139c1e29d767a8da0337c444b3834bb2638d016",
        "b0d22ad16edbbfccb97b581ee6f06056f6454bc78dd873f2fad0e85559cabc92",
    ),
    (2, "clustered"): (
        "271ac6f51e15c85f2bb495e36f046fadf7b5f2a25bf12c853dcfe0bc4d6162a6",
        "fb9222c11586b59781cad84f5090bc6d6330b5b8e1a23d462aaef35938428461",
        "fb9c40fd91d7fd43684d2ad982dbf51652cd70b6967e425425cbcc44231e34d6",
    ),
    (1, 0): (
        "255207eb27ba3414808c0eba5bb8e93b804790510f3b1f2095cee8882053ddab",
        "61734401a9f64dc893f98e146686408626f00f82e885a35783bafc8e1d0e709f",
        "f59812d4c8f6e76c4021f11859b25ca20c8e4bbb4f3ccadad5bf034bbc2ebdab",
    ),
    (2, 0): (
        "6327a16e36120b07b0682eeaa9a1ed70766cc1cc51d2499a6d0a2ad00902d139",
        "ce347949c4cccf88072acb6796bf2228c3f71b6db9fc716e1e30c003be1334aa",
        "264f292e3a7fed4b5b9a067e8e66964f8f22108cf6e66847645e06f058e30a73",
    ),
    (5, 2**60): (
        "50ed7ce69dbdc5ee05082c3d6ecaad8a654cb017d7fdad1a5897c9f26d0cb470",
        "77d1ca764e90fb523db50a6dfb0ec4b9380f15ec55fbde71daff142ad71fe482",
        "57a994079be59efb32f55df1829a47ed376f48a3ab064194ee2d0b5f18e71131",
    ),
}


def _digest_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _digest_pairs(pairs) -> str:
    return _digest_json([list(p) for p in pairs])


def _digest(m) -> str:
    return _digest_pairs(m.pairs)


def unit_lattice(seed: int, shift: int) -> PointSet:
    """A lattice of spacing SCALE and even width, sized by ``seed``."""
    rng = random.Random(seed)
    w = 2 * rng.randrange(6, 13)
    h = rng.randrange(9, 19)
    return PointSet((shift + x * SCALE, shift + y * SCALE) for x in range(w) for y in range(h))


def holed_lattice(seed: int) -> PointSet:
    """About 60% of a 16 x 15 lattice of spacing SCALE, chosen by ``seed``,
    less the last point when the count is odd."""
    rng = random.Random(seed)
    cells = [(x, y) for x in range(16) for y in range(15) if rng.random() < 0.6]
    cells = cells[: len(cells) - len(cells) % 2]
    return PointSet((x * SCALE, y * SCALE) for x, y in cells)


def peeling_instance(key) -> PointSet:
    if key in LATTICE_GOLDENS:
        return unit_lattice(*key)
    return gen_points(2000, *key)


def peeling_seed(tree) -> dict:
    """A seed pair of two far-apart leaves, pre-matched, forbidden and
    avoided, so that many candidate edges cross it."""
    leaves = [v for v in tree.vertices if len(tree.adj[v]) == 1]
    p, q = leaves[0], leaves[len(leaves) // 2]
    return dict(init_pairs=[(min(p, q), max(p, q))], forbidden=frozenset((p, q)), avoid=(p, q))


def peel_record(res) -> list:
    """Every field of a PeelResult, as JSON-ready lists."""
    return [res.pairs, res.min_degree]


def forest_digest(ef) -> str:
    return _digest_pairs(sorted(e for t in ef.forest.trees for e in t.edges()))


@pytest.mark.parametrize("seed,mode", sorted(GOLDENS))
def test_golden_matchings(seed, mode):
    pts = gen_points(2000, seed, mode)
    first, second = GOLDENS[(seed, mode)]
    assert _digest(first_approx(pts)) == first
    assert _digest(second_approx(pts)) == second


@pytest.mark.parametrize("seed,shift", sorted(LATTICE_GOLDENS))
def test_golden_unit_lattice(seed, shift):
    pts = unit_lattice(seed, shift)
    udg, (last_edge, last_sq, forest) = LATTICE_GOLDENS[(seed, shift)]
    assert _digest(plane_matching(pts)) == udg
    ef = even_forest(pts)
    assert (ef.last_edge, ef.last_sq, forest_digest(ef)) == (last_edge, last_sq, forest)


@pytest.mark.parametrize("seed", sorted(HOLED_GOLDENS))
def test_golden_even_forest_stops_inside_a_tie(seed):
    ef = even_forest(holed_lattice(seed))
    assert (ef.last_edge, ef.last_sq, forest_digest(ef)) == HOLED_GOLDENS[seed]


@pytest.mark.parametrize("seed", sorted(CROSSING_GOLDENS))
def test_golden_crossing_bottleneck(seed):
    res = bottleneck_crossing(gen_points(300, seed, "uniform"))
    bottleneck_sq, lower_sq, witness = CROSSING_GOLDENS[seed]
    assert (res.bottleneck_sq, res.lower_sq) == (bottleneck_sq, lower_sq)
    assert _digest(res.matching) == witness


@pytest.mark.parametrize("seed", sorted(CLUSTERED_CROSSING_GOLDENS))
def test_golden_crossing_bottleneck_clustered(seed):
    res = bottleneck_crossing(gen_points(2000, seed, "clustered"))
    bottleneck_sq, lower_sq, witness, plane = CLUSTERED_CROSSING_GOLDENS[seed]
    assert (res.bottleneck_sq, res.lower_sq) == (bottleneck_sq, lower_sq)
    assert _digest(res.matching) == witness
    assert _digest(one_third(gen_points(2000, seed, "clustered"), res.matching)[0]) == plane


@pytest.mark.parametrize("key", list(PEELING_GOLDENS), ids=str)
def test_golden_peeling(key):
    pts = peeling_instance(key)
    matcher, plain, seeded = PEELING_GOLDENS[key]
    trees = [match_tree_detailed(pts, t) for t in even_forest(pts).forest.trees]
    assert _digest_json([[r.pairs, r.rounds, r.regions] for r in trees]) == matcher
    tree = emst5(pts)
    assert _digest_json(peel_record(run_peeling(pts, tree))) == plain
    assert _digest_json(peel_record(run_peeling(pts, tree, **peeling_seed(tree)))) == seeded


def hexagon_with_centre() -> PointSet:
    """A regular hexagon of radius SCALE around its centre, rounded to
    integers, with the centre first so that it leads Kruskal's ties."""
    coords = [(0, 0)] + [
        (round(SCALE * math.cos(k * math.pi / 3)), round(SCALE * math.sin(k * math.pi / 3)))
        for k in range(6)
    ]
    return PointSet(coords)


def hexagonal_lattice() -> PointSet:
    """12 x 11 points of a triangular lattice of spacing 2 * SCALE, rounded
    to integers: every interior point has six near-equal neighbours."""
    h = round(math.sqrt(3) * SCALE)
    return PointSet((2 * x * SCALE + (y % 2) * SCALE, y * h) for x in range(12) for y in range(11))


def shape_instance(key) -> PointSet:
    if key == "hexagon":
        return hexagon_with_centre()
    if key == "hex-lattice":
        return hexagonal_lattice()
    return peeling_instance(key)


def tree_shape(tree) -> list:
    """Every field of a Tree in its own order: the vertices, the adj lists
    in key order and the edge_sq items in insertion order."""
    return [
        list(tree.vertices),
        [[v, list(nbrs)] for v, nbrs in tree.adj.items()],
        [[u, v, sq] for (u, v), sq in tree.edge_sq.items()],
    ]


def forest_shapes(pts) -> list:
    """The shapes of even_forest's trees (n even), of emst5, and of
    forest_leq on emst5 at its even threshold and at its median length."""
    mst = emst5(pts)
    lengths = sorted(set(mst.edge_sq.values()))
    out = [[tree_shape(mst)]]
    if pts.n % 2 == 0:
        out.append([tree_shape(t) for t in even_forest(pts).forest.trees])
        limits = (even_threshold(mst), lengths[len(lengths) // 2])
    else:
        limits = (lengths[len(lengths) // 2],)
    out.extend([tree_shape(t) for t in forest_leq(mst, sq, pts).trees] for sq in limits)
    return out


# instance -> sha256 of forest_shapes: gen_points(2000, seed, mode), a
# LATTICE_GOLDENS lattice, the hexagon with its centre, or the hexagonal
# lattice. No vertex of these trees has degree six: two integer vectors
# never meet at exactly pi/3 (see the ``proximity.emst5`` docstring).
SHAPE_GOLDENS = {
    (1, "uniform"): "ce9549f8f4d755de848dba0e79df3c5146f5d4881704cc892de044987d95b997",
    (1, "clustered"): "cffa25a3f6e1eea892a3d24b022283b14f6c1427f85c80cd2cf5972ef2a5b87f",
    (2, "uniform"): "d91c32261c91185e541f160cf53068ca9c0b96f3ba9dc8455e54bbe7240ec6e0",
    (2, "clustered"): "cd5dd5ad54a1974f04510114fbac14cf8565a5713bbbd2e77776fecca3be5484",
    (1, 0): "563f7911a32cdcfa4090dd57725800519c58232a2c9ec6acaa1a2f56f45e43fc",
    (5, 2**60): "2581d82d65718327479bdbea96ea376cf740d77c91e154776b74ac1a29766b8b",
    "hexagon": "47be312ed1e633ca349f49631dfaee1275dbd7ebc570c3a10b12c22051a72f80",
    "hex-lattice": "2a2386c3f03ae755ee055e42254bca9f0f67c713bf26f03ab110a3c5b1572674",
}


@pytest.mark.parametrize("key", list(SHAPE_GOLDENS), ids=str)
def test_golden_tree_shapes(key):
    assert _digest_json(forest_shapes(shape_instance(key))) == SHAPE_GOLDENS[key]


def uniform_at_span(span: int) -> PointSet:
    """600 distinct points uniform in [0, span)^2, from a fixed seed."""
    rng = random.Random(7)
    coords: set = set()
    while len(coords) < 600:
        coords.add((rng.randrange(span), rng.randrange(span)))
    return PointSet(sorted(coords))


def wide_record(pts, m) -> list:
    """A matching's pairs and bottleneck, and every field of its
    validation report."""
    rep = validate(pts, m)
    return [_digest(m), m.bottleneck_sq, rep.is_matching, rep.is_plane, rep.size, rep.bottleneck_sq, list(rep.violations)]


# span label -> (span, digests of the approx1, approx2, crossing-bottleneck
# (with its lower bound) and one-third records, ``wide_record``, on
# uniform_at_span). Squared lengths pass int64 at every one of these spans,
# and past 2^62 the translated coordinates do too. The crossing witness has
# 300 pairs, so Matching.of and validate read them as id arrays.
WIDE_SPAN_GOLDENS = {
    "2^40": (
        2**40,
        (
            "99edf0ec3546a83b315ef4b629c7865fdbb849a322f694e9e76dc544b368d0a0",
            "7a7f5828ae4e0052eafb32aee4cce5c02ac57833d3a615346f6f6d0cac1e10bb",
            "eed54cbeb4f23456ac10b5324b1b5808ebcc949335d17047125e0cde8b1dafbe",
            "4f1fafc6b3984e5085aa608308f32767994fbd5ef815bc296637b812bf719203",
        ),
    ),
    "2^61": (
        2**61,
        (
            "817eee56c2dd1c6ef4d4328e278435f76b624c632b136d3515a5457d0c15860f",
            "ac86669ea61ffc02081192919aef959478c3a4c7e299a2a2a6a436683c6dc0b5",
            "ce360427453fd5954aa25212a583e795a584aede13fdc0d32474e0344daa768c",
            "ace6bda32fd70232138fbb8b774114439fee2f6850d6d46f7ec84ad9986b2db1",
        ),
    ),
    "2^63": (
        2**63,
        (
            "651b4d5be3972fa297cefdec18ff4d364b3b451f5d7ee13e9bd39b2942a1c6df",
            "479e44be2e065532d762e7973786c10d52f9756f49e6a2604be1d8d6cbe680ff",
            "ec05d30a4047921f68966cfd9e10dcc8cd65024ea76eed30d01875c7fc85d47a",
            "221db36698e0200a238a7b0a2f7ab7e88d735299e1895580d3dd40d568b45dec",
        ),
    ),
    "10^80": (
        10**80,
        (
            "be254332aaf2beccfc08414c8c20eec4ee9e6cf6c00ba3369920e067cb260689",
            "e5d0c108d4d54ef5788830ded0ebea5320a1f1a470480bf8f00c1058404416bf",
            "71aa109ed79a396d36af7fc44af38cd2f95966d6f3bcb0e19b4e9c72a9a0459a",
            "117ffaf4e29a8a8b1e8b2ee66723b7f1beff94b59c72f007ebb817d0371d90ff",
        ),
    ),
    "10^300": (
        10**300,
        (
            "1a7de6481d3da4d92659f2708cfa426a2cf8641d963351e00b90c1c1391af230",
            "e7f1fe2310a9d73c87651d3a8a0705f7a28925883bf77d5c32aebedda337191b",
            "66d124915428d3e9ba5b47588a96a142b620dd7cb23c2c315d2416cd9bc2cc7b",
            "924313c8b4c155fcc7c5c7a3357832fca4a287fc5ab7d2cd50c9d9aae6e00c95",
        ),
    ),
}


@pytest.mark.parametrize("label", list(WIDE_SPAN_GOLDENS))
def test_golden_wide_spans(label):
    span, digests = WIDE_SPAN_GOLDENS[label]
    pts = uniform_at_span(span)
    cross = bottleneck_crossing(pts)
    got = (
        _digest_json(wide_record(pts, first_approx(pts))),
        _digest_json(wide_record(pts, second_approx(pts))),
        _digest_json(wide_record(pts, cross.matching) + [cross.lower_sq]),
        _digest_json(wide_record(pts, one_third(pts, cross.matching)[0])),
    )
    assert got == digests
