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
from planematch.proximity import emst5, even_threshold, forest_leq
from planematch.udg import plane_matching, run_peeling

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

# instance -> (match_tree_detailed digest over the even forest's trees,
# run_peeling digest on emst5, the same with a seed). The instance is
# gen_points(2000, seed, mode) or a LATTICE_GOLDENS lattice.
PEELING_GOLDENS = {
    (1, "uniform"): (
        "aca5f719c8049444c44f29251d3757aaabe0f15684036c16435985323e283d6e",
        "fe833958db12822ed32309ad7fb51de9e6bd7b814537954e6e437f319904feeb",
        "6cf38835d7b09329d75fbf8821794c3040b22c8ce8c97d6050394fdee715c91c",
    ),
    (1, "clustered"): (
        "8722bc04a2d6307c7d296e5aa6ace123a1923120e3c91fe480853e935ae52362",
        "e873b3afb8f0abd79ee57bc5f11ea767638a0b6f6be81698742864885ae6e187",
        "db50c7c3a483e0b40ecd7fe1f11eccb30cfa9a10de2c8c8a15702a7a3baa15d5",
    ),
    (2, "uniform"): (
        "76fa136cdd47608769cdbcb1e37c0ceb9ba2a2c876ad7d502dec8a310df4d6ee",
        "4bd462f9ad171886821b38510e4c4f2404b5ea6f4fd2391fe05c13e5a7f8089a",
        "712b9f19d2547ab2b515ab9bb321688f0d084342701668eb5db3590ac2d8afac",
    ),
    (2, "clustered"): (
        "271ac6f51e15c85f2bb495e36f046fadf7b5f2a25bf12c853dcfe0bc4d6162a6",
        "ba739019e94237c45937d6f5370002809dce5a359d263bc1fdd0079e1092b421",
        "c70f7def28cf6189726dbe2714c022277d7dab240c893001d764ad28bafdb83b",
    ),
    (1, 0): (
        "255207eb27ba3414808c0eba5bb8e93b804790510f3b1f2095cee8882053ddab",
        "d3ad4f837bd42db9f9586b1881df6d1398c1a761ff2b2fe62adb0f1e03677a2d",
        "2dae4196ccb8ba64f2b69099a6e28e44dd07e8340d9d98bef326b1d9613d063c",
    ),
    (2, 0): (
        "6327a16e36120b07b0682eeaa9a1ed70766cc1cc51d2499a6d0a2ad00902d139",
        "4136734e085a5678ee3d4cb34bf1247cbf7267b2963c2c966cfc8aec92d26edf",
        "c130b52595296e2fc36fc3d6c5257f267c5628a061f5dc0d46e705a6c5ed806f",
    ),
    (5, 2**60): (
        "50ed7ce69dbdc5ee05082c3d6ecaad8a654cb017d7fdad1a5897c9f26d0cb470",
        "792713d648b24d34fc3eed1d9d3d287f65fa42b192c5dce59c9e4dc79b0bc469",
        "5a7f995b58689941465e5d39389cc971e469a6c6f3d0544821a52d3348e640a7",
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
    its = [[it.v, it.deg, it.internal_nbr, list(it.leaves), it.matched] for it in res.iterations]
    return [res.pairs, its, res.final_edge, res.final_edge_skipped, res.skipped]


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
# lattice. No vertex of these trees has degree six: the angle between two
# integer vectors has a rational tangent and so is never exactly pi/3.
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
