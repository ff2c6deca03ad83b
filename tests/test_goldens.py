"""Golden outputs: both approximations are deterministic, so refactors of the
layers under them must reproduce these matchings byte for byte.

Each digest is the sha256 of the JSON list of matched pairs, in the sorted
order ``Matching.pairs`` keeps.
"""
from __future__ import annotations

import hashlib
import json

import pytest

from planematch.bottleneck_one import first_approx
from planematch.bottleneck_two import second_approx
from planematch.io import gen_points

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


def _digest(m) -> str:
    return hashlib.sha256(json.dumps([list(p) for p in m.pairs]).encode()).hexdigest()


@pytest.mark.parametrize("seed,mode", sorted(GOLDENS))
def test_golden_matchings(seed, mode):
    pts = gen_points(2000, seed, mode)
    first, second = GOLDENS[(seed, mode)]
    assert _digest(first_approx(pts)) == first
    assert _digest(second_approx(pts)) == second
