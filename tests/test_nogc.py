"""The public entry points run with the cyclic collector paused: a solve
must leave no cyclic garbage behind, and the caller's collector setting must
be restored however the call ends."""
from __future__ import annotations

import gc
import inspect

import pytest

from planematch import blossom, bottleneck_one, bottleneck_two, io, matching, udg
from planematch.errors import DisconnectedInput, OddPointCount
from planematch.geometry import SCALE, PointSet

LATTICE = PointSet((x * SCALE, y * SCALE) for x in range(14) for y in range(10))

ENTRY_POINTS = [
    io.parse_points,
    bottleneck_two.second_approx_detailed,
    bottleneck_two.second_approx,
    bottleneck_one.first_approx,
    udg.plane_matching,
    udg.one_third,
    blossom.bottleneck_crossing,
    matching.validate,
]


def solves(pts: PointSet):
    """(name, thunk) for every entry point on ``pts``, in job order."""
    text = io.format_points(pts)
    approx2 = bottleneck_two.second_approx(pts)
    cross = blossom.bottleneck_crossing(pts)
    yield "parse_points", lambda: io.parse_points(text)
    yield "parse_points(bytes)", lambda: io.parse_points(text.encode())
    yield "second_approx_detailed", lambda: bottleneck_two.second_approx_detailed(pts)
    yield "second_approx", lambda: bottleneck_two.second_approx(pts)
    yield "first_approx", lambda: bottleneck_one.first_approx(pts)
    yield "bottleneck_crossing", lambda: blossom.bottleneck_crossing(pts)
    yield "one_third", lambda: udg.one_third(pts, cross.matching)
    yield "validate", lambda: matching.validate(pts, approx2)
    if pts is LATTICE:
        yield "plane_matching", lambda: udg.plane_matching(pts)


def instances():
    for mode in ("uniform", "clustered"):
        for seed in (1, 2):
            yield f"{mode}-{seed}", io.gen_points(2000, seed, mode)
    yield "lattice", LATTICE


@pytest.mark.parametrize("name,pts", list(instances()), ids=lambda v: v if isinstance(v, str) else "")
def test_solve_leaves_no_cyclic_garbage(name, pts):
    steps = list(solves(pts))
    for _, run in steps:
        run()  # lazy imports and first-use caches happen here, collected
    gc.collect()
    gc.disable()
    try:
        for step, run in steps:
            out = run()
            assert gc.collect() == 0, f"{step} on {name} left cyclic garbage"
            assert not gc.isenabled(), f"{step} switched the paused collector on"
            del out
    finally:
        gc.enable()


def test_pause_restores_the_collector():
    pts = io.gen_points(200, 3, "uniform")
    for _, run in solves(pts):
        assert gc.isenabled()
        run()
        assert gc.isenabled()
    odd = PointSet([(0, 0), (SCALE, 0), (0, SCALE)])
    for fn in (bottleneck_two.second_approx, bottleneck_two.second_approx_detailed,
               bottleneck_one.first_approx, blossom.bottleneck_crossing):
        with pytest.raises(OddPointCount):
            fn(odd)
        assert gc.isenabled()
    with pytest.raises(DisconnectedInput):
        udg.plane_matching(pts)
    assert gc.isenabled()


def test_pause_keeps_the_collector_off_when_the_caller_switched_it_off():
    pts = io.gen_points(200, 4, "clustered")
    odd = PointSet([(0, 0), (SCALE, 0), (0, SCALE)])
    gc.disable()
    try:
        for _, run in solves(pts):
            run()
            assert not gc.isenabled()
        with pytest.raises(OddPointCount):
            bottleneck_two.second_approx(odd)
        assert not gc.isenabled()
    finally:
        gc.enable()


@pytest.mark.parametrize("fn", ENTRY_POINTS, ids=lambda f: f.__name__)
def test_paused_entry_points_keep_their_names_and_signatures(fn):
    inner = fn.__wrapped__
    assert fn.__name__ == inner.__name__ and fn.__doc__ == inner.__doc__
    assert inspect.signature(fn) == inspect.signature(inner)
    assert getattr(inspect.getmodule(inner), fn.__name__) is fn
