"""The benchmark's tracer wraps layers by module attribute, so a refactor
that renames or unbinds one would only fail in the middle of a benchmark
run. This test resolves every attribute it wraps. bench/tracer.py is read
and executed in memory, so nothing is written under bench/."""
from __future__ import annotations

import types
from pathlib import Path

import planematch
import planematch.blossom
import planematch.bottleneck_one
import planematch.bottleneck_two
import planematch.io
import planematch.matching
import planematch.proximity
import planematch.udg

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer() -> types.ModuleType:
    mod = types.ModuleType("bench_tracer")
    mod.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), mod.__dict__)
    return mod


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    targets = tracer._targets(planematch)
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for _, owners, _ in targets
        for owner, attr in owners
        if vars(owner).get(attr) is None
    ]
    if vars(planematch.udg).get("cross_ids") is None:
        missing.append("planematch.udg.cross_ids")
    assert missing == []


def test_each_traced_layer_is_bound_to_one_function():
    # A span wraps the same object under every name, so each owner must
    # bind the program's own function, not a stale copy.
    tracer = load_tracer()
    for name, owners, _ in tracer._targets(planematch):
        bound = {id(vars(owner)[attr]) for owner, attr in owners}
        assert len(bound) == 1, name
