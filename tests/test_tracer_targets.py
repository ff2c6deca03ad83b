"""The benchmark's tracer wraps layers by module attribute, so a refactor
that renames or unbinds one would only fail in the middle of a benchmark
run. These tests resolve every attribute it wraps, and run one toy job per
workload through the tracer's recorder to check the layers the workload
must and must not call. bench/tracer.py, bench/checker.py and bench/run.py
are read and executed in memory, so nothing is written under bench/."""
from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import planematch
import planematch.blossom
import planematch.bottleneck_one
import planematch.bottleneck_two
import planematch.io
import planematch.matching
import planematch.proximity
import planematch.udg

BENCH = Path(__file__).resolve().parent.parent / "bench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))["workloads"]


def load_bench(name: str, **deps: types.ModuleType) -> types.ModuleType:
    """bench/<name>.py as a module, with ``deps`` importable under their
    names while it runs its imports. The module itself is importable then
    too, which ``dataclass`` needs."""
    path = BENCH / f"{name}.py"
    mod = types.ModuleType(f"bench_{name}")
    mod.__file__ = str(path)
    deps = {**deps, mod.__name__: mod}
    saved = {key: sys.modules.get(key) for key in deps}
    sys.modules.update(deps)
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), mod.__dict__)
    finally:
        for key, old in saved.items():
            if old is None:
                del sys.modules[key]
            else:
                sys.modules[key] = old
    return mod


def load_tracer() -> types.ModuleType:
    return load_bench("tracer")


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


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_toy_job_calls_the_workload_layers(name):
    # One toy-size job of the workload, traced as a benchmark run traces it.
    tracer = load_tracer()
    run = load_bench("run", tracer=tracer, checker=load_bench("checker"))
    wl, gen = run.workload(name, True)
    text = run.make_instances(planematch, dict(gen, instances=1), 1)[0].text
    rec = tracer.Recorder(planematch)
    rec.call(0, "job", run.job, planematch, wl["command"], text)
    calls = {span: t["calls"] for span, t in rec.totals([0]).items()}
    assert [span for span in wl["loads"] if not calls.get(span)] == []
    assert [span for span in wl["must_not_touch"] if calls.get(span)] == []
