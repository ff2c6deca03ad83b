"""Per-layer tracing of planematch from outside the program.

The traced run wraps the public function of each layer by replacing its
attribute in every module that binds it, so no file of the program changes.
Each call records a span: name, start, end, parent span and job id. Spans
stay in memory and are written out when the run ends. Hot predicates
(``udg.cross_ids``) are only counted, because a span per call would cost
more than the call.

Wrappers are installed around a traced job only and removed right after it,
so untraced jobs and the output checks run the program untouched.
"""
from __future__ import annotations

import json
import statistics
from time import perf_counter

import numpy as np

# Span list fields.
NAME, START, END, PARENT, JOB, HOT, ATTRS = range(7)

# Per-layer metrics: (name, unit, end-to-end metric it should move, where).
# A name is "<span>.<field>": field "s" is span seconds per traced job,
# "self_s" the same minus child spans, "calls" calls per job, and any other
# field a count the span's exit hook recorded, per job.
LAYERS = [
    ("io.parse_points.s", "s", "solve_s_p50", "all, about 5%"),
    ("io.gen_points.s", "s", "setup_s", "approx1-clustered (per generated instance)"),
    ("proximity.qhull.s", "s", "solve_s_p50", "udg-lattice, approx2-uniform"),
    ("proximity.qhull.qj_calls", "count", "solve_s_p50", "udg-lattice, approx2-uniform"),
    ("proximity.delaunay.calls", "count", "solve_s_p50", "0 on crossing-one-third"),
    ("proximity.delaunay.self_s", "s", "solve_s_p50, points_per_s, peak_rss_mb", "approx2-uniform, udg-lattice; 0 on crossing-one-third"),
    ("proximity.delaunay.edges", "count", "useful-work ratio of the repair", "approx2-uniform, udg-lattice"),
    ("proximity.delaunay.flipped_edges", "count", "useful-work ratio of the repair", "about 0 on uniform, thousands on lattice"),
    ("proximity.delaunay.flip_frac", "ratio", "useful-work ratio of the repair", "about 0 on uniform, about 0.16 on lattice"),
    ("proximity.sorted_candidate_edges.s", "s", "solve_s_p50", "approx1-clustered, udg-lattice"),
    ("proximity.emst5.calls", "count", "solve_s_p50", "0 on crossing-one-third"),
    ("proximity.emst5.self_s", "s", "solve_s_p50", "approx1-clustered, udg-lattice"),
    ("proximity.forest_leq.s", "s", "solve_s_p50", "approx1-clustered"),
    ("proximity.forest_leq.calls", "count", "solve_s_p50", "approx1-clustered"),
    ("proximity.disk_graph.s", "s", "solve_s_p50, peak_rss_mb", "crossing-one-third, udg-lattice"),
    ("proximity.disk_graph.calls", "count", "solve_s_p50", "crossing-one-third, udg-lattice"),
    ("proximity.disk_graph.edges", "count", "peak_rss_mb", "crossing-one-third, udg-lattice"),
    ("bottleneck_two.even_forest.calls", "count", "solve_s_p50", "0 on crossing-one-third"),
    ("bottleneck_two.even_forest.self_s", "s", "solve_s_p50", "approx2-uniform"),
    ("bottleneck_two.even_forest.trees", "count", "solve_s_p50", "approx2-uniform"),
    ("bottleneck_two.match_tree_detailed.s", "s", "solve_s_p50", "approx2-uniform"),
    ("bottleneck_two.match_tree_detailed.rounds", "count", "solve_s_p50", "approx2-uniform"),
    ("bottleneck_two.match_tree_detailed.regions", "count", "solve_s_p50", "approx2-uniform"),
    ("bottleneck_one.critical_edge.self_s", "s", "solve_s_p50", "approx1-clustered"),
    ("bottleneck_one.compare_to_opt.s", "s", "solve_s_p50", "approx1-clustered"),
    ("bottleneck_one.compare_to_opt.calls", "count", "solve_s_p50", "approx1-clustered (probes)"),
    ("bottleneck_one.match_tree_first.s", "s", "solve_s_p50", "approx1-clustered"),
    ("blossom.bottleneck_crossing.self_s", "s", "solve_s_p50, peak_rss_mb", "crossing-one-third (all-pairs distances)"),
    ("blossom.max_matching_pairs.s", "s", "solve_s_p50", "crossing-one-third"),
    ("blossom.max_matching_pairs.calls", "count", "solve_s_p50", "crossing-one-third"),
    ("blossom.max_matching_pairs.feasible_frac", "ratio", "solve_s_p50", "crossing-one-third"),
    ("udg.one_third.self_s", "s", "solve_s_p50", "crossing-one-third"),
    ("udg.one_third.rotations", "count", "solve_s_p50", "crossing-one-third"),
    ("udg.one_third.crossing_tests", "count", "solve_s_p50", "crossing-one-third"),
    ("udg.one_third.rotations_per_test", "ratio", "solve_s_p50", "crossing-one-third"),
    ("udg.run_peeling.s", "s", "solve_s_p50", "udg-lattice"),
    ("matching.Matching.of.s", "s", "solve_s_p50", "all"),
    ("matching.validate.s", "s", "solve_s_p50", "all"),
    ("unattributed_s", "s", "n/a (coverage)", "all; at most 5% of the traced job"),
    ("unattributed_frac", "ratio", "n/a (coverage)", "all; at most 0.05"),
    ("trace.solve_s_p50", "s", "n/a (traced jobs)", "all"),
    ("trace.overhead_s", "s", "n/a (traced minus untraced solve_s_p50)", "all"),
]

# Fields computed as the ratio of two other fields of the same span.
RATIOS = {
    "flip_frac": ("flipped_edges", "edges"),
    "feasible_frac": ("feasible", "calls"),
    "rotations_per_test": ("rotations", "crossing_tests"),
}

MAX_UNATTRIBUTED_FRAC = 0.05


def _qhull_exit(rec, span, args, kwargs, out):
    return {"qj_calls": int("QJ" in str(kwargs.get("qhull_options") or "")),
            "_simplices": out.simplices}


def _delaunay_exit(rec, span, args, kwargs, out):
    return {"_n": args[0].n, "_edges": out.edges}


def _targets(pm):
    """(span name, [(owner, attribute), ...], exit hook) for each layer."""
    import scipy.spatial

    io, prox, b1, b2 = pm.io, pm.proximity, pm.bottleneck_one, pm.bottleneck_two
    bl, udg, mt = pm.blossom, pm.udg, pm.matching
    return [
        ("io.parse_points", [(io, "parse_points")], None),
        ("io.gen_points", [(io, "gen_points")], None),
        ("proximity.qhull", [(scipy.spatial, "Delaunay")], _qhull_exit),
        ("proximity.delaunay", [(prox, "delaunay"), (b2, "delaunay")], _delaunay_exit),
        ("proximity.sorted_candidate_edges",
         [(prox, "sorted_candidate_edges"), (b2, "sorted_candidate_edges")], None),
        ("proximity.emst5", [(prox, "emst5"), (b1, "emst5"), (udg, "emst5")], None),
        ("proximity.forest_leq", [(prox, "forest_leq"), (b1, "forest_leq")], None),
        ("proximity.disk_graph", [(prox, "disk_graph"), (bl, "disk_graph"), (udg, "disk_graph")],
         lambda rec, span, a, kw, out: {"edges": sum(map(len, out.adj)) // 2}),
        ("bottleneck_two.even_forest", [(b2, "even_forest")],
         lambda rec, span, a, kw, out: {"trees": len(out.forest.trees)}),
        ("bottleneck_two.match_tree_detailed", [(b2, "match_tree_detailed")],
         lambda rec, span, a, kw, out: {"rounds": len(out.rounds), "regions": len(out.regions)}),
        ("bottleneck_one.critical_edge", [(b1, "critical_edge")], None),
        ("bottleneck_one.compare_to_opt", [(b1, "compare_to_opt")], None),
        ("bottleneck_one.match_tree_first", [(b1, "match_tree_first")], None),
        ("blossom.bottleneck_crossing", [(bl, "bottleneck_crossing")], None),
        ("blossom.max_matching_pairs", [(bl, "max_matching_pairs")],
         lambda rec, span, a, kw, out: {"feasible": int(2 * len(out) == a[0])}),
        ("udg.one_third", [(udg, "one_third")],
         lambda rec, span, a, kw, out: {"rotations": len(out[1].steps),
                                        "crossing_tests": rec.hot - span[HOT]}),
        ("udg.run_peeling", [(udg, "run_peeling"), (b1, "run_peeling")], None),
        ("matching.Matching.of", [(mt.Matching, "of")], None),
        ("matching.validate", [(mt, "validate")], None),
    ]


def _original(owner, attr: str):
    """The attribute to wrap; a missing one fails the run, so a renamed
    layer cannot silently read 0."""
    orig = vars(owner).get(attr)
    if orig is None:
        raise SystemExit(f"tracer: {getattr(owner, '__name__', owner)}.{attr} is missing; "
                         "update the targets in bench/tracer.py")
    return orig


def _edge_codes(pairs: np.ndarray, n: int) -> np.ndarray:
    lo = np.minimum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    hi = np.maximum(pairs[:, 0], pairs[:, 1]).astype(np.int64)
    return np.unique(lo * n + hi)


class Recorder:
    """In-memory span recorder plus the module patches that feed it."""

    def __init__(self, pm):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job = None
        self.hot = 0
        self._plan = self._build(pm)

    def _wrap(self, name, fn, on_exit):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, self.hot, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if on_exit is not None:
                span[ATTRS] = on_exit(self, span, args, kwargs, out)
            return out

        return traced

    def _counted(self, fn):
        def counted(*args):
            self.hot += 1
            return fn(*args)

        return counted

    def _build(self, pm):
        """Resolve every (owner, attribute, original, replacement) once."""
        plan = []
        wrappers: dict[int, object] = {}
        for name, owners, on_exit in _targets(pm):
            for owner, attr in owners:
                orig = _original(owner, attr)
                if isinstance(orig, classmethod):
                    repl = classmethod(self._wrap(name, orig.__func__, on_exit))
                else:
                    repl = wrappers.setdefault(id(orig), self._wrap(name, orig, on_exit))
                plan.append((owner, attr, orig, repl))
        hot = _original(pm.udg, "cross_ids")
        plan.append((pm.udg, "cross_ids", hot, self._counted(hot)))
        return plan

    def install(self) -> None:
        for owner, attr, _, repl in self._plan:
            setattr(owner, attr, repl)

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._plan):
            setattr(owner, attr, orig)

    def call(self, job_id, name, fn, *args):
        """Run ``fn`` as the root span ``name`` of job ``job_id``, patched.

        Returns (seconds, result); seconds is the root span's duration.
        """
        first = len(self.spans)
        self.job = job_id
        self.install()
        try:
            out = self._wrap(name, fn, None)(*args)
        finally:
            self.uninstall()
            self.job = None
            self._finish(first)
        root = self.spans[first]
        return root[END] - root[START], out

    def _finish(self, first: int) -> None:
        """Turn the job's deferred exit data into counts, outside its timing.

        Flipped edges are the repaired triangulation's edges that are absent
        from the last Qhull triangulation inside the same delaunay call.
        """
        spans = self.spans
        last_qhull: dict[int, np.ndarray] = {}
        for span in spans[first:]:
            if span[NAME] == "proximity.qhull" and span[ATTRS] is not None:
                last_qhull[span[PARENT]] = span[ATTRS].pop("_simplices")
        for i in range(first, len(spans)):
            span = spans[i]
            attrs = span[ATTRS]
            if span[NAME] == "proximity.delaunay" and attrs is not None:
                n, edges = attrs.pop("_n"), attrs.pop("_edges")
                flipped = 0
                if i in last_qhull and edges:
                    ours = _edge_codes(np.asarray(edges, dtype=np.int64), n)
                    s = last_qhull.pop(i)
                    theirs = _edge_codes(np.concatenate([s[:, [0, 1]], s[:, [1, 2]], s[:, [0, 2]]]), n)
                    flipped = int(np.setdiff1d(ours, theirs, assume_unique=True).size)
                attrs["edges"] = len(edges)
                attrs["flipped_edges"] = flipped

    def totals(self, jobs) -> dict[str, dict[str, float]]:
        """Per span name: summed seconds, self seconds, calls and counts."""
        jobs = set(jobs)
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[JOB] in jobs and span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        out: dict[str, dict[str, float]] = {}
        for i, span in enumerate(self.spans):
            if span[JOB] not in jobs:
                continue
            t = out.setdefault(span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0})
            dur = span[END] - span[START]
            t["s"] += dur
            t["self_s"] += dur - child[i]
            t["calls"] += 1
            for key, value in (span[ATTRS] or {}).items():
                t[key] = t.get(key, 0) + value
        return out

    def write(self, path, t0: float) -> None:
        """Write every span as one JSON list per line, times relative to t0."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job, _, _ in self.spans:
                fh.write(json.dumps([name, start - t0, end - t0, parent, job]) + "\n")


def layer_metrics(rec: Recorder, traced_jobs, generated: int, traced_ok_s, untraced_ok_s):
    """Every per-layer metric as name -> (value, unit)."""
    jobs = len(traced_jobs)
    totals = rec.totals(traced_jobs)
    gen = rec.totals(["setup"]).get("io.gen_points", {})
    job_total = totals.get("job", {"s": 0.0, "self_s": 0.0})
    out = {}
    for name, unit, _, _ in LAYERS:
        span, _, field = name.rpartition(".")
        t = totals.get(span, {})
        if name == "io.gen_points.s":
            value = gen.get("s", 0.0) / max(1, generated)
        elif name == "unattributed_s":
            value = job_total["self_s"] / jobs
        elif name == "unattributed_frac":
            value = job_total["self_s"] / job_total["s"] if job_total["s"] else 0.0
        elif name == "trace.solve_s_p50":
            value = statistics.median(traced_ok_s)
        elif name == "trace.overhead_s":
            value = statistics.median(traced_ok_s) - statistics.median(untraced_ok_s)
        elif field in RATIOS:
            num, den = RATIOS[field]
            value = t.get(num, 0) / t[den] if t.get(den) else 0.0
        else:
            value = t.get(field, 0) / jobs
        out[name] = (value, unit)
    return out

