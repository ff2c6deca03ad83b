"""Closed-loop solve benchmark for planematch.

Run from the root of a planematch checkout:

    python3 bench/run.py --workload approx2-uniform --seed 1 --seconds 15 --trace 0

A workload (bench/workloads.json) solves a seeded list of instances with one
client in one process: jobs run back to back, no threads, no pool. A job is
the path ``planematch <cmd> --input`` takes minus the JSON printing:
``parse_points`` on point-file bytes the benchmark generated, the algorithm,
then ``validate``. Every job is checked outside the timed region by
bench/checker.py against the benchmark's own copy of the coordinates.

--trace 0 prints the end-to-end metrics. Solve times are gated in units of
a fixed pure-Python reference loop timed right before each job ("ref"): on
a shared machine whose speed drifts by up to 2x within minutes, a job's
wall time over the reference stays steady while wall time alone does not.
The wall-clock figures are printed beside them.
  solve_ref_p50       median of job wall time / reference time, successful jobs
  solve_ref_tail      the highest percentile of those samples with at least
                      ten samples above it (percentile and count are printed)
  points_per_ref      input points of successful jobs over their summed
                      reference-normalised solve times
  setup_s             process start to the first timed job: imports, one
                      toy-size warm-up solve, and generating and serialising
                      the instances. Set up SETUP_REPEATS times, once here
                      and in fresh child processes; the median wall time is
                      divided by the median of reference times taken between
                      the set-ups and scaled by REF_NOMINAL_S: seconds at the
                      nominal speed
  peak_rss_mb         peak resident memory of the process
  ok_frac             jobs that finished and passed every check, over jobs
                      attempted (1 - failed_frac; failed_frac is printed too)
  size_frac           mean 2|M|/n over the distinct instances solved
  bottleneck_over_lb  mean achieved bottleneck over L, the certified lower
                      bound on the optimal bottleneck, over those instances
  printed only: solve_s_p50, solve_s_tail (wall seconds), points_per_s,
  reference_s (median reference time), failed_frac, the raw set-up seconds
A run measures for at least --seconds and until MIN_OK_SAMPLES jobs have
succeeded, so the tail stays well above the median. The certified lower
bound L of every instance is computed in a child process before the loop,
so the solving process loads only what the program itself loads.
--trace 1 runs every job twice, untraced and traced, and prints the
per-layer metrics of the traced jobs (bench/tracer.py); the spans go to
bench/out/. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

import checker  # noqa: E402
import tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# Set-ups per untraced run: this process's own and SETUP_REPEATS - 1 children.
SETUP_REPEATS = 5
# Reference loops before each child set-up and after the last; set-up is
# normalised by their median, which covers the same stretch of time.
PHASE_REFS = 3
# setup_s is in seconds on a machine whose reference loop takes this long.
REF_NOMINAL_S = 0.0625
# An untraced run goes on past --seconds until this many jobs succeeded,
# and fails if MAX_LOOP_S pass first.
MIN_OK_SAMPLES = 30
MAX_LOOP_S = 120.0
CHILD_TIMEOUT_S = 60

END_TO_END = [
    ("solve_ref_p50", "ref"),
    ("solve_ref_tail", "ref"),
    ("points_per_ref", "1/ref"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("size_frac", "ratio"),
    ("bottleneck_over_lb", "ratio"),
]


def load_spec() -> dict:
    return json.loads((BENCH_DIR / "workloads.json").read_text(encoding="utf-8"))


def load_program():
    """Import planematch from this checkout's src/, never from elsewhere."""
    pkg = SRC / "planematch"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"run.py: no planematch sources at {pkg}; run from a planematch checkout")
    sys.path.insert(0, str(SRC))
    import planematch
    from planematch import blossom, bottleneck_one, bottleneck_two, geometry, io, matching, proximity, udg

    if Path(planematch.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"run.py: imported planematch from {planematch.__file__}, not {pkg}")
    return SimpleNamespace(
        blossom=blossom, bottleneck_one=bottleneck_one, bottleneck_two=bottleneck_two,
        geometry=geometry, io=io, matching=matching, proximity=proximity, udg=udg,
    )


@dataclass
class Instance:
    xs: list
    ys: list
    text: bytes


def _decimal(v: int) -> str:
    whole, frac = divmod(abs(v), checker.SCALE)
    return f"{'-' if v < 0 else ''}{whole}.{frac:06d}"


def serialise(xs, ys) -> bytes:
    """The point-file format: a count line, then one "x y" line per point."""
    lines = [str(len(xs))]
    lines.extend(f"{_decimal(x)} {_decimal(y)}" for x, y in zip(xs, ys))
    return ("\n".join(lines) + "\n").encode("ascii")


def make_instances(pm, gen: dict, seed: int) -> list:
    """Instance i comes from seed + i alone, so a seed fixes the whole list."""
    out = []
    for i in range(gen["instances"]):
        if gen["kind"] == "gen_points":
            pts = pm.io.gen_points(gen["n"], seed + i, gen["mode"])
            xs, ys = list(pts.xs), list(pts.ys)
        elif gen["kind"] == "lattice":
            # Full integer lattice with spacing 1 and even width; every
            # translate_every-th instance moves beyond 2^53 scaled units.
            rng = np.random.Generator(np.random.PCG64(seed + i))
            lo, hi = gen["half_width"]
            w = 2 * int(rng.integers(lo, hi + 1))
            h = max(1, round(gen["points"] / w))
            ox = oy = 0
            if i % gen["translate_every"] == gen["translate_every"] - 1:
                lo, hi = gen["offset"]
                ox, oy = (int(v) for v in rng.integers(lo, hi + 1, size=2))
            xs = [ox + x * checker.SCALE for x in range(w) for _ in range(h)]
            ys = [oy + y * checker.SCALE for _ in range(w) for y in range(h)]
        else:
            raise ValueError(f"unknown generator kind {gen['kind']!r}")
        out.append(Instance(xs, ys, serialise(xs, ys)))
    return out


def texts_digest(instances) -> str:
    h = hashlib.sha256()
    for inst in instances:
        h.update(inst.text)
    return h.hexdigest()


def lower_bounds(pm, instances) -> list:
    """L^2 of each instance by the benchmark's own even-prefix scan over
    emst5's edges, or the error that stopped it as a string."""
    out = []
    for inst in instances:
        xs, ys = inst.xs, inst.ys
        try:
            tree = pm.proximity.emst5(pm.geometry.PointSet(zip(xs, ys)))
            edges = [(checker.sq_len(xs, ys, u, v), u, v) for u, v in tree.edge_sq]
            out.append(checker.even_prefix_sq(len(xs), edges))
        except Exception as exc:  # the checker reports; it does not stop the run
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def reference_seconds() -> float:
    """Wall seconds of a fixed pure-Python loop: integer, dict, string and
    sorting work like the program's exact geometry, then a dict of 2^16
    tuples probed out of order, which is bigger than the caches as the
    program's meshes and forests are."""
    t0 = time.perf_counter()
    counts: dict[int, int] = {}
    digits = 0
    for k in range(60000):
        counts[k & 1023] = counts.get(k & 1023, 0) + k * k
        digits += len(str(k))
    sorted((k * 7919) % 10007 for k in range(30000))
    table = {(k * 2654435761) & 0xFFFFFFFF: (k, k * k) for k in range(1 << 16)}
    for k in range(0, 1 << 16, 2):
        digits += table[(k * 2654435761) & 0xFFFFFFFF][1] & 7
    sorted(table)
    return time.perf_counter() - t0


def job(pm, command: str, text: bytes):
    """One timed job: (pairs, one-third's crossing witness or None, validator verdict)."""
    pts = pm.io.parse_points(text)
    witness = None
    if command == "approx2":
        m = pm.bottleneck_two.second_approx(pts)
    elif command == "approx1":
        m = pm.bottleneck_one.first_approx(pts)
    elif command == "udg-match":
        m = pm.udg.plane_matching(pts)
    elif command == "one-third":
        cross = pm.blossom.bottleneck_crossing(pts)
        m, _ = pm.udg.one_third(pts, cross.matching)
        witness = (list(cross.matching.pairs), cross.bottleneck_sq)
    else:
        raise ValueError(f"unknown command {command!r}")
    report = pm.matching.validate(pts, m)
    return list(m.pairs), witness, report.is_matching and report.is_plane


def workload(name: str, toy: bool):
    """(workload spec, generator parameters) at full or toy size."""
    wl = load_spec()["workloads"][name]
    return wl, dict(wl["generator"], **(wl["toy"] if toy else {}))


def set_up(pm, wl: dict, gen: dict, seed: int, t_start: float, rec=None):
    """One untimed toy-size solve pays for lazy imports; then the run's
    instances are generated and serialised. Returns (instances, wall seconds
    since t_start)."""
    warm = make_instances(pm, dict(wl["generator"], **wl["toy"], instances=1), seed)
    job(pm, wl["command"], warm[0].text)
    if rec is None:
        instances = make_instances(pm, gen, seed)
    else:
        _, instances = rec.call("setup", "setup", make_instances, pm, gen, seed)
    return instances, time.perf_counter() - t_start


def spawn_child(mode: str, name: str, seed: int, toy: bool) -> dict:
    """Run this script with --child in a fresh process and wait for it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
           "--seconds", "0", "--child", mode] + (["--toy"] if toy else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"run.py: --child {mode} failed: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_main(args) -> int:
    """--child setup: set up as a run does and print the timing as JSON.
    --child lower: the same, plus every instance's L^2 for the checker."""
    pm = load_program()
    wl, gen = workload(args.workload, args.toy)
    instances, wall = set_up(pm, wl, gen, args.seed, T_START)
    out = {"wall": wall, "texts": texts_digest(instances)}
    if args.child == "lower":
        out["lower"] = lower_bounds(pm, instances)
    print(json.dumps(out), flush=True)
    return 0


@dataclass
class Record:
    instance: int
    traced: bool
    n: int
    seconds: float = 0.0
    reference: float = 0.0
    error: str = ""
    problems: tuple = ()
    size_frac: float = 0.0
    over_lb: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.error and not self.problems


class Checker:
    """Checks job outputs against their instances, outside the timed region."""

    def __init__(self, command: str, instances, lower: list):
        self.command, self.instances, self.lower = command, instances, lower
        self.digests: dict[int, str] = {}
        self.verdicts: dict[tuple, tuple] = {}

    def digest(self, idx: int, entry: str) -> tuple:
        """Record the instance's output digest; a different repeat is a problem."""
        h = hashlib.sha256(entry.encode()).hexdigest()
        if self.digests.setdefault(idx, h) != h:
            return ("output differs from an earlier solve of the same instance",)
        return ()

    def check(self, rec: Record, pairs, witness, validator_ok: bool) -> None:
        """Check one output. An output identical to one already checked for
        the same instance gets that verdict again without recomputing it."""
        entry = "\n".join(f"{a} {b}" for a, b in sorted(pairs))
        drift = self.digest(rec.instance, entry)
        key = (rec.instance, entry, repr(witness), validator_ok)
        if key not in self.verdicts:
            self.verdicts[key] = self._verdict(rec.instance, pairs, witness, validator_ok)
        problems, rec.size_frac, rec.over_lb = self.verdicts[key]
        rec.problems = problems + drift

    def _verdict(self, idx: int, pairs, witness, validator_ok: bool):
        xs, ys = self.instances[idx].xs, self.instances[idx].ys
        lower = self.lower[idx]
        if isinstance(lower, str):
            return (f"no lower bound: {lower}",), 0.0, 0.0
        plane = checker.plane_matching_problems(xs, ys, pairs)
        problems = plane + checker.guarantee_problems(self.command, xs, ys, pairs, lower, witness)
        if validator_ok != (not plane):
            problems.append(f"validate() says plane matching = {validator_ok}, the checker disagrees")
        over_lb = (checker.bottleneck_sq(xs, ys, pairs) / lower) ** 0.5
        return tuple(problems), 2 * len(pairs) / len(xs), over_lb

    def workload_digest(self) -> str:
        joined = "".join(self.digests[i] for i in sorted(self.digests))
        return hashlib.sha256(joined.encode()).hexdigest()


def tail(samples):
    """Highest percentile with at least ten samples above it (the minimum if
    there are fewer than eleven): (value, percentile, samples above)."""
    s = sorted(samples)
    k = max(0, len(s) - 11)
    return s[k], 100.0 * (k + 1) / len(s), len(s) - 1 - k


def end_to_end(records, setups, setup_refs) -> dict:
    """``setups`` holds the wall seconds of each set-up, ``setup_refs`` the
    reference times taken between them."""
    ok = [r for r in records if r.ok]
    solve = [r.seconds for r in ok]
    solve_ref = [r.seconds / r.reference for r in ok]
    tail_ref, pct, above = tail(solve_ref)
    # Output quality belongs to an instance: count each one once, however
    # often the loop solved it.
    first = {}
    for r in ok:
        first.setdefault(r.instance, r)
    values = {
        "solve_ref_p50": statistics.median(solve_ref),
        "solve_ref_tail": tail_ref,
        "points_per_ref": sum(r.n for r in ok) / sum(solve_ref),
        "setup_s": statistics.median(setups) / statistics.median(setup_refs) * REF_NOMINAL_S,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": len(ok) / len(records),
        "size_frac": statistics.fmean(r.size_frac for r in first.values()),
        "bottleneck_over_lb": statistics.fmean(r.over_lb for r in first.values()),
    }
    note = f"  p{pct:.1f} of {len(solve)} samples, {above} above"
    print(f"{'metric':<22} {'value':>14}  unit")
    for key, unit in END_TO_END:
        print(f"{key:<22} {values[key]:>14.6g}  {unit}{note if key == 'solve_ref_tail' else ''}")
    printed = [
        ("solve_s_p50", statistics.median(solve), "s", ""),
        ("solve_s_tail", tail(solve)[0], "s", note),
        ("points_per_s", sum(r.n for r in ok) / sum(solve), "1/s", ""),
        ("reference_s", statistics.median(r.reference for r in ok), "s", ""),
        ("failed_frac", 1 - values["ok_frac"], "ratio", ""),
        ("setup_wall_s", statistics.median(setups), "s", "  set-ups " + ", ".join(f"{w:.4f}" for w in setups)),
        ("setup_reference_s", statistics.median(setup_refs), "s", f"  {len(setup_refs)} samples between set-ups"),
    ]
    for key, value, unit, extra in printed:
        print(f"{key:<22} {value:>14.6g}  {unit}{extra}  (printed only)")
    return {key: {"value": values[key], "unit": unit} for key, unit in END_TO_END}


def per_layer(rec, wl: dict, records, generated: int) -> dict:
    """Per-layer metrics of the traced jobs; raises SystemExit when the trace
    shows a layer the workload must not touch, misses one it must load, or
    leaves more than 5% of the traced time unattributed."""
    traced = [i for i, r in enumerate(records) if r.traced]
    layers = tracer.layer_metrics(
        rec, traced, generated,
        [r.seconds for r in records if r.traced and r.ok],
        [r.seconds for r in records if not r.traced and r.ok])
    print(f"{'per-layer metric':<44} {'value':>12}  {'unit':<6} moves / on")
    for key, unit, moves, where in tracer.LAYERS:
        print(f"{key:<44} {layers[key][0]:>12.6g}  {unit:<6} {moves} / {where}")
    calls = {name: t["calls"] for name, t in rec.totals(traced).items()}
    problems = [f"{span} was called {calls[span]} times; this workload must not touch it"
                for span in wl["must_not_touch"] if calls.get(span)]
    problems += [f"{span} was never called; this workload must load it"
                 for span in wl["loads"] if not calls.get(span)]
    if layers["unattributed_frac"][0] > tracer.MAX_UNATTRIBUTED_FRAC:
        problems.append(f"unattributed time is {layers['unattributed_frac'][0]:.3f} of the traced "
                        f"jobs, above {tracer.MAX_UNATTRIBUTED_FRAC}")
    if problems:
        raise SystemExit("run.py: trace check failed: " + "; ".join(problems))
    return {key: {"value": value, "unit": unit} for key, (value, unit) in layers.items()}


def run_workload(pm, name: str, seed: int, seconds: float, trace: bool,
                 t_start: float, toy: bool = False, min_ok: int = MIN_OK_SAMPLES) -> dict:
    """Set up, run the closed loop, and return the result line."""
    spec = load_spec()
    wl, gen = workload(name, toy)
    command = wl["command"]
    rec = tracer.Recorder(pm) if trace else None

    instances, wall = set_up(pm, wl, gen, seed, t_start, rec)
    setups, setup_refs, lower = [wall], [], None
    for mode in ["lower"] + ([] if trace else ["setup"] * (SETUP_REPEATS - 2)):
        setup_refs += [reference_seconds() for _ in range(PHASE_REFS)]
        out = spawn_child(mode, name, seed, toy)
        if out["texts"] != texts_digest(instances):
            raise SystemExit("run.py: the same seed generated different instances")
        setups.append(out["wall"])
        lower = out.get("lower", lower)
    setup_refs += [reference_seconds() for _ in range(PHASE_REFS)]
    # Set-up objects live for the whole run; keep them out of the
    # collector's way so they do not slow the jobs' collections.
    gc.collect()
    gc.freeze()

    check = Checker(command, instances, lower)
    records: list[Record] = []
    # A run stops only between groups of jobs; a group spans one period of
    # the generator's every-k-th-instance pattern, so that pattern keeps its
    # exact share of the jobs in every run.
    group = gen.get("translate_every", 1)
    if trace:
        min_ok = 0  # the tail is an untraced metric
    t_loop = time.perf_counter()
    j = ok_count = 0
    while True:
        for _ in range(group):
            idx = j % len(instances)
            modes = [False] if not trace else ([False, True] if j % 2 == 0 else [True, False])
            for traced in modes:
                r = Record(instance=idx, traced=traced, n=len(instances[idx].xs))
                gc.collect()
                r.reference = reference_seconds()
                try:
                    if traced:
                        r.seconds, result = rec.call(len(records), "job", job, pm, command, instances[idx].text)
                    else:
                        t0 = time.perf_counter()
                        result = job(pm, command, instances[idx].text)
                        r.seconds = time.perf_counter() - t0
                except Exception as exc:  # a failed job is counted; the run goes on
                    r.error = type(exc).__name__
                    check.digest(idx, f"error:{r.error}")
                else:
                    check.check(r, *result)
                records.append(r)
                ok_count += r.ok and not traced
            j += 1
        elapsed = time.perf_counter() - t_loop
        if elapsed >= seconds and (ok_count >= min_ok or ok_count == 0 or elapsed >= MAX_LOOP_S):
            break

    attempted = len(records)
    failed = sum(1 for r in records if not r.ok)
    wrong = [r for r in records if r.problems]
    errors: dict[str, int] = {}
    for r in records:
        if r.error:
            errors[r.error] = errors.get(r.error, 0) + 1
    if not any(r.ok and not r.traced for r in records):
        raise SystemExit(f"run.py: no job succeeded ({attempted} attempted, errors {errors})")
    if ok_count < min_ok:
        raise SystemExit(f"run.py: {ok_count} jobs succeeded in {elapsed:.0f} s, fewer than the "
                         f"{min_ok} that put the tail above the median")

    print(f"workload {name}  command {command}  seed {seed}  generator {json.dumps(gen, sort_keys=True)}")
    print(f"load: {spec['load_model']}")
    print(f"jobs: {attempted} attempted, {failed} failed, errors {errors or 'none'}, wrong outputs {len(wrong)}")
    for r in wrong[:5]:
        print(f"  wrong output on instance {r.instance}: {'; '.join(r.problems)}")
    for known in wl["known_failures"]:
        print(f"known failure: {known['jobs']}: {known['error']} "
              f"(baseline failed_frac {known['baseline_failed_frac']})")
    print(f"digest {check.workload_digest()} over {len(check.digests)} instances (behaviour, not a metric)")

    if trace:
        rec.write(BENCH_DIR / "out" / f"spans-{name}-seed{seed}{'-toy' if toy else ''}.jsonl", t_start)
        metrics = per_layer(rec, wl, records, len(instances))
    else:
        metrics = end_to_end([r for r in records if not r.traced], setups, setup_refs)
    return {"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(load_spec()["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true", help="use the workload's toy size")
    ap.add_argument("--child", choices=("setup", "lower"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.child:
        return child_main(args)
    pm = load_program()
    result = run_workload(pm, args.workload, args.seed, args.seconds, bool(args.trace), T_START,
                          toy=args.toy, min_ok=1 if args.toy else MIN_OK_SAMPLES)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
