"""Benchmark for parkforest: time the public functions from outside.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
src/.  The run builds the workload's inputs from the seed (set-up, done
several times and reported as a median), then repeats whole passes of
the workload's ops until S seconds have gone by and each latency kind
holds at least 100 samples, so that a p90 rests on 100.  Each op is
checked after its timed interval closes.  One process, no worker pool.

The machine is shared, and its speed drifts by a third and more, within
a run and between runs, in the library and in plain Python alike.  So
every timed interval (op, set-up, scaling step) is followed by a fixed
reference task (the benchmark's own oracles on fixed inputs, no library
code), and the interval is divided by the mean of the reference times
on either side of it, over REF_UNIT_S.  Every time reported is thus the
time on a machine where the reference task takes REF_UNIT_S; span times
are scaled by the median of their run's factors.  The raw median pass
time and the measured reference time are in the context line.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end-to-end ones:

  setup_s       median time to import parkforest and build the inputs
  wall_s        median time of one pass (timed intervals only)
  ops_per_s     ops in one pass over the median pass time
  op_ms_p50/p90 latency of one op, nearest-rank percentiles
  peak_rss_mb   the process's peak resident set size

With --trace 1 the run alternates untraced passes with passes in which
every public function of the library is wrapped in a span, until the
untraced ones add up to a third of S, then adds untraced passes until
each latency kind holds 100 samples.  It reports per-layer metrics:
calls, total and self time per pass for each function, tracemalloc
peaks, scaling exponents, input-shape counts, direction latencies and
the error rate.  The line before the result holds run context (machine,
calibration loop, sample counts, failures).

A traceback from a malformed CLI class that crashes today (ROADMAP item
3) counts as a failed op; any other crash or wrong result makes the run
incorrect.

Exit status: 0 when every op's output was correct, 1 when one was not,
2 when the library cannot be found or the arguments are wrong.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

import inputs  # noqa: E402
import workloads  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402

SETUP_REPS = 15
FAILURES_SHOWN = 5
SCALING_LADDER = (500, 1000, 2000, 4000)
SCALING_REPS = 2
MIN_SELF_SHARE = 0.8  # spans must cover most of the traced op time
MIN_P90_SAMPLES = 100  # a run goes on past its seconds until each kind has these
REF_N = 700  # size of the reference task's forest and parking function
REF_ENUM_N = 4  # size of the objects it enumerates
# About the reference task's time on a 2-vCPU Xeon sandbox under CPython
# 3.11; the scale of every time reported.
REF_UNIT_S = 0.005


MODULES = ("forest", "forest_stats", "parking", "bijection", "exhaustive", "genpoly", "cli")


def load_library():
    """Import parkforest afresh from src/, dropping any earlier import.

    Returns its modules by name; the package namespace itself will not
    do, since there `forest_stats` is the function, not the module.
    """
    for name in [m for m in sys.modules if m == "parkforest" or m.startswith("parkforest.")]:
        del sys.modules[name]
    return SimpleNamespace(
        **{m: importlib.import_module(f"parkforest.{m}") for m in MODULES}
    )


class Reference:
    """A fixed task run after every timed interval, to gauge the machine.

    It is the benchmark's own oracles on fixed inputs, so no change to
    the library can change it: inversion counts and parking (loops over
    lists and dicts, like the maps) and the enumeration of every forest
    and parking function of size REF_ENUM_N (many tiny tuples, like the
    oracle sweep).  Either half alone tracks some workloads' drift worse.
    """

    def __init__(self):
        rng = random.Random(0)
        self.forest = inputs.random_forest(REF_N, rng)
        self.prefs = inputs.random_parking_function(REF_N, rng)
        self.times: list[float] = []
        self.last = self._run()

    def _run(self) -> float:
        t0 = perf_counter()
        inputs.inversions(self.forest)
        inputs.park(self.prefs)
        inputs.all_forests(REF_ENUM_N)
        inputs.all_parking_functions(REF_ENUM_N)
        return perf_counter() - t0

    def factor(self) -> float:
        """How much slower than nominal the machine was over the interval
        since the last call: the mean of the reference before and after."""
        before, self.last = self.last, self._run()
        self.times.append(self.last)
        return (before + self.last) / 2 / REF_UNIT_S


def setup(workload_cls, seed, ref):
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        lib = load_library()
        workload = workload_cls(lib, seed)
        times.append((perf_counter() - t0) / ref.factor())
    return lib, workload, statistics.median(times)


def calibrate() -> float:
    """A fixed stdlib-only loop, timed to show how fast the machine is now."""
    t0 = perf_counter()
    x = 0
    for i in range(200_000):
        x = (x * 31 + i) % 1_000_003
    sorted(str(i) for i in range(50_000))
    return (perf_counter() - t0) * 1000


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Record:
    """What a measurement saw: latencies, pass times and failures."""

    def __init__(self):
        self.samples: dict[str, list[float]] = {}  # scaled by the reference
        self.pass_s: list[float] = []  # scaled by the reference
        self.raw_pass_s: list[float] = []  # as measured
        self.factors: list[float] = []  # Reference.factor() after each op
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.crashes: dict[str, int] = {}  # known-defect failures by kind
        self.messages: list[str] = []  # the first wrong results

    def fail(self, op, exc, wrong):
        self.failed += 1
        if wrong:
            self.wrong += 1
            if len(self.messages) < FAILURES_SHOWN:
                self.messages.append(f"{type(exc).__name__}: {exc}"[:300])
        else:
            self.crashes[op.kind] = self.crashes.get(op.kind, 0) + 1

    def ms(self, kind, q):
        values = self.samples.get(kind)
        return nearest_rank(values, q) * 1000 if values else 0.0


def measure(workload, ref, seconds=None, passes=None, tracer=None, rec=None) -> Record:
    """Run whole passes until `passes` are done, or else until `seconds`
    have gone by and every latency kind in `rec` has MIN_P90_SAMPLES."""
    rec = rec or Record()
    start = perf_counter()
    done = 0
    while True:
        pass_s = raw_pass_s = 0.0
        for op in workload.ops:
            rec.attempted += 1
            try:
                latencies, payload = op.run()
            except Exception as exc:
                ref.factor()  # so the next op has a reference right before it
                rec.fail(op, exc, wrong=True)
                continue
            if tracer:
                tracer.active = False
            factor = ref.factor()
            rec.factors.append(factor)
            for kind, value in latencies.items():
                rec.samples.setdefault(kind, []).append(value / factor)
            pass_s += latencies["op"] / factor
            raw_pass_s += latencies["op"]
            try:
                op.check(payload)
            except workloads.Crash as exc:
                rec.fail(op, exc, wrong=not op.known_crash)
            except Exception as exc:
                rec.fail(op, exc, wrong=True)
            finally:
                if tracer:
                    tracer.active = True
        rec.pass_s.append(pass_s)
        rec.raw_pass_s.append(raw_pass_s)
        done += 1
        if passes is not None:
            if done >= passes:
                return rec
        elif perf_counter() - start >= seconds and all(
            len(v) >= MIN_P90_SAMPLES for v in rec.samples.values()
        ):
            return rec


def end_to_end(rec: Record, setup_s: float, ops_per_pass: int) -> dict:
    wall_s = statistics.median(rec.pass_s)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "ops_per_s": (ops_per_pass / wall_s, "1/s"),
        "op_ms_p50": (rec.ms("op", 0.5), "ms"),
        "op_ms_p90": (rec.ms("op", 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# ---------------------------------------------------------------------------
# Traced run


def peak_kib(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def slope(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sum((a - mx) ** 2 for a in lx)


def scaling(lib, seed, ref) -> dict:
    """Time the maps over a doubling ladder and fit the growth exponents."""
    bij, Forest = lib.bijection, lib.forest.Forest
    rng = random.Random(seed)

    def best(fn, arg):
        times = []
        for _ in range(SCALING_REPS):
            t0 = perf_counter()
            fn(arg)
            times.append((perf_counter() - t0) / ref.factor())
        return min(times)

    series = {
        "scaling.forward.path_up.exponent": [],
        "scaling.backward.path_down.exponent": [],
        "scaling.forward.uniform.exponent": [],
    }
    for n in SCALING_LADDER:
        path_down_image = bij.forest_to_parking(Forest(inputs.path_down(n)))[0]
        series["scaling.forward.path_up.exponent"].append(
            best(bij.forest_to_parking, Forest(inputs.path_up(n)))
        )
        series["scaling.backward.path_down.exponent"].append(
            best(bij.parking_to_forest, path_down_image)
        )
        series["scaling.forward.uniform.exponent"].append(
            best(bij.forest_to_parking, Forest(inputs.random_forest(n, rng)))
        )
    return {name: (slope(SCALING_LADDER, ts), "1") for name, ts in series.items()}


def per_layer(lib, workload, ref, seconds, seed, context) -> tuple[dict, Record]:
    # Untraced and traced passes alternate, so a drift in machine speed
    # touches both sides of the overhead ratio alike.
    plain, traced, tracer = Record(), Record(), Tracer()
    while sum(plain.raw_pass_s) < seconds / 3:
        measure(workload, ref, passes=1, rec=plain)
        tracer.install()
        try:
            measure(workload, ref, passes=1, tracer=tracer, rec=traced)
        finally:
            tracer.uninstall()
    plain_s, traced_s = sum(plain.pass_s), sum(traced.pass_s)
    if any(len(v) < MIN_P90_SAMPLES for v in plain.samples.values()):
        # more untraced passes, until the direction latencies can give a p90
        measure(workload, ref, seconds=0, rec=plain)
    plain.wrong += traced.wrong
    plain.messages += traced.messages[: FAILURES_SHOWN - len(plain.messages)]
    passes = len(traced.pass_s)
    share = sum(tracer.self_ns.values()) / 1e9 / sum(traced.raw_pass_s)
    if not MIN_SELF_SHARE <= share <= 1.0:
        plain.wrong += 1
        plain.messages.append(f"span self times cover {share:.3f} of the traced op time")

    m = {}
    ns_to_ms = 1e6 * passes * statistics.median(traced.factors)
    for name in SPAN_NAMES:
        m[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
        m[f"{name}.total_ms"] = (tracer.total_ns[name] / ns_to_ms, "ms")
        m[f"{name}.self_ms"] = (tracer.self_ns[name] / ns_to_ms, "ms")
    m["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    m["trace.self_share"] = (share, "ratio")
    for kind in ("forward", "backward"):
        m[f"{kind}_ms_p50"] = (plain.ms(kind, 0.5), "ms")
        m[f"{kind}_ms_p90"] = (plain.ms(kind, 0.9), "ms")
    cli = workload.name == "cli_session"
    m["cli_ms_p50"] = (plain.ms("op", 0.5) if cli else 0.0, "ms")
    m["cli_ms_p90"] = (plain.ms("op", 0.9) if cli else 0.0, "ms")
    m["error_rate"] = (plain.failed / plain.attempted, "ratio")

    forests, prefs = workload.objects(lib)
    jump_sum = {p: sum(inputs.jumps(tuple(p)) or ()) for p in map(tuple, prefs)}
    m["input.subtree_size_sum"] = (sum(map(inputs.subtree_size_sum, forests)), "count")
    m["input.jump_sum"] = (sum(jump_sum[tuple(p)] for p in prefs), "count")
    # largest by length, and among those the one making the most work
    big_forest = max(forests, key=lambda f: (len(f), inputs.subtree_size_sum(f)))
    big_prefs = max(jump_sum, key=lambda p: (len(p), jump_sum[p]))
    Forest = lib.forest.Forest
    m["bijection.forest_to_parking.peak_kb"] = (
        peak_kib(lib.bijection.forest_to_parking, Forest(big_forest)), "KiB")
    m["bijection.parking_to_forest.peak_kb"] = (
        peak_kib(lib.bijection.parking_to_forest, big_prefs), "KiB")
    m["parking.park.peak_kb"] = (peak_kib(lib.parking.park, big_prefs), "KiB")
    m.update(scaling(lib, seed, ref))

    context["passes"] = {"untraced": len(plain.pass_s), "traced": passes}
    return m, plain


# ---------------------------------------------------------------------------


def commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "parkforest" / "__init__.py").is_file():
        print(f"bench: no parkforest sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    calib_start = calibrate()
    ref = Reference()
    lib, workload, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, ref)
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit(),
    }
    if args.trace:
        metrics, rec = per_layer(lib, workload, ref, args.seconds, args.seed, context)
    else:
        rec = measure(workload, ref, seconds=args.seconds)
        metrics = end_to_end(rec, setup_s, len(workload.ops))
        context["passes"] = len(rec.pass_s)
        context["raw_wall_s"] = statistics.median(rec.raw_pass_s)
    calib_end = calibrate()
    if args.trace:
        metrics["calib_ms"] = ((calib_start + calib_end) / 2, "ms")

    context["error_rate"] = rec.failed / rec.attempted
    context["samples"] = {k: len(v) for k, v in rec.samples.items()}
    context["latency_ms"] = {
        f"{kind}_p{int(q * 100)}": rec.ms(kind, q)
        for kind in sorted(rec.samples)
        for q in (0.5, 0.9)
    }
    context["calib_ms"] = {"start": calib_start, "end": calib_end}
    context["ref_ms"] = {"nominal": REF_UNIT_S * 1000, "median": statistics.median(ref.times) * 1000}
    malformed = sum(op.expect_exit2 for op in workload.ops)
    crashed = sum(rec.crashes.values())
    context["malformed_share"] = malformed / len(workload.ops)
    context["crash_share_of_malformed"] = (
        crashed / (malformed * len(rec.pass_s)) if malformed else 0.0
    )
    context["crashes"] = rec.crashes
    context["failures"] = rec.messages
    print(json.dumps({"context": context}))

    correct = rec.wrong == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
