"""The four benchmark workloads.

A workload is built from a seed (this is the timed set-up) and offers a
fixed list of ops that make up one pass.  Op.run times its calls into
the library and returns the intervals with a payload; Op.check judges the
payload afterwards, outside every timed interval, mostly against the
independent oracles in inputs.py.  Library functions are looked up on
their modules at call time so the traced run's wrappers see every call.

  uniform_roundtrip  uniform forests and parking functions at one size;
                     ordinary library use, near-linear layers dominate
  deep_shapes        paths, caterpillar, broom and star in one batch;
                     the superlinear relabeling and probing layers dominate
  oracle_sweep       verify_bijection(0..5) and the genpoly families;
                     many tiny objects, so per-call overhead dominates
  cli_session        parkforest.cli.main, one call of each command kind
                     and of each malformed class per round; the only
                     cli coverage
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from time import perf_counter

import inputs

UNIFORM_N = 2000
UNIFORM_POOL = 96  # round trips per pass, half from a forest; evens out tree depth
DEEP_N = 500
DEEP_BATCHES = 4  # per pass; paths repeat, the other shapes are relabeled
# verify_bijection(6) would make a pass of 5-7 s, too few per run to be steady
ORACLE_VERIFY_NS = range(6)
ORACLE_POLY_N = 5
CLI_SIZES = (50, 500)


class OpError(Exception):
    """An op's output failed its check."""


class Crash(OpError):
    """The library raised where it should have answered or exited."""


class Op:
    """One timed unit of work.

    run() returns (latencies, payload): latencies maps a kind ("op" plus
    e.g. "forward") to seconds.  check(payload) raises OpError on a wrong
    result.  expect_exit2 marks malformed CLI input.  known_crash marks
    the malformed classes that raise a traceback today, a known defect:
    their crash counts as failed without making the run incorrect.  A
    crash on any other op makes the run incorrect.
    """

    expect_exit2 = False
    known_crash = False

    def run(self):
        raise NotImplementedError

    def check(self, payload) -> None:
        raise NotImplementedError


def _same(what: str, got, want) -> None:
    if got != want:
        raise OpError(f"{what}: got {str(got)[:120]}, want {str(want)[:120]}")


def _transport(parent, prefs, to_car) -> None:
    err = inputs.transport_error(tuple(parent), tuple(prefs), tuple(to_car))
    if err:
        raise OpError(err)


# ---------------------------------------------------------------------------
# uniform_roundtrip


class RoundTrip(Op):
    """Both maps and both statistics on one forest or parking function."""

    def __init__(self, lib, forest=None, prefs=None):
        self.lib = lib
        self.forest = lib.forest.Forest(forest) if forest is not None else None
        self.prefs = prefs

    def run(self):
        bij, fst, pk = self.lib.bijection, self.lib.forest_stats, self.lib.parking
        t0 = perf_counter()
        if self.forest is not None:
            f = self.forest
            p, lmap = bij.forest_to_parking(f)
            t1 = perf_counter()
            back, back_map = bij.parking_to_forest(p)
            t2 = perf_counter()
            fwd, bwd = t1 - t0, t2 - t1
        else:
            back, back_map = bij.parking_to_forest(self.prefs)
            t1 = perf_counter()
            f = back
            p, lmap = bij.forest_to_parking(back)
            t2 = perf_counter()
            fwd, bwd = t2 - t1, t1 - t0
        fs = fst.forest_stats(f)
        ps = pk.parking_stats(p)
        t3 = perf_counter()
        lat = {"op": t3 - t0, "forward": fwd, "backward": bwd}
        return lat, (f, p, lmap, back, back_map, fs, ps)

    def check(self, payload):
        f, p, lmap, back, back_map, fs, ps = payload
        if self.forest is not None:
            _same("round trip parent", back.parent, f.parent)
        else:
            _same("round trip preferences", tuple(p), tuple(self.prefs))
        _same("round trip label map", back_map.to_car, lmap.to_car)
        _transport(f.parent, p, lmap.to_car)
        _same("forest_stats.inv_at", list(fs.inv_at), inputs.inversions(f.parent)[1:])
        _same("parking_stats.jump_at", list(ps.jump_at), inputs.jumps(tuple(p)))


class UniformRoundtrip:
    name = "uniform_roundtrip"

    def __init__(self, lib, seed):
        rng = random.Random(seed)
        self.ops = []
        for i in range(UNIFORM_POOL):
            if i % 2 == 0:
                self.ops.append(RoundTrip(lib, forest=inputs.random_forest(UNIFORM_N, rng)))
            else:
                self.ops.append(
                    RoundTrip(lib, prefs=inputs.random_parking_function(UNIFORM_N, rng))
                )

    def objects(self, lib):
        """(forests, parking functions) fed to the maps in one pass."""
        forests, prefs = [], []
        for op in self.ops:
            if op.forest is not None:
                forests.append(op.forest.parent)
                prefs.append(lib.bijection.forest_to_parking(op.forest)[0])
            else:
                prefs.append(op.prefs)
                forests.append(lib.bijection.parking_to_forest(op.prefs)[0].parent)
        return forests, prefs


# ---------------------------------------------------------------------------
# deep_shapes


class ShapeBatch(Op):
    """Every deep shape once, forward and then back."""

    def __init__(self, lib, shapes):
        self.lib = lib
        self.shapes = {k: lib.forest.Forest(v) for k, v in shapes.items()}

    def run(self):
        bij = self.lib.bijection
        fwd = bwd = 0.0
        out = []
        for name, f in self.shapes.items():
            t0 = perf_counter()
            p, lmap = bij.forest_to_parking(f)
            t1 = perf_counter()
            back, back_map = bij.parking_to_forest(p)
            t2 = perf_counter()
            fwd += t1 - t0
            bwd += t2 - t1
            out.append((name, f, p, lmap, back, back_map))
        return {"op": fwd + bwd, "forward": fwd, "backward": bwd}, out

    def check(self, payload):
        for name, f, p, lmap, back, back_map in payload:
            _same(f"{name}: round trip parent", back.parent, f.parent)
            _same(f"{name}: round trip label map", back_map.to_car, lmap.to_car)
            _transport(f.parent, p, lmap.to_car)


class DeepShapes:
    name = "deep_shapes"

    def __init__(self, lib, seed):
        rng = random.Random(seed)
        self.ops = [
            ShapeBatch(lib, inputs.deep_shapes(DEEP_N, rng)) for _ in range(DEEP_BATCHES)
        ]

    def objects(self, lib):
        forests = [f for op in self.ops for f in op.shapes.values()]
        prefs = [lib.bijection.forest_to_parking(f)[0] for f in forests]
        return [f.parent for f in forests], prefs


# ---------------------------------------------------------------------------
# oracle_sweep


class Verify(Op):
    def __init__(self, lib, n):
        self.lib, self.n = lib, n

    def run(self):
        t0 = perf_counter()
        report = self.lib.exhaustive.verify_bijection(self.n, jobs=None)
        return {"op": perf_counter() - t0}, report

    def check(self, report):
        count = (self.n + 1) ** (self.n - 1) if self.n else 1
        failures = (report.roundtrip_failures, report.stat_mismatches)
        _same(f"verify({self.n}) failures", failures, (0, 0))
        counts = (report.forest_count, report.parking_function_count)
        _same(f"verify({self.n}) counts", counts, (count, count))


class Families(Op):
    """The five generating polynomials, each with its closed product or twin.

    One op rather than five: their costs are alike, and as separate ops
    they would interleave with verify(4) around the median latency.
    """

    # family -> what it must equal
    PARTNERS = {
        "inversion_type_poly": "jump_type_poly",
        "jump_type_poly": "inversion_type_poly",
        "lucky_poly": "lucky_product_formula",
        "critic_lucky_poly": "critic_lucky_product_formula",
        "lead_tree_poly": "critic_lucky_product_formula",
    }

    def __init__(self, lib, n):
        self.lib, self.n = lib, n

    def run(self):
        gp = self.lib.genpoly
        t0 = perf_counter()
        polys = {name: getattr(gp, name)(self.n) for name in self.PARTNERS}
        polys["lucky_product_formula"] = gp.lucky_product_formula(self.n)
        polys["critic_lucky_product_formula"] = gp.critic_lucky_product_formula(self.n)
        return {"op": perf_counter() - t0}, polys

    def check(self, polys):
        objects = (self.n + 1) ** (self.n - 1)
        for family, partner in self.PARTNERS.items():
            poly = polys[family]
            _same(f"{family}({self.n}) coefficient sum", sum(poly.terms.values()), objects)
            _same(f"{family}({self.n}) vs {partner}", poly.terms, polys[partner].terms)


class OracleSweep:
    name = "oracle_sweep"

    def __init__(self, lib, seed):
        # The sweep is fixed by its sizes; the seed has nothing to draw.
        self.ops = [Verify(lib, n) for n in ORACLE_VERIFY_NS] + [Families(lib, ORACLE_POLY_N)]

    def objects(self, lib):
        forests, prefs = [], []
        for n in ORACLE_VERIFY_NS:
            forests += inputs.all_forests(n)
            prefs += inputs.all_parking_functions(n)
        # two genpoly families sweep the forests, three the parking functions
        forests += 2 * inputs.all_forests(ORACLE_POLY_N)
        prefs += 3 * inputs.all_parking_functions(ORACLE_POLY_N)
        return forests, prefs


# ---------------------------------------------------------------------------
# cli_session


def _text(values, rng, kind):
    """Render a sequence in one of the input formats the CLI accepts."""
    style = rng.randrange(4)
    values = list(values)
    if style == 0:
        return ",".join(map(str, values))
    if style == 1:
        return " ".join(map(str, values))
    if style == 2:
        return json.dumps(values)
    return json.dumps({"n": len(values), kind: values})


def _forest_with(rng, edit):
    parent = list(inputs.random_forest(rng.randrange(3, 40), rng))
    edit(parent)
    return ",".join(map(str, parent))


def _cycle(parent):
    parent[:3] = [2, 3, 1]
    parent.append(0)


def _self_parent(parent):
    v = len(parent) // 2
    parent[v - 1] = v
    parent.append(0)


def _out_of_range(parent):
    parent[-1] = len(parent) + 3


def _all_prefer_last(n):
    return ",".join([str(n)] * n)


# Malformed input classes, each expected to exit with code 2.  The ones
# marked "crash" raise a traceback at the time the benchmark was written.
MALFORMED = [
    ("non_integer_token", lambda r: ["map", f"0,{r.randrange(1, 9)},x"]),
    ("truncated_json", lambda r: ["map", '{"parent": [0, 1']),
    ("cycle", lambda r: ["map", _forest_with(r, _cycle)]),
    ("self_parent", lambda r: ["map", _forest_with(r, _self_parent)]),
    ("parent_out_of_range", lambda r: ["map", _forest_with(r, _out_of_range)]),
    ("not_parking", lambda r: ["unmap", _all_prefer_last(r.randrange(3, 40))]),
    ("forest_to_unmap", lambda r: ["unmap", "0,1,2"]),
    ("n_mismatch", lambda r: ["map", '{"n": 3, "parent": [0]}']),
    ("float_parent", lambda r: ["map", "[1.5, 0]"]),
    ("json_no_key", lambda r: ["map", '{"foo": 1}']),
    ("no_input", lambda r: ["map"]),
    ("forest_to_pa", lambda r: ["pa", "0,1,2"]),
    ("huge_preference", lambda r: ["stats", f"5,1,{r.randrange(10_000, 100_000)}"]),
    ("verify_too_big", lambda r: ["verify", "--n", "9"]),
    ("verify_missing_n", lambda r: ["verify"]),
    ("poly_bad_family", lambda r: ["poly", "--n", "3", "--family", "bogus"]),
    ("crash:json_string_parent", lambda r: ["map", '{"parent": ["x"]}']),
    ("crash:json_scalar_parent", lambda r: ["map", '{"parent": 5}']),
    ("crash:json_string_n", lambda r: ["stats", '{"parent": [0], "n": "a"}']),
    ("crash:verify_negative_n", lambda r: ["verify", "--n", "-2"]),
    ("crash:verify_random_negative_n", lambda r: ["verify", "--n", "-2", "--random", "3"]),
    ("crash:poly_n_zero", lambda r: ["poly", "--n", "0", "--family", "lucky", "--compare-product"]),
]

# One call of each valid kind and one of each malformed class per
# round: every command and every error class weighs the same.
CLI_KINDS = (
    "map",
    "map_trace",
    "unmap",
    "unmap_trace",
    "stats_forest",
    "stats_parking",
    "pa",
    "verify_random",
    "poly",
)
CLI_ROUNDS = 10  # a multiple of the five poly families
POLY_FAMILIES = ["critic-lucky", "inversion-type", "jump-type", "lead-tree", "lucky"]


class CliCall(Op):
    def __init__(self, lib, kind, argv, obj=None, expect_exit2=False, known_crash=False):
        self.lib, self.kind, self.argv, self.obj = lib, kind, argv, obj
        self.expect_exit2, self.known_crash = expect_exit2, known_crash

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        crash = None
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.lib.cli.main(self.argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is this op's outcome, not the run's
            code, crash = None, f"{type(exc).__name__}: {exc}"
        return {"op": perf_counter() - t0}, (code, crash, out.getvalue())

    def check(self, payload):
        code, crash, stdout = payload
        if crash:
            raise Crash(f"{self.kind} {self.argv[:1]} raised {crash}")
        if self.expect_exit2:
            _same(f"{self.kind} exit code", code, 2)
            return
        _same(f"{self.kind} exit code", code, 0)
        getattr(self, "_check_" + self.kind.split("_")[0])(json.loads(stdout))

    def _check_map(self, got):
        bij = self.lib.bijection
        f = self.obj
        if self.kind == "map_trace":
            _same("map --trace --json", got, bij.map_trace(f))
        else:
            p, lmap = bij.forest_to_parking(f)
            _same("map --json", got, {"n": f.n, "parking": list(p), "labelMap": lmap.as_report()})
        _transport(f.parent, got["parking"], [0] + got["labelMap"]["vertexToCar"])

    def _check_unmap(self, got):
        bij = self.lib.bijection
        p = self.obj
        if self.kind == "unmap_trace":
            _same("unmap --trace --json", got, bij.unmap_trace(p))
        else:
            f, lmap = bij.parking_to_forest(p)
            want = {"n": f.n, "parent": list(f.parent), "labelMap": lmap.as_report()}
            _same("unmap --json", got, want)
        _transport(got["parent"], p, [0] + got["labelMap"]["vertexToCar"])

    def _check_stats(self, got):
        if self.kind == "stats_forest":
            _same("stats forest", got, self.lib.forest_stats.forest_stats(self.obj).as_report())
            _same("stats invAt", got["invAt"], inputs.inversions(self.obj.parent)[1:])
        else:
            _same("stats parking", got, self.lib.parking.parking_stats(self.obj).as_report())
            _same("stats jumpAt", got["jumpAt"], inputs.jumps(self.obj))

    def _check_pa(self, got):
        slots = inputs.park(self.obj)
        want = {
            "n": len(self.obj),
            "slots": slots,
            "maxSpace": max(slots),
            "parkingFunction": inputs.jumps(self.obj) is not None,
        }
        _same("pa --json", got, want)

    def _check_verify(self, got):
        _same("verify --random failures", (got["roundtripFailures"], got["statMismatches"]), (0, 0))

    def _check_poly(self, got):
        family, n = self.obj
        _same("poly matches", got["matches"], True)
        poly = getattr(self.lib.genpoly, family.replace("-", "_") + "_poly")(n)
        _same("poly terms", got["terms"], poly.as_terms())


class CliSession:
    name = "cli_session"

    def __init__(self, lib, seed):
        rng = random.Random(seed)
        Forest = lib.forest.Forest
        ops = []
        lo, hi = CLI_SIZES
        for r in range(CLI_ROUNDS):
            for kind in CLI_KINDS:
                # one size per stratum of lo..hi, so every seed draws alike sizes
                n, obj = lo + int((hi - lo + 1) * (r + rng.random()) / CLI_ROUNDS), None
                if kind in ("map", "map_trace", "stats_forest"):
                    parent = inputs.random_forest(n, rng)
                    obj, text = Forest(parent), _text(parent, rng, "parent")
                elif kind in ("unmap", "unmap_trace", "stats_parking"):
                    obj = inputs.random_parking_function(n, rng)
                    text = _text(obj, rng, "parking")
                elif kind == "pa":
                    # parking functions and words that overflow, in turn
                    if r % 2 == 0:
                        obj = inputs.random_parking_function(n, rng)
                    else:
                        obj = tuple(rng.randint(1, n) for _ in range(n))
                    text = _text(obj, rng, "parking")
                command = kind.split("_")[0]
                if kind == "verify_random":
                    seed_arg = str(rng.randrange(10**6))
                    argv = ["verify", "--n", "5", "--random", "20", "--seed", seed_arg, "--json"]
                elif kind == "poly":
                    obj = (POLY_FAMILIES[r % len(POLY_FAMILIES)], 4)
                    argv = ["poly", "--n", "4", "--family", obj[0], "--compare-product", "--json"]
                else:
                    argv = [command, text, "--json"]
                    if kind.endswith("trace"):
                        argv.append("--trace")
                ops.append(CliCall(lib, kind, argv, obj))
            for label, make in MALFORMED:
                ops.append(
                    CliCall(
                        lib,
                        "malformed:" + label,
                        make(rng),
                        expect_exit2=True,
                        known_crash=label.startswith("crash:"),
                    )
                )
        rng.shuffle(ops)
        self.ops = ops

    def objects(self, lib):
        forests, prefs = [], []
        for op in self.ops:
            if isinstance(op.obj, lib.forest.Forest):
                forests.append(op.obj.parent)
            elif op.kind in ("unmap", "unmap_trace", "stats_parking") or (
                op.kind == "pa" and inputs.jumps(op.obj) is not None
            ):
                prefs.append(op.obj)
        return forests, prefs


WORKLOADS = {w.name: w for w in (UniformRoundtrip, DeepShapes, OracleSweep, CliSession)}
