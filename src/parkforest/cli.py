"""Command line front end.

Usage:
  parkforest map "0,2,2,0"          forest -> parking function
  parkforest unmap "2,4,2,1,3"      parking function -> forest
  parkforest pa "4,3,3,1,5"         run the parking algorithm as-is
  parkforest stats "2,4,2,1,3"      statistics of either kind of object
  parkforest verify --n 5           exhaustive check at one size
  parkforest poly --n 4 --family lucky --compare-product

Inputs are comma or space separated integers, a JSON array, or a JSON
object {"n": ..., "parent": [...]} / {"n": ..., "parking": [...]}; pass
the text inline, via --file, or as "-" for stdin.  A plain sequence
containing 0 is read as a parent sequence (every forest has a root),
otherwise as preferences.

Exit status: 0 on success, 1 when a verification or comparison fails,
2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence

from .bijection import (
    forest_to_parking,
    map_trace,
    parking_to_forest,
    unmap_trace,
)
from .errors import InputError, MalformedInputError
from .exhaustive import verify_bijection, verify_random
from .forest import Forest
from .forest_stats import forest_stats
from .genpoly import (
    GenPoly,
    critic_lucky_poly,
    critic_lucky_product_formula,
    inversion_type_poly,
    jump_type_poly,
    lead_tree_poly,
    lucky_poly,
    lucky_product_formula,
)
from .parking import park, parking_stats


def _stable_json(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def _read_text(args: argparse.Namespace) -> str:
    if args.file is not None:
        if args.input is not None:
            raise MalformedInputError("give the input inline or via --file, not both")
        if args.file == "-":
            return sys.stdin.read()
        try:
            with open(args.file, "r", encoding="utf-8") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            # Exit 1 means a failed verification; an unreadable file is bad input.
            reason = getattr(exc, "strerror", None) or exc
            raise MalformedInputError(f"cannot read {args.file}: {reason}") from exc
    if args.input is None:
        raise MalformedInputError("no input given; pass it inline, via --file, or as -")
    if args.input == "-":
        return sys.stdin.read()
    return args.input


def _int(x) -> int:
    """One input integer, in every input form: a JSON integer or a decimal
    string.  A float, a boolean or a null is malformed."""
    if isinstance(x, str):
        try:
            return int(x)
        except ValueError:
            pass
    elif isinstance(x, int) and not isinstance(x, bool):
        return x
    raise MalformedInputError(f"expected integers, got {x!r}")


def _ints(values) -> list[int]:
    if not isinstance(values, list):
        raise MalformedInputError(f"expected a sequence of integers, got {values!r}")
    return [_int(x) for x in values]


def parse_input(text: str) -> tuple[str, list[int]]:
    """Classify input text as ('forest', parents) or ('parking', prefs)."""
    text = text.strip()
    if text.startswith(("{", "[")):
        try:
            obj = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError(f"bad JSON: {exc}") from exc
    else:
        obj = text.replace(",", " ").split()
    if isinstance(obj, list):
        values = _ints(obj)
        return ("forest" if 0 in values else "parking"), values
    if "parent" in obj:
        kind, values = "forest", _ints(obj["parent"])
    elif "parking" in obj:
        kind, values = "parking", _ints(obj["parking"])
    else:
        raise MalformedInputError('JSON object needs a "parent" or "parking" key')
    if "n" in obj and _int(obj["n"]) != len(values):
        raise MalformedInputError(
            f'"n" is {obj["n"]} but the sequence has length {len(values)}'
        )
    return kind, values


def _parse(text: str, want: str, message: str) -> list[int]:
    """parse_input, rejecting the other kind of input with message."""
    kind, values = parse_input(text)
    if kind != want:
        raise MalformedInputError(message)
    return values


def _parse_forest(text: str) -> Forest:
    # A forest without roots cannot exist, so a 0-free plain sequence
    # only reaches here when the user really meant a parent sequence;
    # but the empty plain sequence is the empty forest, which has none.
    kind, values = parse_input(text)
    if kind != "forest" and (values or text.lstrip().startswith("{")):
        raise MalformedInputError(
            'expected a parent sequence (with 0 for roots) or a {"parent": [...]} object'
        )
    return Forest(tuple(values))


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_map(args) -> int:
    f = _parse_forest(_read_text(args))
    if args.trace:
        trace = map_trace(f)
        if args.json:
            print(_stable_json(trace))
            return 0
        print(f"n            {trace['n']}")
        print(f"parent       {' '.join(map(str, trace['parent']))}")
        print(f"roots        {' '.join(map(str, trace['canonicalRoots']))}")
        print(f"postorder    {' '.join(map(str, trace['postorder']))}")
        print("car  vertex  position  inversions  preference")
        for row in trace["rows"]:
            print(
                f"{row['car']:>3}  {row['vertex']:>6}  {row['position']:>8}"
                f"  {row['inversions']:>10}  {row['preference']:>10}"
            )
        print(f"parking      {' '.join(map(str, trace['parking']))}")
        return 0
    p, lmap = forest_to_parking(f)
    if args.json:
        print(
            _stable_json(
                {"n": f.n, "parking": list(p), "labelMap": lmap.as_report()}
            )
        )
        return 0
    print(" ".join(map(str, p)) if p else "(empty)")
    return 0


def _cmd_unmap(args) -> int:
    message = 'expected a preference sequence or a {"parking": [...]} object'
    p = tuple(_parse(_read_text(args), "parking", message))
    if args.trace:
        trace = unmap_trace(p)
        if args.json:
            print(_stable_json(trace))
            return 0
        n = trace["n"]
        w = len(str(n + 1))
        print(f"n            {n}")
        print(f"parking      {' '.join(map(str, trace['parking']))}")
        print(f"slots        {' '.join(map(str, trace['slots']))}")
        # The space-by-space table: which car took each space, how far it rolled.
        print(f"space        {' '.join(f'{s:>{w}}' for s in range(1, n + 2))}")
        print(f"car          {' '.join(f'{x:>{w}}' for x in trace['word'])}")
        print(f"jump         {' '.join(f'{x:>{w}}' for x in trace['jumpRow'])}")
        print("car  preference  slot  jump  parentCar  vertex")
        for row in trace["rows"]:
            print(
                f"{row['car']:>3}  {row['preference']:>10}  {row['slot']:>4}"
                f"  {row['jump']:>4}  {row['parentCar']:>9}  {row['vertex']:>6}"
            )
        print(f"parent       {' '.join(map(str, trace['parent']))}")
        return 0
    f, lmap = parking_to_forest(p)
    if args.json:
        print(
            _stable_json(
                {"n": f.n, "parent": list(f.parent), "labelMap": lmap.as_report()}
            )
        )
        return 0
    print(" ".join(map(str, f.parent)) if f.parent else "(empty)")
    return 0


def _cmd_pa(args) -> int:
    message = "the parking algorithm wants preferences, not a forest"
    prefs = tuple(_parse(_read_text(args), "parking", message))
    outcome = park(prefs)
    n = len(prefs)
    is_pf = outcome.max_space <= n
    if args.json:
        print(
            _stable_json(
                {
                    "n": n,
                    "slots": list(outcome.slots),
                    "maxSpace": outcome.max_space,
                    "parkingFunction": is_pf,
                }
            )
        )
        return 0
    for c, (p, s) in enumerate(zip(prefs, outcome.slots), start=1):
        jumped = "" if s == p else f"  (rolled {s - p})"
        print(f"car {c} prefers {p} -> parks {s}{jumped}")
    if is_pf:
        print(f"all cars within 1..{n}: a parking function")
    else:
        print(f"max space {outcome.max_space} > n = {n}: not a parking function")
    return 0


def _cmd_stats(args) -> int:
    kind, values = parse_input(_read_text(args))
    if kind == "forest":
        report = forest_stats(Forest(tuple(values))).as_report()
    else:
        report = parking_stats(tuple(values)).as_report()
    if args.json:
        print(_stable_json(report))
        return 0
    width = max(len(k) for k in report)
    for k, v in report.items():
        if isinstance(v, list):
            v = " ".join(map(str, v)) if v else "(none)"
        print(f"{k:<{width}}  {v}")
    return 0


def _cmd_verify(args) -> int:
    if args.random is not None and args.jobs is not None:
        raise MalformedInputError("--jobs applies only to the sweep, not to --random")
    if args.random is None and args.seed is not None:
        raise MalformedInputError("--seed applies only to --random")
    if args.random is not None:
        report = verify_random(args.n, args.random, args.seed)
    else:
        report = verify_bijection(args.n, jobs=args.jobs)
    if args.json:
        print(_stable_json(report.as_report()))
    else:
        replay = "" if report.seed is None else f", replay with --seed {report.seed}"
        print(
            f"n={report.n}: {report.forest_count} forests, "
            f"{report.parking_function_count} parking functions, "
            f"{report.roundtrip_failures} roundtrip failures, "
            f"{report.stat_mismatches} stat mismatches "
            f"({report.elapsed_millis} ms){replay}"
        )
    return 0 if report.ok else 1


_FAMILIES = {
    "inversion-type": inversion_type_poly,
    "jump-type": jump_type_poly,
    "lucky": lucky_poly,
    "critic-lucky": critic_lucky_poly,
    "lead-tree": lead_tree_poly,
}


def _poly_partner(family: str, n: int) -> tuple[str, GenPoly]:
    if family == "lucky":
        return "closed product", lucky_product_formula(n)
    if family in ("critic-lucky", "lead-tree"):
        return "closed product", critic_lucky_product_formula(n)
    if family == "inversion-type":
        return "jump-type", jump_type_poly(n)
    return "inversion-type", inversion_type_poly(n)


def _cmd_poly(args) -> int:
    poly = _FAMILIES[args.family](args.n)
    out = {"n": args.n, "family": args.family, "terms": poly.as_terms()}
    status = 0
    if args.compare_product:
        name, partner = _poly_partner(args.family, args.n)
        matches = poly == partner
        out["comparedTo"] = name
        out["matches"] = matches
        if not matches:
            status = 1
    if args.json:
        print(_stable_json(out))
        return status
    print(poly.render())
    if args.compare_product:
        verdict = "matches" if out["matches"] else "DOES NOT MATCH"
        print(f"{verdict} {out['comparedTo']}")
    return status


# ---------------------------------------------------------------------------
# Argument plumbing


def _add_input_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input", nargs="?", help="the sequence, or - for stdin")
    sub.add_argument("--file", help="read the input from this file (- for stdin)")
    sub.add_argument("--json", action="store_true", help="emit JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkforest",
        description="forests <-> parking functions: maps, statistics, verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("map", help="forest to parking function")
    _add_input_args(sub)
    sub.add_argument("--trace", action="store_true", help="show every step")
    sub.set_defaults(fn=_cmd_map)

    sub = subs.add_parser("unmap", help="parking function to forest")
    _add_input_args(sub)
    sub.add_argument("--trace", action="store_true", help="show every step")
    sub.set_defaults(fn=_cmd_unmap)

    sub = subs.add_parser("pa", help="run the parking algorithm")
    _add_input_args(sub)
    sub.set_defaults(fn=_cmd_pa)

    sub = subs.add_parser("stats", help="statistics of a forest or parking function")
    _add_input_args(sub)
    sub.set_defaults(fn=_cmd_stats)

    sub = subs.add_parser("verify", help="check the bijection at one size")
    sub.add_argument("--n", type=int, required=True, help="number of vertices/cars")
    how = sub.add_mutually_exclusive_group()
    how.add_argument(
        "--exhaustive", action="store_true", help="sweep everything (the default)"
    )
    how.add_argument(
        "--random", type=int, metavar="COUNT", help="spot-check COUNT random forests"
    )
    sub.add_argument("--seed", type=int, help="seed for --random")
    sub.add_argument("--jobs", type=int, help="worker processes for the sweep")
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("poly", help="statistic generating polynomials")
    sub.add_argument("--n", type=int, required=True, help="number of vertices/cars")
    sub.add_argument(
        "--family",
        choices=sorted(_FAMILIES),
        required=True,
        help="which generating polynomial",
    )
    sub.add_argument(
        "--compare-product",
        action="store_true",
        help="check against the closed form (or the twin type polynomial)",
    )
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.set_defaults(fn=_cmd_poly)

    return parser


# Built on main()'s first call and reused: building costs far more than a
# parse, and parse_args keeps no state between calls.  Not built at import,
# which would charge every importer of the library.
_parser = functools.cache(build_parser)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
