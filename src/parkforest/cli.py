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

Each subcommand builds one report and the lines of text that show it;
--json prints the report as JSON with sorted keys, and otherwise the text
is printed.  main is the one place that prints.

main parses each call once, with the parser of the subcommand that
argv[0] names.  The top-level parser reads only a call that names no
subcommand or that holds arguments the subcommand does not recognise,
so every usage message and exit stays the top-level parser's own.

Exit status: 0 on success, 1 when a verification or comparison fails,
2 on malformed input or usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterator, Sequence

from .bijection import forest_to_parking, map_trace, parking_to_forest, unmap_trace
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
    """The list's integers, by _int's rule.  A list of only ints (not
    bools) or only strings converts in one C-level pass; any other list,
    or a string int() rejects, goes through _int, which names the first
    bad token."""
    if not isinstance(values, list):
        raise MalformedInputError(f"expected a sequence of integers, got {values!r}")
    types = set(map(type, values))
    if types <= {int}:
        return values
    if types == {str}:
        try:
            return list(map(int, values))
        except ValueError:
            pass
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
    """parse_input, rejecting the other kind of input with message.  An
    empty sequence, plain or [], is the empty forest as well as the empty
    parking function, so it passes as either; a JSON object never does."""
    kind, values = parse_input(text)
    if kind != want and (values or text.lstrip().startswith("{")):
        raise MalformedInputError(message)
    return values


# ---------------------------------------------------------------------------
# Subcommands: each returns (report, text, exit status).  text is a generator,
# so a --json run formats no line.


def _sequence_text(values) -> Iterator[str]:
    yield " ".join(map(str, values)) if values else "(empty)"


def _line(label: str, values, width: int = 1) -> str:
    """A trace line: the label in 13 columns, then the values right-aligned."""
    return f"{label:<13}" + " ".join(str(x).rjust(width) for x in values)


def _table(header: str, rows) -> Iterator[str]:
    """The header, then each row's values by column name, right-aligned to the name."""
    yield header
    columns = header.split()
    for row in rows:
        yield "  ".join(str(row[c]).rjust(len(c)) for c in columns)


def _map_trace_text(trace) -> Iterator[str]:
    yield _line("n", [trace["n"]])
    yield _line("parent", trace["parent"])
    yield _line("roots", trace["canonicalRoots"])
    yield _line("postorder", trace["postorder"])
    yield from _table("car  vertex  position  inversions  preference", trace["rows"])
    yield _line("parking", trace["parking"])


def _unmap_trace_text(trace) -> Iterator[str]:
    n = trace["n"]
    w = len(str(n + 1))
    yield _line("n", [n])
    yield _line("parking", trace["parking"])
    yield _line("slots", trace["slots"])
    # The space-by-space table: which car took each space, how far it rolled.
    yield _line("space", range(1, n + 2), w)
    yield _line("car", trace["word"], w)
    yield _line("jump", trace["jumpRow"], w)
    yield from _table("car  preference  slot  jump  parentCar  vertex", trace["rows"])
    yield _line("parent", trace["parent"])


def _cmd_map(args) -> tuple[dict, Iterator[str], int]:
    message = (
        'expected a parent sequence (with 0 for roots) or a {"parent": [...]} object'
    )
    f = Forest(tuple(_parse(_read_text(args), "forest", message)))
    if args.trace:
        trace = map_trace(f)
        return trace, _map_trace_text(trace), 0
    p, lmap = forest_to_parking(f)
    report = {"n": f.n, "parking": list(p), "labelMap": lmap.as_report()}
    return report, _sequence_text(p), 0


def _cmd_unmap(args) -> tuple[dict, Iterator[str], int]:
    message = 'expected a preference sequence or a {"parking": [...]} object'
    p = tuple(_parse(_read_text(args), "parking", message))
    if args.trace:
        trace = unmap_trace(p)
        return trace, _unmap_trace_text(trace), 0
    f, lmap = parking_to_forest(p)
    report = {"n": f.n, "parent": list(f.parent), "labelMap": lmap.as_report()}
    return report, _sequence_text(f.parent), 0


def _pa_text(prefs, report) -> Iterator[str]:
    for c, (p, s) in enumerate(zip(prefs, report["slots"]), start=1):
        jumped = "" if s == p else f"  (rolled {s - p})"
        yield f"car {c} prefers {p} -> parks {s}{jumped}"
    n = report["n"]
    if report["parkingFunction"]:
        yield f"all cars within 1..{n}: a parking function"
    else:
        yield f"max space {report['maxSpace']} > n = {n}: not a parking function"


def _cmd_pa(args) -> tuple[dict, Iterator[str], int]:
    message = "the parking algorithm wants preferences, not a forest"
    prefs = tuple(_parse(_read_text(args), "parking", message))
    outcome = park(prefs)
    n = len(prefs)
    report = {"n": n, "slots": list(outcome.slots), "maxSpace": outcome.max_space}
    report["parkingFunction"] = outcome.max_space <= n
    return report, _pa_text(prefs, report), 0


def _stats_text(report) -> Iterator[str]:
    width = max(map(len, report))
    for k, v in report.items():
        if isinstance(v, list):
            v = " ".join(map(str, v)) if v else "(none)"
        yield f"{k:<{width}}  {v}"


def _cmd_stats(args) -> tuple[dict, Iterator[str], int]:
    kind, values = parse_input(_read_text(args))
    if kind == "forest":
        report = forest_stats(Forest(tuple(values))).as_report()
    else:
        report = parking_stats(tuple(values)).as_report()
    return report, _stats_text(report), 0


def _verify_text(report) -> Iterator[str]:
    yield (
        f"n={report.n}: {report.forest_count} forests, "
        f"{report.parking_function_count} parking functions, "
        f"{report.roundtrip_failures} roundtrip failures, "
        f"{report.stat_mismatches} stat mismatches ({report.elapsed_millis} ms)"
        + ("" if report.seed is None else f", replay with --seed {report.seed}")
    )


def _cmd_verify(args) -> tuple[dict, Iterator[str], int]:
    if args.random is not None and args.jobs is not None:
        raise MalformedInputError("--jobs applies only to the sweep, not to --random")
    if args.random is None and args.seed is not None:
        raise MalformedInputError("--seed applies only to --random")
    if args.random is not None:
        report = verify_random(args.n, args.random, args.seed)
    else:
        report = verify_bijection(args.n, jobs=args.jobs)
    return report.as_report(), _verify_text(report), 0 if report.ok else 1


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


def _poly_text(poly, report) -> Iterator[str]:
    yield poly.render()
    if "matches" in report:
        verdict = "matches" if report["matches"] else "DOES NOT MATCH"
        yield f"{verdict} {report['comparedTo']}"


def _cmd_poly(args) -> tuple[dict, Iterator[str], int]:
    poly = _FAMILIES[args.family](args.n)
    report = {"n": args.n, "family": args.family, "terms": poly.as_terms()}
    if args.compare_product:
        name, partner = _poly_partner(args.family, args.n)
        report["comparedTo"] = name
        report["matches"] = poly == partner
    return report, _poly_text(poly, report), 0 if report.get("matches", True) else 1


# ---------------------------------------------------------------------------
# Argument plumbing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkforest",
        description="forests <-> parking functions: maps, statistics, verification",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    # The subcommands that read one object: name, help, function, --trace.
    for name, help_text, fn, traces in (
        ("map", "forest to parking function", _cmd_map, True),
        ("unmap", "parking function to forest", _cmd_unmap, True),
        ("pa", "run the parking algorithm", _cmd_pa, False),
        ("stats", "statistics of a forest or parking function", _cmd_stats, False),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("input", nargs="?", help="the sequence, or - for stdin")
        sub.add_argument("--file", help="read the input from this file (- for stdin)")
        sub.add_argument("--json", action="store_true", help="emit JSON")
        if traces:
            sub.add_argument("--trace", action="store_true", help="show every step")
        sub.set_defaults(fn=fn)

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

    parser.subcommands = subs.choices  # name -> that subcommand's parser
    return parser


# Built on main()'s first call and reused: building costs far more than a
# parse, and parse_args keeps no state between calls.  Not built at import,
# which would charge every importer of the library.
_parser = functools.cache(build_parser)


def _parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """argv parsed by the parser of the subcommand argv[0] names.

    The top-level parser would only hand argv[1:] to that parser, but it
    reports unrecognised arguments under its own usage; such a call, and
    one naming no subcommand, goes through the top-level parser.
    """
    parser = _parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        report, text, status = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report, sort_keys=True) if args.json else "\n".join(text))
    return status


if __name__ == "__main__":
    sys.exit(main())
