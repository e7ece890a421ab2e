"""Self-test of the benchmark itself.

    python3 bench/selftest.py

First every workload runs briefly on the real library and must pass.
Then forest_to_parking is replaced, in every namespace that holds it, by
a version that swaps two differing preferences of its result; every
workload must then report failed ops and a non-zero exit status.  Last,
the CLI's parse_input is made to raise RuntimeError where it raises
InputError: cli_session must then fail, since only the malformed classes
that crash today may crash without failing the run.  Exits 0 when all
of this holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads
from tracer import replace_everywhere

SECONDS = "1"


def swapping(forward):
    """forest_to_parking with the first two differing preferences swapped."""

    def broken(f):
        prefs, lmap = forward(f)
        prefs = list(prefs)
        for i in range(1, len(prefs)):
            if prefs[i] != prefs[0]:
                prefs[0], prefs[i] = prefs[i], prefs[0]
                break
        return tuple(prefs), lmap

    return broken


def raising(parse, input_error):
    """parse_input with its InputError turned into an uncaught RuntimeError."""

    def broken(text):
        try:
            return parse(text)
        except input_error as exc:
            raise RuntimeError(str(exc)) from exc

    return broken


load_real_library = run.load_library


def load_swapping_library():
    lib = load_real_library()
    real = lib.bijection.forest_to_parking
    replace_everywhere(real, swapping(real))
    return lib


def load_raising_library():
    lib = load_real_library()
    real = lib.cli.parse_input
    replace_everywhere(real, raising(real, lib.cli.InputError))
    return lib


def bench(workload: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "1", "--seconds", SECONDS])
    return code, json.loads(out.getvalue().splitlines()[-1])


def main() -> int:
    problems = []
    for name in workloads.WORKLOADS:
        code, result = bench(name)
        if code != 0 or not result["correct"]:
            problems.append(f"{name}: real library gave exit {code}, correct={result['correct']}")
    try:
        run.load_library = load_swapping_library
        for name in workloads.WORKLOADS:
            code, result = bench(name)
            rate = result["failed"] / result["attempted"]
            print(f"{name}: broken map gives exit {code}, error rate {rate:.3f}")
            if code == 0 or rate == 0:
                problems.append(f"{name}: the broken map went unnoticed")
        run.load_library = load_raising_library
        code, result = bench("cli_session")
        print(f"cli_session: crashing parser gives exit {code}, correct={result['correct']}")
        if code == 0 or result["correct"]:
            problems.append("cli_session: a new crash on malformed input went unnoticed")
    finally:
        run.load_library = load_real_library
    for line in problems:
        print("FAIL", line)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
