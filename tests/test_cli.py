"""Command line behavior: outputs, exit codes, input plumbing."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import parkforest.exhaustive
from parkforest import InputError, cli
from parkforest.cli import build_parser, main, parse_input

ROOT = Path(__file__).resolve().parent.parent

# What map --trace --json 2,0,4,2,0 prints; valid output must not change.
MAP_TRACE_20420 = (
    '{"canonicalChildren": {"1": [], "2": [4, 1], "3": [], "4": [3], "5": []}, '
    '"canonicalRoots": [5, 2], "labelMap": {"carToVertex": [1, 3, 4, 2, 5], '
    '"vertexToCar": [1, 4, 2, 3, 5]}, "n": 5, "parent": [2, 0, 4, 2, 0], '
    '"parking": [4, 2, 2, 4, 1], "postorder": [5, 3, 4, 1, 2, 6], '
    '"rows": [{"car": 1, "inversions": 0, "position": 4, "preference": 4, '
    '"vertex": 1}, {"car": 2, "inversions": 0, "position": 2, "preference": 2, '
    '"vertex": 3}, {"car": 3, "inversions": 1, "position": 3, "preference": 2, '
    '"vertex": 4}, {"car": 4, "inversions": 1, "position": 5, "preference": 4, '
    '"vertex": 2}, {"car": 5, "inversions": 0, "position": 1, "preference": 1, '
    '"vertex": 5}, {"car": 6, "inversions": 5, "position": 6, "preference": 1, '
    '"vertex": 6}], "superRoot": 6}\n'
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_input_plain_sequences():
    assert parse_input("2,4,2,1,3") == ("parking", [2, 4, 2, 1, 3])
    assert parse_input("0 2 2") == ("forest", [0, 2, 2])
    assert parse_input("[1, 1]") == ("parking", [1, 1])
    assert parse_input('{"n": 2, "parent": [0, 1]}') == ("forest", [0, 1])
    assert parse_input('{"parking": [1, 2]}') == ("parking", [1, 2])
    assert parse_input('["1", "0"]') == ("forest", [1, 0])


def test_parse_input_rejects_garbage():
    from parkforest import MalformedInputError

    for text in ("a,b", '{"n": 3, "parent": [0]}', '{"x": []}', "{broken"):
        with pytest.raises(MalformedInputError):
            parse_input(text)


def test_map_plain_and_json(capsys):
    code, out, _ = run(capsys, "map", "0,1,1")
    assert code == 0 and out.strip() == "2 1 3"
    code, out, _ = run(capsys, "map", "--json", "0,1,1")
    payload = json.loads(out)
    assert code == 0
    assert payload["parking"] == [2, 1, 3]
    assert payload["labelMap"]["vertexToCar"] == [3, 1, 2]


def test_map_unmap_are_inverse(capsys):
    code, out, _ = run(capsys, "unmap", "2 1 3")
    assert code == 0 and out.strip() == "0 1 1"


def test_unmap_rejects_non_parking_function(capsys):
    code, out, err = run(capsys, "unmap", "2,2")
    assert code == 2 and "error" in err


def test_map_rejects_bad_forest(capsys):
    code, _, err = run(capsys, "map", "0,3,2")
    assert code == 2 and "cycle" in err


def test_map_requires_forest_shape(capsys):
    code, _, err = run(capsys, "map", "1,2")
    assert code == 2 and "parent" in err


@pytest.mark.parametrize("text", ["[]", "", " "])
def test_map_reads_the_empty_plain_sequence_as_the_empty_forest(capsys, text):
    # A nonempty forest has a root, so a 0-free plain sequence is
    # preferences; but the empty sequence is also the empty forest.
    for flags in ([], ["--json"], ["--trace"], ["--trace", "--json"]):
        want = run(capsys, "map", *flags, '{"parent": []}')
        assert want[0] == 0
        assert run(capsys, "map", *flags, text) == want
    assert run(capsys, "map", text) == (0, "(empty)\n", "")
    # An explicit parking object stays the wrong kind for map, and stats
    # still reads the empty plain sequence as preferences.
    code, _, err = run(capsys, "map", '{"parking": []}')
    assert code == 2 and "parent" in err
    code, out, _ = run(capsys, "stats", "--json", text)
    assert code == 0 and json.loads(out)["q"] == []


def test_pa_golden(capsys):
    code, out, _ = run(capsys, "pa", "--json", "4,3,3,1,5")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "maxSpace": 6,
        "n": 5,
        "parkingFunction": False,
        "slots": [4, 3, 5, 1, 6],
    }
    code, out, _ = run(capsys, "pa", "4,3,3,1,5")
    assert "not a parking function" in out


def test_stats_auto_detect(capsys):
    code, out, _ = run(capsys, "stats", "--json", "2,4,2,1,3")
    payload = json.loads(out)
    assert code == 0 and payload["jumpTotal"] == 3 and payload["luckyCars"] == [1, 2, 4]
    code, out, _ = run(capsys, "stats", "--json", "0,1,1")
    payload = json.loads(out)
    assert code == 0 and payload["tree"] == 1 and payload["n"] == 3


def test_stats_human_readable(capsys):
    code, out, _ = run(capsys, "stats", "2,4,2,1,3")
    assert code == 0 and "jumpTotal" in out and "3" in out


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("0,1,1"))
    code, out, _ = run(capsys, "map", "-")
    assert code == 0 and out.strip() == "2 1 3"


def test_file_input(capsys, tmp_path):
    path = tmp_path / "forest.txt"
    path.write_text("0,1,1")
    code, out, _ = run(capsys, "map", "--file", str(path))
    assert code == 0 and out.strip() == "2 1 3"


def test_inline_and_file_conflict(capsys, tmp_path):
    path = tmp_path / "x.txt"
    path.write_text("0")
    code, _, err = run(capsys, "map", "0,1,1", "--file", str(path))
    assert code == 2 and "not both" in err


@pytest.mark.parametrize("case", ["missing", "directory", "not-utf8"])
def test_unreadable_file_is_a_usage_error(capsys, tmp_path, case):
    path = tmp_path / "input.txt"
    if case == "directory":
        path = tmp_path
    elif case == "not-utf8":
        path.write_bytes(b"0,\xff")
    code, out, err = run(capsys, "map", "--file", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot read {path}: ")


def test_missing_input(capsys):
    code, _, err = run(capsys, "map")
    assert code == 2 and "no input" in err


def test_verify_json_and_exit_code(capsys):
    code, out, _ = run(capsys, "verify", "--n", "3", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["forestCount"] == payload["parkingFunctionCount"] == 16
    assert payload["roundtripFailures"] == payload["statMismatches"] == 0


def test_verify_random_human(capsys):
    code, out, _ = run(capsys, "verify", "--n", "20", "--random", "25", "--seed", "3")
    assert code == 0 and "25 forests" in out and "0 roundtrip failures" in out


def test_verify_random_prints_its_seed(capsys):
    code, out, _ = run(capsys, "verify", "--n", "6", "--random", "10", "--json")
    payload = json.loads(out)
    assert code == 0 and isinstance(payload["seed"], int)
    seed = str(payload["seed"])
    code, out, _ = run(capsys, "verify", "--n", "6", "--random", "10", "--seed", seed)
    assert code == 0 and out.rstrip().endswith(f"replay with --seed {seed}")
    code, out, _ = run(capsys, "verify", "--n", "3")
    assert code == 0 and "--seed" not in out


def test_verify_exits_1_on_a_broken_map(capsys, monkeypatch):
    # Swapping the first two preferences keeps a parking function but
    # breaks the round trip whenever they differ.
    real = parkforest.exhaustive.forest_to_parking

    def swapped(f):
        p, lmap = real(f)
        if len(p) > 1:
            p = (p[1], p[0]) + p[2:]
        return p, lmap

    monkeypatch.setattr(parkforest.exhaustive, "forest_to_parking", swapped)
    code, out, _ = run(capsys, "verify", "--n", "4", "--json")
    assert code == 1 and json.loads(out)["roundtripFailures"] > 0
    code, out, _ = run(capsys, "verify", "--n", "30", "--random", "5", "--seed", "1")
    failures = re.search(r"(\d+) roundtrip failures", out)
    assert code == 1 and int(failures.group(1)) > 0


def test_negative_random_count_is_a_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--n", "3", "--random", "-1")
    assert code == 2 and out == ""
    assert err == "error: counts start at 0, got count = -1\n"


def test_exhaustive_and_random_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--n", "3", "--exhaustive", "--random", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "not allowed with argument --exhaustive" in out.err


def test_poly_families_and_compare(capsys):
    code, out, _ = run(capsys, "poly", "--n", "3", "--family", "lucky")
    assert code == 0 and out.strip() == "2*u + 8*u^2 + 6*u^3"
    for family in ("lucky", "critic-lucky", "inversion-type", "jump-type"):
        code, out, _ = run(
            capsys, "poly", "--n", "3", "--family", family, "--compare-product"
        )
        assert code == 0 and "matches" in out
    code, out, _ = run(
        capsys, "poly", "--n", "4", "--family", "jump-type", "--compare-product", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and payload["matches"] is True
    assert payload["comparedTo"] == "inversion-type"


def test_json_output_is_byte_stable(capsys):
    outs = set()
    for _ in range(3):
        _, out, _ = run(capsys, "unmap", "--trace", "--json", "2,4,2,1,3")
        outs.add(out)
    assert len(outs) == 1
    _, a, _ = run(capsys, "stats", "--json", "0,1,1")
    _, b, _ = run(capsys, "stats", "--json", "0,1,1")
    assert a == b
    _, out, _ = run(capsys, "map", "--trace", "--json", "2,0,4,2,0")
    assert out == MAP_TRACE_20420


def test_trace_outputs_n14_table(capsys):
    p14 = "10,2,6,5,7,1,13,10,4,1,14,9,11,5"
    code, out, _ = run(capsys, "unmap", "--trace", "--json", p14)
    payload = json.loads(out)
    assert code == 0
    assert payload["word"] == [6, 2, 10, 9, 4, 3, 5, 14, 12, 1, 8, 13, 7, 11, 15]
    assert payload["jumpRow"] == [0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 1, 1, 0, 0, 14]
    code, out, _ = run(capsys, "unmap", "--trace", p14)
    rows = {}
    for line in out.splitlines():
        toks = line.split()
        if toks and toks[0] in ("space", "car", "jump") and len(toks) == 16:
            rows[toks[0]] = [int(x) for x in toks[1:]]
    assert rows["space"] == list(range(1, 16))
    assert rows["car"] == [6, 2, 10, 9, 4, 3, 5, 14, 12, 1, 8, 13, 7, 11, 15]
    assert rows["jump"] == [0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 1, 1, 0, 0, 14]


def test_map_trace_human(capsys):
    code, out, _ = run(capsys, "map", "--trace", "0,1,1")
    assert code == 0
    assert "postorder" in out and "car" in out and "parking" in out


def test_poly_lead_tree_family(capsys):
    code, out, _ = run(
        capsys, "poly", "--n", "3", "--family", "lead-tree", "--compare-product"
    )
    assert code == 0 and "matches" in out
    code, a, _ = run(capsys, "poly", "--n", "3", "--family", "lead-tree", "--json")
    code, b, _ = run(capsys, "poly", "--n", "3", "--family", "critic-lucky", "--json")
    assert json.loads(a)["terms"] == json.loads(b)["terms"]


def test_poly_json_term_shape(capsys):
    code, out, _ = run(capsys, "poly", "--n", "2", "--family", "jump-type", "--json")
    assert code == 0
    terms = json.loads(out)["terms"]
    assert terms and all(set(t) == {"exponents", "coeff"} for t in terms)
    assert sum(t["coeff"] for t in terms) == 3  # three parking functions at n=2


def test_verify_random_at_large_n(capsys):
    code, out, _ = run(
        capsys, "verify", "--n", "500", "--random", "25", "--seed", "42", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["forestCount"] == 25
    assert payload["roundtripFailures"] == 0
    assert payload["statMismatches"] == 0


def test_oversized_sweeps_exit_as_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--n", "8", "--exhaustive")
    assert code == 2 and "n = 7" in err
    code, _, err = run(capsys, "poly", "--n", "7", "--family", "inversion-type")
    assert code == 2 and "n = 6" in err


def test_pa_reports_overflow_past_n(capsys):
    code, out, _ = run(capsys, "pa", "6,1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["slots"] == [6, 1, 2]
    assert payload["parkingFunction"] is False
    code, out, _ = run(capsys, "pa", "6,1,1")
    assert code == 0 and "not a parking function" in out


@pytest.mark.parametrize(
    "argv, named",
    [
        (["map", '{"parent": ["x"]}'], "'x'"),
        (["map", '{"parent": 5}'], "5"),
        (["stats", '{"parent": [0], "n": "a"}'], "'a'"),
        (["unmap", '{"parking": [1, null]}'], "None"),
        (["map", "[1.5, 0]"], "1.5"),
        (["verify", "--n", "-2"], "-2"),
        (["verify", "--n", "-2", "--random", "3"], "-2"),
        (["poly", "--n", "0", "--family", "lucky", "--compare-product"], "n >= 1"),
        (["verify", "--n", "3", "--random", "2", "--jobs", "4"], "--jobs"),
        (["verify", "--n", "3", "--seed", "5"], "--seed"),
        (["verify", "--n", "3", "--jobs", "0"], "jobs = 0"),
        (["verify", "--n", "3", "--jobs", "-2"], "jobs = -2"),
        (["map", "0,1,x"], "'x'"),
        (["map", "[0, true]"], "True"),
        (["map", "[0, [1]]"], "[1]"),
        (["map", '["0", "y"]'], "'y'"),
        (["verify", "--n", "-1"], "sizes start at 0, got n = -1"),
        (["verify", "--n", "-1", "--jobs", "2"], "sizes start at 0, got n = -1"),
        pytest.param(
            ["map", "1" * (sys.get_int_max_str_digits() + 1)],
            "'" + "1" * (sys.get_int_max_str_digits() + 1) + "'",
            id="overlong_token",
        ),
    ],
)
def test_malformed_input_is_a_usage_error(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and named in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner)
    | st.dictionaries(st.sampled_from(["n", "parent", "parking"]) | st.text(), inner),
)


@given(json_values)
def test_parse_input_returns_or_raises_input_error(value):
    try:
        kind, values = parse_input(json.dumps(value))
    except InputError:
        return
    assert kind in ("forest", "parking")
    assert all(type(x) is int for x in values)


def outcome(capsys, argv):
    """main(argv) as a shell sees it: exit code, stdout, stderr."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def test_reused_parser_gives_identical_runs(capsys):
    probe = ["map", "0,1,1"]
    others = [
        ["map", "--bogus"],  # argparse usage error
        ["map", "0,3,2"],  # InputError
        ["map", "--help"],
        ["map", "--trace", "--json", "0,1,1"],
    ]
    before = outcome(capsys, probe)
    seen = [outcome(capsys, argv) for argv in others]
    assert [code for code, _, _ in seen] == [2, 2, 0, 0]
    assert outcome(capsys, probe) == before == (0, "2 1 3\n", "")
    assert [outcome(capsys, argv) for argv in others] == seen
    # build_parser() still hands out a fresh parser, with the same help.
    fresh = build_parser()
    assert fresh is not build_parser()
    with pytest.raises(SystemExit):
        fresh.parse_args(["map", "--help"])
    assert capsys.readouterr().out == seen[2][1]


@given(
    st.sampled_from(["map", "unmap", "stats", "pa"]),
    st.text() | json_values.map(json.dumps),
)
def test_main_exits_0_or_2_on_any_input(command, text):
    out, err = io.StringIO(), io.StringIO()
    with (
        mock.patch("sys.stdin", io.StringIO(text)),
        contextlib.redirect_stdout(out),
        contextlib.redirect_stderr(err),
    ):
        code = main([command, "-"])
    if code == 0:
        assert err.getvalue() == ""
    else:
        assert code == 2 and out.getvalue() == ""
        assert err.getvalue().startswith("error: ")


def test_import_builds_no_parser_and_no_process_pool():
    # Importing also loads none of dataclasses, inspect and typing.  The
    # modules loaded before the import are left out, since site may load
    # typing itself.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = (
        "import sys; before = set(sys.modules); import parkforest.cli as cli;"
        " added = set(sys.modules) - before;"
        " print('multiprocessing' in sys.modules, cli._parser.cache_info().currsize,"
        " sorted(added & {'dataclasses', 'inspect', 'typing'}))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "0", "[]"]


# Each subcommand's exact text on one small input; verify's milliseconds
# are masked.
GOLDEN_TEXT = {
    ("map", "0,1,1"): "2 1 3\n",
    ("map", "--trace", "0,1,1"): (
        "n            3\n"
        "parent       0 1 1\n"
        "roots        1\n"
        "postorder    3 2 1 4\n"
        "car  vertex  position  inversions  preference\n"
        "  1       2         2           0           2\n"
        "  2       3         1           0           1\n"
        "  3       1         3           0           3\n"
        "  4       4         4           3           1\n"
        "parking      2 1 3\n"
    ),
    ("unmap", "2,1,3"): "0 1 1\n",
    ("unmap", "--trace", "2,1,3"): (
        "n            3\n"
        "parking      2 1 3\n"
        "slots        2 1 3 4\n"
        "space        1 2 3 4\n"
        "car          2 1 3 4\n"
        "jump         0 0 0 3\n"
        "car  preference  slot  jump  parentCar  vertex\n"
        "  1           2     2     0          3       2\n"
        "  2           1     1     0          3       3\n"
        "  3           3     3     0          4       1\n"
        "  4           1     4     3          0       4\n"
        "parent       0 1 1\n"
    ),
    ("pa", "2,1,1"): (
        "car 1 prefers 2 -> parks 2\n"
        "car 2 prefers 1 -> parks 1\n"
        "car 3 prefers 1 -> parks 3  (rolled 2)\n"
        "all cars within 1..3: a parking function\n"
    ),
    ("pa", "4,3,3,1,5"): (
        "car 1 prefers 4 -> parks 4\n"
        "car 2 prefers 3 -> parks 3\n"
        "car 3 prefers 3 -> parks 5  (rolled 2)\n"
        "car 4 prefers 1 -> parks 1\n"
        "car 5 prefers 5 -> parks 6  (rolled 1)\n"
        "max space 6 > n = 5: not a parking function\n"
    ),
    ("stats", "0,1,1"): (
        "n         3\n"
        "invAt     0 0 0\n"
        "invTotal  0\n"
        "leaders   1 2 3\n"
        "lead      3\n"
        "tree      1\n"
        "tinv      3 0 0 0\n"
    ),
    ("stats", "2,1,1"): (
        "q             2 1 3\n"
        "jumpAt        0 0 2\n"
        "jumpTotal     2\n"
        "lucky         2\n"
        "luckyCars     1 2\n"
        "critic        1\n"
        "criticalCars  3\n"
        "tjump         2 0 1 0\n"
    ),
    ("stats", "[]"): (
        "q             (none)\n"
        "jumpAt        (none)\n"
        "jumpTotal     0\n"
        "lucky         0\n"
        "luckyCars     (none)\n"
        "critic        0\n"
        "criticalCars  (none)\n"
        "tjump         0\n"
    ),
    ("verify", "--n", "3"): (
        "n=3: 16 forests, 16 parking functions, 0 roundtrip failures,"
        " 0 stat mismatches (# ms)\n"
    ),
    ("verify", "--n", "3", "--random", "4", "--seed", "7"): (
        "n=3: 4 forests, 4 parking functions, 0 roundtrip failures,"
        " 0 stat mismatches (# ms), replay with --seed 7\n"
    ),
    ("poly", "--n", "3", "--family", "lucky", "--compare-product"): (
        "2*u + 8*u^2 + 6*u^3\nmatches closed product\n"
    ),
}


@pytest.mark.parametrize("argv", list(GOLDEN_TEXT), ids=" ".join)
def test_text_output_is_golden(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, re.sub(r"\(\d+ ms\)", "(# ms)", out), err) == (0, GOLDEN_TEXT[argv], "")


UNMAP_WANTS = 'expected a preference sequence or a {"parking": [...]} object'
PA_WANTS = "the parking algorithm wants preferences, not a forest"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["unmap", "0,1,2"], UNMAP_WANTS),
        (["unmap", '{"parent": []}'], UNMAP_WANTS),
        (["pa", "0,1,2"], PA_WANTS),
        (["pa", '{"parent": [0]}'], PA_WANTS),
    ],
)
def test_forest_input_to_a_parking_command_is_a_usage_error(capsys, argv, message):
    assert run(capsys, *argv) == (2, "", f"error: {message}\n")


def test_unmap_json_without_trace(capsys):
    code, out, err = run(capsys, "unmap", "--json", "2,1,3")
    assert (code, err) == (0, "")
    assert out == (
        '{"labelMap": {"carToVertex": [2, 3, 1], "vertexToCar": [3, 1, 2]},'
        ' "n": 3, "parent": [0, 1, 1]}\n'
    )


def test_poly_compare_exits_1_when_a_family_is_wrong(capsys, monkeypatch):
    real = cli._FAMILIES["lucky"]
    monkeypatch.setitem(cli._FAMILIES, "lucky", lambda n: real(n) + 1)
    argv = ["poly", "--n", "3", "--family", "lucky", "--compare-product"]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == "1 + 2*u + 8*u^2 + 6*u^3\nDOES NOT MATCH closed product\n"
    code, out, err = run(capsys, *argv, "--json")
    payload = json.loads(out)
    assert (code, err) == (1, "")
    assert payload["matches"] is False and payload["comparedTo"] == "closed product"


def test_file_dash_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("2 1 3\n"))
    assert run(capsys, "unmap", "--file", "-") == (0, "0 1 1\n", "")


TOP_USAGE = "usage: parkforest [-h] {map,unmap,pa,stats,verify,poly} ...\n"
UNRECOGNIZED = TOP_USAGE + "parkforest: error: unrecognized arguments: "

# Each call's exit code and how its output begins: all of it where the
# library writes it, and up to where argparse's wording varies across
# Python versions where argparse writes it.
DISPATCH = [
    (["map", "0", "--bogus"], 2, UNRECOGNIZED + "--bogus\n"),
    (["map", "0", "1"], 2, UNRECOGNIZED + "1\n"),
    (["map", "-1,2"], 2, UNRECOGNIZED + "-1,2\n"),
    (["map", "--", "0,1"], 0, "1 2\n"),
    (
        ["map", "0,1", "--js"],
        0,
        '{"labelMap": {"carToVertex": [2, 1], "vertexToCar": [2, 1]},'
        ' "n": 2, "parking": [1, 2]}\n',
    ),
    (["map", "--help"], 0, "usage: parkforest map [-h] [--file FILE] [--json] [--trace]"),
    (["-h"], 0, TOP_USAGE + "\nforests <-> parking functions"),
    ([], 2, TOP_USAGE + "parkforest: error: the following arguments are required: command\n"),
    (["bogus"], 2, TOP_USAGE + "parkforest: error: argument command: invalid choice: "),
    (["verify"], 2, "usage: parkforest verify [-h] --n N "),
    (["poly", "--n", "3", "--family", "x"], 2, "usage: parkforest poly [-h] --n N --family"),
]


@pytest.mark.parametrize(
    "argv, code, begins", DISPATCH, ids=[" ".join(argv) or "(none)" for argv, *_ in DISPATCH]
)
def test_each_call_prints_what_the_top_level_parser_prints(
    capsys, monkeypatch, argv, code, begins
):
    # main parses with the subcommand's own parser where it can; the
    # reference parses every call with the top-level parser.
    monkeypatch.setenv("COLUMNS", "80")
    got = outcome(capsys, argv)
    monkeypatch.setattr(cli, "_parse_args", lambda argv: cli._parser().parse_args(argv))
    assert got == outcome(capsys, argv)
    assert got[0] == code
    assert (got[1] or got[2]).startswith(begins)
