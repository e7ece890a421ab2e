"""Enumerators, the verification loop, and the forest sampler."""

import itertools
import json
import random
import tracemalloc
from collections import Counter

import pytest

import parkforest.exhaustive as ex
from parkforest import (
    BudgetExceededError,
    CycleError,
    Forest,
    OutOfRangeError,
    all_forests,
    all_parking_functions,
    forest_count,
    is_parking_function,
    sample_forest,
    sample_parking_function,
    sorted_parking_test,
    validate_forest,
    verify_bijection,
    verify_random,
)
from parkforest.cli import main


def test_counts_match_formula():
    want = [1, 1, 3, 16, 125, 1296]
    for n, w in enumerate(want):
        assert forest_count(n) == w
        assert sum(1 for _ in all_forests(n)) == w
        assert sum(1 for _ in all_parking_functions(n)) == w


def test_all_forests_yields_valid_distinct():
    seen = set()
    for f in all_forests(4):
        assert validate_forest(f.parent).parent == f.parent
        assert f.parent not in seen
        seen.add(f.parent)


def test_all_forests_against_code_decoder():
    # Independent enumeration: decoding every code sequence in
    # {1..n+1}^(n-1) through the sampler's decoder must yield exactly
    # the forests the parent-sequence filter finds.
    class FixedSeq:
        def __init__(self, seq):
            self.seq = list(seq)
            self.i = 0

        def randint(self, a, b):
            v = self.seq[self.i]
            self.i += 1
            assert a <= v <= b
            return v

    for n in (3, 4):
        via_filter = {f.parent for f in all_forests(n)}
        via_codes = set()
        for seq in itertools.product(range(1, n + 2), repeat=n - 1):
            via_codes.add(sample_forest(n, FixedSeq(seq)).parent)
        assert via_codes == via_filter


def test_parking_sampler_exact_over_every_draw():
    # The parking sampler's uniformity, exactly: feeding it each of the
    # (n+1)^n draw sequences once must yield every parking function of
    # length n exactly n+1 times, once per rotation of the circle.
    class Scripted:
        def __init__(self, seq):
            self.draws = iter(seq)

        def randrange(self, m):
            v = next(self.draws)
            assert 0 <= v < m
            return v

    for n in range(6):
        draws = itertools.product(range(n + 1), repeat=n)
        seen = Counter(sample_parking_function(n, Scripted(seq)) for seq in draws)
        assert sorted(seen) == sorted(all_parking_functions(n))
        assert set(seen.values()) == {n + 1}


def _is_forest(parent):
    try:
        validate_forest(parent)
    except CycleError:
        return False
    return True


def test_enumerators_match_brute_force_filter():
    # The reference filters every full candidate sequence; the enumerators
    # must yield the same objects in the same order, in every slice.
    for n in range(7):
        choices = [tuple(p for p in range(n + 1) if p != v) for v in range(1, n + 1)]
        for fp in [None, *range(n + 1)] if n else [None]:
            if fp is not None:
                choices[0] = tuple(p for p in range(n + 1) if p == fp != 1)
            want = [c for c in itertools.product(*choices) if _is_forest(c)]
            assert [f.parent for f in all_forests(n, fp)] == want
        cands = itertools.product(range(1, n + 1), repeat=n)
        want = [c for c in cands if sorted_parking_test(c)]
        got = list(all_parking_functions(n))
        assert got == want
        assert all(is_parking_function(p) and sorted_parking_test(p) for p in got)


def test_all_parking_functions_members():
    for p in all_parking_functions(4):
        assert is_parking_function(p)
    assert (1, 1, 1) in set(all_parking_functions(3))
    assert (2, 3, 3) not in set(all_parking_functions(3))


def test_first_parent_partition_covers():
    whole = {f.parent for f in all_forests(4)}
    parts = [
        {f.parent for f in all_forests(4, first_parent=fp)}
        for fp in range(5)
    ]
    assert set().union(*parts) == whole
    assert sum(len(p) for p in parts) == len(whole)
    assert parts[1] == set()  # vertex 1 is never its own parent
    assert list(all_forests(0, first_parent=0)) == []


@pytest.mark.parametrize(
    "n, first_parent", [(3, 9), (3, 4), (2, -3), (1, 2), (0, 1), (0, -1)]
)
def test_first_parent_outside_range_is_rejected(n, first_parent):
    with pytest.raises(OutOfRangeError, match=f"got first_parent = {first_parent}"):
        next(all_forests(n, first_parent))


def test_verify_small_all_pass():
    for n in range(5):
        rep = verify_bijection(n)
        assert rep.ok
        assert rep.forest_count == rep.parking_function_count == forest_count(n)


def test_verify_parallel_matches_serial(capsys):
    # jobs=1 is the serial sweep, through the library and the CLI alike.
    serial = verify_bijection(4)
    for jobs in (1, 2):
        parallel = verify_bijection(4, jobs=jobs)
        for field in ("n", "forest_count", "parking_function_count",
                      "roundtrip_failures", "stat_mismatches", "seed"):
            assert getattr(serial, field) == getattr(parallel, field)
    reports = []
    for extra in ((), ("--jobs", "1")):
        assert main(["verify", "--n", "4", "--json", *extra]) == 0
        report = json.loads(capsys.readouterr().out)
        report["elapsedMillis"] = None
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.fixture
def serial_pool(monkeypatch):
    """The sweep's process pool swapped for one that runs every slice in
    this process; the list it returns records each pool size asked for."""
    import concurrent.futures

    asked = []

    class SerialPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return asked


def test_verify_starts_no_more_workers_than_slices(serial_pool):
    # n = 3 splits into three slices: vertex 1 hangs on 0, 2 or 3.
    report = verify_bijection(3, jobs=64)
    assert serial_pool == [3]
    assert report.ok and report.forest_count == forest_count(3)


def traced_sweep(monkeypatch, n, jobs=None):
    """verify_bijection(n, jobs) under tracemalloc: its peak, and what
    each slice holds when it returns (its image table, and the tuple free
    lists it filled)."""
    held = []
    real = ex._verify_slice

    def measured(args):
        before = tracemalloc.get_traced_memory()[0]
        part = real(args)
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return part

    monkeypatch.setattr(ex, "_verify_slice", measured)
    tracemalloc.start()
    try:
        assert verify_bijection(n, jobs=jobs).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, held


def test_serial_sweep_holds_one_image_table(monkeypatch):
    # A merge into a fresh table reads 1.38-1.43 (Python 3.11), one table 1.03.
    peak, held = traced_sweep(monkeypatch, 6)
    assert len(held) == 1
    assert peak <= 1.25 * held[0]


def test_split_sweep_drops_each_slice_once_merged(monkeypatch, serial_pool):
    # Six slices, against their sum.  Holding every slice through the
    # merge reads 1.37 (Python 3.11), dropping each once merged 1.11.
    peak, held = traced_sweep(monkeypatch, 6, jobs=2)
    assert serial_pool == [2] and len(held) == 6
    assert peak <= 1.25 * sum(held)


def test_split_sweep_counts_collisions_across_slices(monkeypatch, serial_pool):
    # Sorted images collide within slices and across them; the merged
    # tables must count them as the one serial table does.
    real = ex.forest_to_parking

    def sorted_image(f):
        p, lmap = real(f)
        return tuple(sorted(p)), lmap

    monkeypatch.setattr(ex, "forest_to_parking", sorted_image)
    serial = verify_bijection(4)
    split = verify_bijection(4, jobs=4)
    assert serial_pool == [4]
    assert split._replace(elapsed_millis=0) == serial._replace(elapsed_millis=0)
    assert serial.roundtrip_failures > 0


def test_verify_random_clean_and_seeded():
    a = verify_random(30, 50, seed=11)
    b = verify_random(30, 50, seed=11)
    assert a.ok and b.ok
    assert a.forest_count == 50 and a.parking_function_count == 50
    assert a.roundtrip_failures == b.roundtrip_failures == 0


def test_verify_random_rejects_negative_counts_and_sizes():
    with pytest.raises(OutOfRangeError, match="counts start at 0, got count = -1"):
        verify_random(3, -1)
    with pytest.raises(OutOfRangeError, match="sizes start at 0, got n = -2"):
        verify_random(-2, 0)
    assert verify_random(3, 0).forest_count == 0


def test_verify_bijection_rejects_negative_sizes():
    # Checked before the forest pass, whose block size divides by n + 1.
    for jobs in (None, 2):
        with pytest.raises(OutOfRangeError, match="sizes start at 0, got n = -1"):
            verify_bijection(-1, jobs=jobs)


def test_forest_count_rejects_negative_sizes():
    with pytest.raises(OutOfRangeError, match="sizes start at 0, got n = -1"):
        forest_count(-1)


def test_sample_forest_valid_and_exhaustive_reach():
    rng = random.Random(17)
    for _ in range(200):
        f = sample_forest(8, rng)
        assert validate_forest(f.parent).parent == f.parent
    seen = {sample_forest(3, rng).parent for _ in range(2000)}
    assert seen == {f.parent for f in all_forests(3)}
    assert sample_forest(0, rng) == Forest(())
    assert sample_forest(1, rng) == Forest((0,))


def test_report_keys():
    rep = verify_bijection(2).as_report()
    assert set(rep) == {
        "n", "forestCount", "parkingFunctionCount",
        "roundtripFailures", "statMismatches", "elapsedMillis",
    }


def test_random_check_reports_a_replayable_seed(monkeypatch):
    # Without a seed the check draws one and reports it; the same seed
    # draws the same forests, so a failing run can be replayed.
    real = ex.forest_stats

    def broken_on_deep(f):
        s = real(f)
        return s._replace(tree=s.tree + 1) if s.inv_total > 20 else s

    monkeypatch.setattr(ex, "forest_stats", broken_on_deep)
    first = verify_random(12, 30)
    assert isinstance(first.seed, int)
    assert first.as_report()["seed"] == first.seed
    again = verify_random(12, 30, seed=first.seed)
    assert again.seed == first.seed
    counts = lambda r: (
        r.forest_count, r.parking_function_count,
        r.roundtrip_failures, r.stat_mismatches,
    )
    assert counts(again) == counts(first)
    assert verify_random(12, 30, seed=7).seed == 7


def test_budget_guards_reject_oversized_sweeps():
    with pytest.raises(BudgetExceededError):
        next(all_forests(9))
    with pytest.raises(BudgetExceededError):
        next(all_parking_functions(9))
    with pytest.raises(BudgetExceededError):
        verify_bijection(8)


def _fields(report):
    return report._replace(elapsed_millis=None)


def test_block_size_does_not_change_reports():
    # The forest pass takes the forests in blocks of _BLOCK_VERTICES // (n+1);
    # blocks of 1, 2 and 3 forests split every sweep, and at n = 4 the last
    # block is partial (125 = 41 * 3 + 2).
    want = [_fields(verify_bijection(n)) for n in range(6)]
    runs = [(n, seed) for n in (6, 30) for seed in (3, 5, 11)]
    want_random = [_fields(verify_random(n, 20, seed=seed)) for n, seed in runs]
    for k in (1, 2, 3):
        got = []
        got_random = []
        with pytest.MonkeyPatch.context() as mp:
            for n in range(6):
                mp.setattr(ex, "_BLOCK_VERTICES", k * (n + 1))
                got.append(_fields(verify_bijection(n)))
            for n, seed in runs:
                mp.setattr(ex, "_BLOCK_VERTICES", k * (n + 1))
                got_random.append(_fields(verify_random(n, 20, seed=seed)))
        assert got == want, k
        assert got_random == want_random, k


def test_random_check_maps_each_forest_before_drawing_the_next(monkeypatch):
    # Above the block budget a block holds one forest, so a random check
    # keeps one large forest at a time: memory stays linear in n.
    calls = []
    draw, to_parking = ex.sample_forest, ex.forest_to_parking

    def logged_draw(n, rng):
        calls.append("draw")
        return draw(n, rng)

    def logged_map(f):
        calls.append("map")
        return to_parking(f)

    monkeypatch.setattr(ex, "sample_forest", logged_draw)
    monkeypatch.setattr(ex, "forest_to_parking", logged_map)
    n = 1000
    assert n + 1 > ex._BLOCK_VERTICES
    assert verify_random(n, 3, seed=1).ok
    assert calls == ["draw", "map"] * 3


# The oracles must catch a broken map: the sweep's shortcuts (the reverse
# direction read off the forest pass) may not hide a failure.


def test_verify_catches_swapped_preferences(monkeypatch):
    real = ex.forest_to_parking

    def swapped(f):
        p, lmap = real(f)
        return (p[1], p[0]) + p[2:], lmap

    monkeypatch.setattr(ex, "forest_to_parking", swapped)
    rep = verify_bijection(4)
    assert rep.roundtrip_failures > 0
    assert not rep.ok


def test_verify_catches_one_wrong_inverse(monkeypatch):
    real = ex.parking_to_forest
    target, other = (1, 1, 1, 1), (1, 2, 3, 4)

    def wrong_once(p):
        return real(other if tuple(p) == target else p)

    monkeypatch.setattr(ex, "parking_to_forest", wrong_once)
    rep = verify_bijection(4)
    # Once for the forest whose image is target (it does not come back),
    # once for target itself (mapping it back and forth gives other).
    assert rep.roundtrip_failures == 2
    assert not rep.ok
    assert rep.forest_count == rep.parking_function_count == forest_count(4)


def test_non_parking_image_counts_once(monkeypatch):
    real = ex.forest_to_parking

    def overflowing(f):
        p, lmap = real(f)
        if f.parent == (0, 0, 0):
            return (4, 4, 4), lmap  # not a parking function
        return p, lmap

    monkeypatch.setattr(ex, "forest_to_parking", overflowing)
    rep = verify_bijection(3)
    # One for the bad image, one for the parking function it left uncovered.
    assert rep.roundtrip_failures == 2
    assert rep.stat_mismatches == 0
    monkeypatch.setattr(ex, "forest_to_parking", lambda f: ((f.n + 1,) * f.n, None))
    rep = verify_random(6, 20, seed=3)
    assert rep.roundtrip_failures == 20
    assert rep.parking_function_count == 0


_STAT_MUTANTS = [
    ("forest_stats", lambda s: s._replace(inv_at=(s.inv_at[0] + 1, *s.inv_at[1:]))),
    ("parking_stats", lambda s: s._replace(critical_cars=s.critical_cars[1:])),
    ("parking_stats", lambda s: s._replace(lucky=s.lucky + 1)),
    ("parking_stats", lambda s: s._replace(critic=s.critic + 1)),
]


@pytest.mark.parametrize(
    "name, mutate",
    _STAT_MUTANTS,
    ids=["inv_at", "critical_car_dropped", "lucky_shifted", "critic_shifted"],
)
def test_verify_catches_broken_statistics(monkeypatch, name, mutate):
    real = getattr(ex, name)
    monkeypatch.setattr(ex, name, lambda x: mutate(real(x)))
    # Each mutant breaks exactly one check on every object: vertex 1's
    # count against its car's jump, the roots against the critical cars,
    # the leaders against the lucky cars, or the trees against critic.
    rep = verify_bijection(4)
    assert rep.stat_mismatches == forest_count(4)
    assert rep.roundtrip_failures == 0 and not rep.ok
    rep = verify_random(30, 20, seed=5)
    assert rep.stat_mismatches == 20
    assert rep.roundtrip_failures == 0 and not rep.ok


# Mutants of the aggregate statistics, with their exact counts over
# verify_bijection(4) and verify_random(30, 20, seed=5).  A jump total one
# too high, or a jump type shifted up one jump, breaks exactly one check
# on every object.  An inversion total one too high breaks the total and
# the sum identity on every object, and the permutation case on the 4!
# inversion-free forests: 2 * 125 + 24 = 274.
_AGGREGATE_MUTANTS = [
    ("parking_stats", lambda s: s._replace(jump_total=s.jump_total + 1), 125, 20),
    ("parking_stats", lambda s: s._replace(jump_type=(0, *s.jump_type[:-1])), 125, 20),
    ("forest_stats", lambda s: s._replace(inv_total=s.inv_total + 1), 274, 40),
]


@pytest.mark.parametrize(
    "name, mutate, swept, sampled",
    _AGGREGATE_MUTANTS,
    ids=["jump_total_shifted", "jump_type_shifted", "inv_total_shifted"],
)
def test_verify_counts_broken_aggregates(monkeypatch, name, mutate, swept, sampled):
    real = getattr(ex, name)
    monkeypatch.setattr(ex, name, lambda x: mutate(real(x)))
    rep = verify_bijection(4)
    assert (rep.roundtrip_failures, rep.stat_mismatches) == (0, swept)
    rep = verify_random(30, 20, seed=5)
    assert (rep.roundtrip_failures, rep.stat_mismatches) == (0, sampled)


def test_oracles_catch_broken_maps_in_small_blocks():
    # The mutation tests above, at 11 vertices a block: two forests a
    # block at n = 3 and 4, so the sweep splits mid-way and ends on a
    # partial block (125 = 62 * 2 + 1), and one forest a block at the
    # random checks' sizes.
    checks = [
        test_verify_catches_swapped_preferences,
        test_verify_catches_one_wrong_inverse,
        test_non_parking_image_counts_once,
    ]
    checks += [
        lambda mp, case=case: test_verify_catches_broken_statistics(mp, *case)
        for case in _STAT_MUTANTS
    ]
    checks += [
        lambda mp, case=case: test_verify_counts_broken_aggregates(mp, *case)
        for case in _AGGREGATE_MUTANTS
    ]
    for check in checks:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ex, "_BLOCK_VERTICES", 11)
            check(mp)
