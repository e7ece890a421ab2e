"""Parking algorithm, recognizers, car statistics, uniform sampler."""

import random
from itertools import product
from math import comb

import pytest
from hypothesis import given, strategies as st

from parkforest import (
    NotParkingFunctionError,
    OutOfRangeError,
    all_parking_functions,
    is_parking_function,
    park,
    parking_stats,
    sample_parking_function,
    sorted_parking_test,
)
from parkforest.bijection import unmap_trace

from support import critical_by_simulation, peak_bytes

prefseqs = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.lists(
        st.integers(min_value=1, max_value=n), min_size=n, max_size=n
    )
)


def test_park_golden():
    out = park((4, 3, 3, 1, 5))
    assert out.slots == (4, 3, 5, 1, 6)
    assert out.max_space == 6
    assert not is_parking_function((4, 3, 3, 1, 5))


def test_park_rejects_nonpositive_preferences():
    # The message names the first car below 1, wherever it stands.
    for prefs, message in [
        ((0, 1), "car 1 prefers space 0"),
        ((3, 0, -1), "car 2 prefers space 0"),
        ((1, 1, -2), "car 3 prefers space -2"),
    ]:
        for check in (park, parking_stats):
            with pytest.raises(OutOfRangeError, match=f"^{message}; spaces start at 1$"):
                check(prefs)
    # A preference past n is not an error: the car simply parks out there.
    assert park((1, 3)).slots == (1, 3)
    assert not is_parking_function((1, 3))


def test_park_worst_case_pileup():
    out = park((1,) * 6)
    assert out.slots == (1, 2, 3, 4, 5, 6)
    assert is_parking_function((1,) * 6)


def test_recognizers_agree_exhaustively():
    import itertools

    for n in range(1, 6):
        for cand in itertools.product(range(1, n + 1), repeat=n):
            assert is_parking_function(cand) == sorted_parking_test(cand)


@given(prefseqs)
def test_recognizers_agree_random(prefs):
    assert is_parking_function(prefs) == sorted_parking_test(prefs)


def test_recognizer_edge_cases():
    assert is_parking_function(())
    assert not is_parking_function((2,))
    assert not is_parking_function((0, 1))  # judged, not raised
    assert not sorted_parking_test((0, 1))


def test_parking_function_counts():
    for n in range(7):
        assert sum(1 for _ in all_parking_functions(n)) == (n + 1) ** (n - 1 if n else 0)


def test_stats_golden():
    ps = parking_stats((2, 4, 2, 1, 3))
    assert ps.slots == (2, 4, 3, 1, 5)
    assert ps.jump_at == (0, 0, 1, 0, 2)
    assert ps.jump_total == 3
    assert ps.lucky == 3 and ps.lucky_cars == (1, 2, 4)
    assert ps.critic == 1 and ps.critical_cars == (5,)
    assert ps.jump_type == (3, 1, 1, 0, 0, 0)


def test_stats_rejects_non_parking():
    with pytest.raises(
        NotParkingFunctionError, match=r"^\(4, 3, 3, 1, 5\) is not a parking function$"
    ):
        parking_stats((4, 3, 3, 1, 5))
    with pytest.raises(NotParkingFunctionError):
        parking_stats((2, 2))


class Pref:
    """An integer-like preference: it has __index__ and nothing else."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_stats_read_integer_like_preferences_as_their_ints():
    # The jumps come out as ints, not as differences of the inputs, so the
    # report is the one the plain ints give.
    for p in [(2, 4, 2, 1, 3), (1, 1, 2), (1,), ()]:
        ps = parking_stats([Pref(x) for x in p])
        assert ps == parking_stats(p) and ps.as_report() == parking_stats(p).as_report()
        assert all(type(j) is int for j in ps.jump_at)
    # A refusal prints the converted preferences.
    with pytest.raises(NotParkingFunctionError, match=r"^\(2, 2\) is not a parking"):
        parking_stats((Pref(2), Pref(2)))
    with pytest.raises(NotParkingFunctionError, match=r"^\(1, 3, 3\) is not a parking"):
        parking_stats((True, 3, 3))


def test_space_word_golden():
    # word[s-1] is the car at space s; the backward map appends car n+1,
    # which parks at space n+1
    p = (2, 4, 2, 1, 3)
    word = [0] * len(p)
    for c, s in enumerate(parking_stats(p).slots, start=1):
        word[s - 1] = c
    assert word == [4, 1, 3, 2, 5]
    assert unmap_trace(p)["word"] == word + [6]


def test_critical_definitions_agree_small():
    for n in range(6):
        for p in all_parking_functions(n):
            assert sorted(parking_stats(p).critical_cars) == sorted(critical_by_simulation(p))


def test_jump_total_identity_exhaustive():
    for n in range(6):
        for p in all_parking_functions(n):
            assert parking_stats(p).jump_total == comb(n + 1, 2) - sum(p)


def test_last_critical_car_fills_space_n():
    # the car at space n is always critical, so critic >= 1 when n >= 1
    for p in all_parking_functions(4):
        assert parking_stats(p).critic >= 1


def test_sampler_deterministic_per_seed():
    a = [sample_parking_function(6, random.Random(7)) for _ in range(5)]
    b = [sample_parking_function(6, random.Random(7)) for _ in range(5)]
    assert a[0] == b[0]
    assert [sample_parking_function(6, random.Random(8)) for _ in range(5)] != a


def test_sampler_only_produces_parking_functions():
    rng = random.Random(123)
    for _ in range(500):
        assert is_parking_function(sample_parking_function(5, rng))
    assert sample_parking_function(0, rng) == ()


def test_sampler_rejects_negative_sizes():
    with pytest.raises(OutOfRangeError, match="sizes start at 0, got n = -1"):
        sample_parking_function(-1, random.Random(1))


def test_sampler_reaches_everything():
    rng = random.Random(5)
    seen = {sample_parking_function(3, rng) for _ in range(2000)}
    assert seen == set(all_parking_functions(3))


def test_report_keys():
    rep = parking_stats((1, 1)).as_report()
    assert set(rep) == {
        "q", "jumpAt", "jumpTotal", "lucky", "luckyCars",
        "critic", "criticalCars", "tjump",
    }


def test_park_accepts_preferences_past_n():
    # Spaces never run out to the right; spilling past n is observable,
    # not an error, so the recognizer can see the overflow.
    assert park((6, 1, 1)).slots == (6, 1, 2)
    assert park((10,)).slots == (10,)
    assert park((3, 3, 3)).slots == (3, 4, 5)
    assert not is_parking_function((6, 1, 1))
    assert not sorted_parking_test((6, 1, 1))
    with pytest.raises(OutOfRangeError):
        park((0, 1))
    with pytest.raises(OutOfRangeError):
        park((-3,))


def test_jump_identity_on_large_random_samples():
    n = 1000
    rng = random.Random(99)
    for _ in range(20):
        p = sample_parking_function(n, rng)
        assert parking_stats(p).jump_total == comb(n + 1, 2) - sum(p)


def test_everyone_lucky_exactly_for_permutations():
    for n in range(1, 7):
        identity = list(range(1, n + 1))
        for p in all_parking_functions(n):
            ps = parking_stats(p)
            assert (ps.lucky == n) == (sorted(p) == identity)
            if ps.lucky == n:
                assert ps.slots == p  # a permutation parks in place


@given(prefseqs)
def test_park_outcome_bounds(prefs):
    out = park(prefs)
    slots = out.slots
    assert len(set(slots)) == len(slots)  # one car per space
    for i, (p, s) in enumerate(zip(prefs, slots), start=1):
        assert p <= s <= p + (i - 1)  # can only roll past earlier cars


def park_by_probing(prefs):
    """Reference parking: each car walks right one space at a time."""
    taken = set()
    slots = []
    for p in prefs:
        s = p
        while s in taken:
            s += 1
        taken.add(s)
        slots.append(s)
    return tuple(slots)


@given(st.lists(st.integers(min_value=1, max_value=40), max_size=30))
def test_park_matches_linear_probing(prefs):
    # Preferences reach past the number of cars, so cars spill past n.
    out = park(prefs)
    assert out.slots == park_by_probing(prefs)
    assert out.max_space == max(out.slots, default=0)


@pytest.mark.parametrize(
    "prefs", [(1.5, 1), (0, 1.5), (1, 2.0), (1, "2"), (1.5,), (1.0,), (2, 1.0)]
)
def test_park_rejects_a_non_integer_preference(prefs):
    # Checked before any car parks or any preference is judged: (0, 1.5)
    # is a TypeError, not an OutOfRangeError or a False, and (1.0,) is not
    # read as (1,).
    for check in (park, is_parking_function, sorted_parking_test):
        with pytest.raises(TypeError):
            check(prefs)
    # parking_stats converts as park does, and raises park's own message.
    with pytest.raises(TypeError) as from_park:
        park(prefs)
    with pytest.raises(TypeError) as from_stats:
        parking_stats(prefs)
    assert str(from_stats.value) == str(from_park.value)


def test_park_matches_probing_on_both_sides_of_the_list_bound():
    # park keeps its next-free pointers in a list while no preference
    # passes 2n, and in a dict beyond: words over 1..2n+2 have maxima
    # 2n, 2n+1 and 2n+2.
    for n in range(5):
        for prefs in product(range(1, 2 * n + 3), repeat=n):
            out = park(prefs)
            assert out.slots == park_by_probing(prefs)
            assert out.max_space == max(out.slots, default=0)


def test_park_pileups_at_the_list_bound():
    # Every car prefers 2n: the last one parks on 3n-1, the list's last
    # used entry.  One space further right takes the dict.
    n = 1000
    assert park((2 * n,) * n).slots == tuple(range(2 * n, 3 * n))
    assert park((2 * n + 1,) * n).slots == tuple(range(2 * n + 1, 3 * n + 1))
    # Preferences past the list's 3n+2 entries: only the dict holds them.
    assert park((3 * n,) * n).slots == tuple(range(3 * n, 4 * n))
    assert park((15,) * 5).slots == tuple(range(15, 20))


def test_park_memory_does_not_grow_with_preference_values():
    assert park((10**8, 1)).slots == (10**8, 1)
    assert peak_bytes(park, (10**8, 1)) < 1_000_000


def sample_by_circle_probing(n, rng):
    """The cyclic argument run literally: probe round a circle of n+1
    spaces, then rotate the empty space onto n+1."""
    m = n + 1
    a = [rng.randrange(m) for _ in range(n)]
    occupied = [False] * m
    for x in a:
        while occupied[x]:
            x = (x + 1) % m
        occupied[x] = True
    shift = (n - occupied.index(False)) % m
    return tuple((x + shift) % m + 1 for x in a)


def test_sampler_matches_circle_probing():
    for n in list(range(30)) + [100, 1000]:
        for seed in range(40 if n < 30 else 5):
            want = sample_by_circle_probing(n, random.Random(seed))
            assert sample_parking_function(n, random.Random(seed)) == want
