"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Every check re-derives its expected values from first principles or from
frozen goldens verified by hand; the lines are written past the capture
so the run log always shows the verdicts.
"""

import functools
import json
import random
import sys
import time
from math import comb

from parkforest import (
    all_forests,
    all_parking_functions,
    canonical_order,
    critic_lucky_poly,
    critic_lucky_product_formula,
    forest_count,
    forest_stats,
    forest_to_parking,
    inversion_type_poly,
    jump_type_poly,
    lucky_poly,
    lucky_product_formula,
    park,
    parking_stats,
    parking_to_forest,
    relabel_decreasing,
    sample_forest,
    sample_parking_function,
    verify_bijection,
)
from parkforest.bijection import unmap_trace
from parkforest.genpoly import GenPoly
from parkforest.parking import is_parking_function

from support import critical_by_simulation


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                detail = fn()
            except BaseException:
                print(f"FAIL  criterion {num:2d}: {desc}", file=sys.__stdout__, flush=True)
                raise
            suffix = f" [{detail}]" if detail else ""
            print(
                f"PASS  criterion {num:2d}: {desc}{suffix}",
                file=sys.__stdout__,
                flush=True,
            )

        return run

    return wrap


@criterion(1, "parking run (4,3,3,1,5) -> (4,3,5,1,6), not a parking function")
def test_criterion_01_parking_algorithm_golden():
    out = park((4, 3, 3, 1, 5))
    assert out.slots == (4, 3, 5, 1, 6)
    assert out.max_space == 6
    assert not is_parking_function((4, 3, 3, 1, 5))


@criterion(2, "statistics of (2,4,2,1,3): slots, jumps, lucky cars")
def test_criterion_02_statistics_golden():
    ps = parking_stats((2, 4, 2, 1, 3))
    assert ps.slots == (2, 4, 3, 1, 5)
    assert ps.jump_total == 3
    assert ps.jump_at[3 - 1] == 1 and ps.jump_at[5 - 1] == 2
    assert ps.jump_at == (0, 0, 1, 0, 2)
    assert ps.lucky == 3
    assert ps.lucky_cars == (1, 2, 4)


@criterion(3, "14-car worked example: word, jump row, roundtrip, forest stats")
def test_criterion_03_n14_golden():
    p14 = (10, 2, 6, 5, 7, 1, 13, 10, 4, 1, 14, 9, 11, 5)
    word = [6, 2, 10, 9, 4, 3, 5, 14, 12, 1, 8, 13, 7, 11, 15]
    jump_row = [0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 1, 1, 0, 0, 14]
    tr = unmap_trace(p14)
    # byte-identical, not merely equal
    assert json.dumps(tr["word"]) == json.dumps(word)
    assert json.dumps(tr["jumpRow"]) == json.dumps(jump_row)
    f, lmap = parking_to_forest(p14)
    back, _ = forest_to_parking(f)
    assert back == p14
    fs = forest_stats(f)
    assert fs.tree == 3
    assert fs.inv_total == 7
    assert fs.lead == 10
    assert lmap.car_of(10) == 9  # vertex 10 drives car 9


@criterion(4, "exhaustive bijectivity n=0..7, both roundtrips, within 60 s")
def test_criterion_04_exhaustive_bijectivity():
    start = time.perf_counter()
    for n in range(8):
        rep = verify_bijection(n)
        assert rep.roundtrip_failures == 0, (n, rep)
        assert rep.forest_count == rep.parking_function_count == forest_count(n)
    assert forest_count(7) == 262144
    elapsed = time.perf_counter() - start
    assert elapsed <= 60.0, f"took {elapsed:.1f}s"
    return f"{elapsed:.1f}s <= 60s"


@criterion(5, "per-vertex and aggregate statistic transport, n <= 6")
def test_criterion_05_statistic_transport():
    checked = 0
    for n in range(7):
        for f in all_forests(n):
            p, lmap = forest_to_parking(f)
            fs = forest_stats(f)
            ps = parking_stats(p)
            for v in range(1, n + 1):
                assert fs.inv_at[v - 1] == ps.jump_at[lmap.car_of(v) - 1]
            assert fs.inv_type == ps.jump_type
            assert fs.tree == ps.critic
            checked += 1
    return f"{checked} forests, zero violations"


@criterion(6, "inversion total = C(n+1,2) - preference sum, exhaustive and n=200")
def test_criterion_06_sum_identity():
    for n in range(7):
        for f in all_forests(n):
            p, _ = forest_to_parking(f)
            assert forest_stats(f).inv_total == comb(n + 1, 2) - sum(p)
    rng = random.Random(20260816)
    for _ in range(10_000):
        f = sample_forest(200, rng)
        p, _ = forest_to_parking(f)
        assert forest_stats(f).inv_total == comb(201, 2) - sum(p)
    return "n <= 6 exhaustive + 10^4 random at n=200"


@criterion(7, "generating polynomial identities with exact coefficients")
def test_criterion_07_polynomial_identities():
    start = time.perf_counter()
    for n in range(1, 7):
        assert inversion_type_poly(n) == jump_type_poly(n), n
    for n in range(1, 8):
        assert lucky_poly(n) == lucky_product_formula(n), n
    want3 = (
        GenPoly.monomial({"u": 1}, 2)
        + GenPoly.monomial({"u": 2}, 8)
        + GenPoly.monomial({"u": 3}, 6)
    )
    assert lucky_poly(3) == want3
    for n in range(1, 7):
        assert critic_lucky_poly(n) == critic_lucky_product_formula(n), n
    elapsed = time.perf_counter() - start
    assert elapsed <= 120.0, f"took {elapsed:.1f}s"
    return f"{elapsed:.1f}s <= 120s"


@criterion(8, "relabeling is processing-order independent, n <= 5, 20 orders")
def test_criterion_08_order_independence():
    rng = random.Random(8)
    trees = 0
    for n in range(6):
        for f in all_forests(n):
            t = canonical_order(f)
            base = relabel_decreasing(t)
            order = list(range(1, t.root + 1))
            for _ in range(20):
                rng.shuffle(order)
                assert relabel_decreasing(t, order) == base
            trees += 1
    return f"{trees} trees x 20 orders"


@criterion(9, "critical cars: parking-time definition matches word maxima, n <= 6")
def test_criterion_09_critical_equivalence():
    for n in range(7):
        for p in all_parking_functions(n):
            assert sorted(parking_stats(p).critical_cars) == sorted(critical_by_simulation(p))


@criterion(10, "sampler: 16000 draws at n=3 uniform within 5 sigma")
def test_criterion_10_sampler_uniformity():
    rng = random.Random(1618)
    draws = 16_000
    counts: dict = {}
    for _ in range(draws):
        p = sample_parking_function(3, rng)
        counts[p] = counts.get(p, 0) + 1
    assert set(counts) == set(all_parking_functions(3))
    assert len(counts) == 16
    mean = draws / 16
    sigma = (draws * (1 / 16) * (15 / 16)) ** 0.5
    for p, c in counts.items():
        assert abs(c - mean) <= 5 * sigma, (p, c)
    spread = max(abs(c - mean) for c in counts.values())
    return f"max deviation {spread:.0f} <= {5 * sigma:.0f}"
