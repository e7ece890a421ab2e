"""Polynomial arithmetic and the small generating-polynomial goldens."""

from collections import Counter
from math import prod

import pytest
from hypothesis import given, strategies as st

from parkforest import (
    BudgetExceededError,
    GenPoly,
    all_forests,
    all_parking_functions,
    collapse_type_poly,
    critic_lucky_poly,
    critic_lucky_product_formula,
    forest_stats,
    inversion_type_poly,
    jump_type_poly,
    lead_tree_poly,
    lucky_poly,
    lucky_product_formula,
    parking_stats,
    statistic_product,
)
from parkforest import genpoly
from parkforest.genpoly import _make_key

from support import best_of


def U(e=1):
    return GenPoly.var("u", e)


def test_const_and_var():
    assert GenPoly.const(0) == GenPoly()
    assert GenPoly.const(3) + GenPoly.const(-3) == 0
    assert GenPoly.var("q", 0) == 1
    with pytest.raises(ValueError):
        GenPoly.var("q", -1)


def test_addition_cancels():
    p = GenPoly.monomial({"q": 2}, 5)
    q = GenPoly.monomial({"q": 2}, -5)
    assert not (p + q)
    assert p + q == GenPoly()


def test_multiplication_merges_exponents():
    p = GenPoly.var("q") * GenPoly.var("u") * GenPoly.var("q")
    assert p == GenPoly.monomial({"q": 2, "u": 1})
    assert 2 * p * 3 == GenPoly.monomial({"q": 2, "u": 1}, 6)


def test_power():
    p = (GenPoly.var("u") + 1) ** 3
    assert p == (
        GenPoly.const(1)
        + GenPoly.monomial({"u": 1}, 3)
        + GenPoly.monomial({"u": 2}, 3)
        + GenPoly.monomial({"u": 3}, 1)
    )


def test_substitute():
    p = GenPoly.monomial({"q1": 2, "c": 1}, 4)
    q = p.substitute({"q1": GenPoly.var("q", 1)})
    assert q == GenPoly.monomial({"q": 2, "c": 1}, 4)
    r = p.substitute({"q1": 1, "c": 2})
    assert r == GenPoly.const(8)


def test_variable_ordering_is_natural():
    p = GenPoly.monomial({"q10": 1, "q2": 1})
    assert p.variables() == ["q2", "q10"]
    assert "q2*q10" in p.render()


def test_render_examples():
    assert GenPoly().render() == "0"
    assert GenPoly.const(-7).render() == "-7"
    p = GenPoly.monomial({"u": 2}, 1) + GenPoly.monomial({"u": 1}, 2)
    assert p.render() == "2*u + u^2"


def test_as_terms_sorted_by_degree():
    p = GenPoly.monomial({"u": 3}) + GenPoly.const(1) + GenPoly.monomial({"u": 1}, 5)
    degrees = [sum(t["exponents"].values()) for t in p.as_terms()]
    assert degrees == sorted(degrees)


def test_type_polys_tiny_golden():
    # two forests on 2 vertices have two leaders each, one has one tree,
    # the chain 2 -> 1 has a leader and a one-inversion vertex
    want = (
        GenPoly.monomial({"q0": 2, "c": 2})
        + GenPoly.monomial({"q0": 2, "c": 1})
        + GenPoly.monomial({"q0": 1, "q1": 1, "c": 1})
    )
    assert inversion_type_poly(2) == want
    assert jump_type_poly(2) == want


def test_type_polys_match_small():
    for n in range(5):
        assert inversion_type_poly(n) == jump_type_poly(n)


def test_collapse_golden():
    collapsed = collapse_type_poly(inversion_type_poly(2))
    want = (
        GenPoly.monomial({"u": 2, "c": 2})
        + GenPoly.monomial({"u": 2, "c": 1})
        + GenPoly.monomial({"u": 1, "q": 1, "c": 1})
    )
    assert collapsed == want


def test_lucky_golden_n3():
    want = U(1) * 2 + U(2) * 8 + U(3) * 6
    assert lucky_poly(3) == want
    assert lucky_product_formula(3) == want


def test_lucky_counts_total():
    # coefficients sum to the number of parking functions
    for n in range(1, 5):
        total = sum(c for c in lucky_poly(n).terms.values())
        assert total == (n + 1) ** (n - 1)


def test_critic_lucky_tiny_golden():
    want = (
        GenPoly.monomial({"c": 1, "u": 1})
        + GenPoly.monomial({"c": 1, "u": 2})
        + GenPoly.monomial({"c": 2, "u": 2})
    )
    assert critic_lucky_poly(2) == want
    assert critic_lucky_product_formula(2) == want


def test_statistic_product_expands():
    # n=3, plain integers: c*(a + 2b + c)*(2a + b + c)
    p = statistic_product(3, 2, 3, 5)
    assert p == GenPoly.const(5 * (2 + 6 + 5) * (4 + 3 + 5))
    with pytest.raises(ValueError):
        statistic_product(0, 1, 1, 1)


def test_identities_small():
    for n in range(1, 5):
        assert lucky_poly(n) == lucky_product_formula(n)
        assert critic_lucky_poly(n) == critic_lucky_product_formula(n)


def test_lead_tree_poly_agrees_with_parking_side():
    for n in range(1, 6):
        assert lead_tree_poly(n) == critic_lucky_poly(n)


def test_lead_tree_poly_matches_closed_product_through_seven():
    # Forest-side counterpart of the closed product, at full sweep size.
    for n in range(1, 8):
        assert lead_tree_poly(n) == critic_lucky_product_formula(n)


@pytest.mark.parametrize(
    "family",
    [inversion_type_poly, jump_type_poly, lucky_poly, critic_lucky_poly, lead_tree_poly],
    ids=lambda family: family.__name__,
)
def test_tallied_terms_match_the_checked_constructor(monkeypatch, family):
    # _tally builds its keys itself; GenPoly(...) checks and sorts them.
    real = genpoly._tally
    seen = []

    def recorded(names, counts):
        seen.append((names, dict(counts)))
        return real(names, counts)

    monkeypatch.setattr(genpoly, "_tally", recorded)
    for n in range(6):
        seen.clear()
        terms = family(n).terms
        [(names, counts)] = seen
        checked = GenPoly({tuple(zip(names, k)): c for k, c in counts.items()})
        assert terms == checked.terms


@pytest.mark.parametrize("n", range(7))
def test_parking_state_counts_match_a_per_object_tally(n):
    # The sweep counts parking states; the reference parks every parking
    # function on its own, through parking_stats.
    want = Counter(
        (*ps.jump_type[:-1], ps.critic)
        for ps in map(parking_stats, all_parking_functions(n))
    )
    assert genpoly._parking_counts(n) == want


@pytest.mark.parametrize("n", range(7))
def test_forest_counts_match_a_per_forest_tally(n):
    # The recursion counts forests by their roots; the reference runs
    # every forest through forest_stats on its own.
    want = Counter(
        fs.inv_type[:-1] + (fs.tree,) for fs in map(forest_stats, all_forests(n))
    )
    assert genpoly._forest_counts(n) == want


def test_lucky_polys_match_their_products_at_the_enumeration_budget():
    assert lucky_poly(8) == lucky_product_formula(8)
    assert critic_lucky_poly(8) == critic_lucky_product_formula(8)


def test_lead_tree_poly_matches_its_product_at_the_enumeration_budget():
    assert lead_tree_poly(8) == critic_lucky_product_formula(8)


def test_critic_lucky_poly_time_grows_with_the_parking_states():
    # The sweep holds 1,348 parking states in all at n = 6 and 5,300 at
    # n = 7, and takes about 4.5 times as long at n = 7.  Running every
    # parking function through parking_stats takes about 16 times as
    # long, as their number grows from 7^5 to 8^6.
    assert best_of(3, critic_lucky_poly, 7) <= 8 * best_of(3, critic_lucky_poly, 6)


def test_lead_tree_poly_time_grows_with_the_counted_keys():
    # The recursion holds 196 keys at n = 6 and 625 at n = 7, and takes
    # about 3.5 times as long at n = 7.  Running every forest through
    # forest_stats takes about 17 times as long, as their number grows
    # from 7^5 to 8^6.
    assert best_of(3, lead_tree_poly, 7) <= 8 * best_of(3, lead_tree_poly, 6)


def test_type_polys_reject_oversized_n():
    with pytest.raises(BudgetExceededError):
        inversion_type_poly(7)
    with pytest.raises(BudgetExceededError):
        jump_type_poly(7)


NAMES = ["c", "q", "q0", "q01", "q1", "q2", "q10", "u"]

monomials = st.tuples(
    st.dictionaries(st.sampled_from(NAMES), st.integers(0, 3), max_size=3),
    st.integers(-4, 4),
)
polys = st.lists(monomials, max_size=4).map(
    lambda ms: sum((GenPoly.monomial(e, c) for e, c in ms), GenPoly())
)
points = st.fixed_dictionaries({v: st.integers(-3, 3) for v in NAMES})


def evaluate(p, point):
    return sum(c * prod(point[v] ** e for v, e in k) for k, c in p.terms.items())


def assert_canonical(p):
    assert all(isinstance(c, int) and c for c in p.terms.values())
    assert all(k == _make_key(k) for k in p.terms)


@given(polys, polys, st.integers(-3, 3), st.integers(0, 3), points)
def test_arithmetic_commutes_with_evaluation(a, b, k, e, point):
    # Evaluating at an integer point is a ring map, so it must commute with
    # every operation; and every result keeps the invariants.
    cases = [
        (a + b, evaluate(a, point) + evaluate(b, point)),
        (a * b, evaluate(a, point) * evaluate(b, point)),
        (k * a + k, k * evaluate(a, point) + k),
        (a**e, evaluate(a, point) ** e),
        (
            a.substitute({"u": b, "q": k}),
            evaluate(a, {**point, "u": evaluate(b, point), "q": k}),
        ),
    ]
    for poly, value in cases:
        assert evaluate(poly, point) == value
        assert_canonical(poly)
    assert a * b == b * a
    assert a + b == b + a


@pytest.mark.parametrize(
    "call",
    [
        lambda: GenPoly.var("u", 1.5),
        lambda: GenPoly.const(2.5),
        lambda: GenPoly({(("u", 1),): 2.5}),
        lambda: GenPoly.monomial({"u": 1.0}),
        lambda: GenPoly.var("u") * 2.5,
        lambda: 2.5 * GenPoly.var("u"),
        lambda: GenPoly.var("u") + 0.5,
        lambda: 0.5 + GenPoly.var("u"),
        lambda: GenPoly.var("u").substitute({"u": 0.5}),
        lambda: statistic_product(2, 1, 1.5, 1),
        lambda: statistic_product(1, 1, 1, 1.5),
    ],
    ids=[
        "var_power",
        "const",
        "constructor_coeff",
        "monomial_exponent",
        "mul",
        "rmul",
        "add",
        "radd",
        "substitute",
        "product_factor",
        "product_lead",
    ],
)
def test_non_integer_coefficients_and_exponents_are_rejected(call):
    with pytest.raises(TypeError):
        call()


def test_entry_points_check_what_they_are_given():
    with pytest.raises(ValueError):
        GenPoly.monomial({"u": -1})
    with pytest.raises(ValueError):
        GenPoly({(("u", -2),): 1})
    # Keys are made canonical and zero coefficients dropped on the way in.
    assert GenPoly({(("u", 1), ("c", 2)): 2, (("c", 2), ("u", 1)): -2}) == 0
    assert GenPoly({(("u", 0),): 3}) == 3
    assert GenPoly.const(True) == 1 and repr(GenPoly.const(True)) == "GenPoly(1)"
    with pytest.raises(ValueError):
        GenPoly.var("u") ** -1
    assert (GenPoly.var("u") == "u") is False
    # A name the stem-and-index pattern does not match sorts by itself.
    assert (GenPoly.var("x_1") * GenPoly.var("u")).render() == "u*x_1"
    # A key that names a variable twice has its powers added, as a
    # product would, each power checked first.
    u3 = GenPoly.var("u", 3)
    assert GenPoly({(("u", 1), ("u", 2)): 3}) == 3 * u3
    assert GenPoly({(("u", 2), ("u", 1)): 3}) == 3 * u3
    with pytest.raises(ValueError):
        GenPoly({(("u", -1), ("u", 2)): 3})
    with pytest.raises(TypeError):
        GenPoly({(("u", 2.0), ("u", 1)): 3})
