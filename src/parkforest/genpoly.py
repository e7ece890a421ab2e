"""Exact sparse polynomials and the statistic generating functions.

GenPoly is a bare-bones multivariate polynomial over the integers:
a dict from monomial keys (sorted tuples of (variable, power) pairs) to
coefficients.  It exists so the package can state identities between
statistic distributions exactly, with no floating point anywhere.

GenPoly(terms) is the one checked constructor, and const, var and
monomial are short forms of it: it reads coefficients and exponents
through operator.index, a negative exponent is a ValueError, and a key
that names a variable twice has its powers added.  Every polynomial
comes out of one accumulator, _sum, which adds up (key, coefficient)
pairs and drops zeros.  Arithmetic keeps integer coefficients and
canonical keys by closure, so it is not checked again.  An int operand
is a constant; any other non-GenPoly operand a TypeError.

The generating polynomials tie the two worlds together:

  inversion_type_poly(n)  sum over all forests on n vertices of
                          q0^t[0] * q1^t[1] * ... * c^components,
                          t the inversion type
  jump_type_poly(n)       same sum over parking functions with the jump
                          type and the critical-car count
  lucky_poly(n)           sum over parking functions of u^lucky
  critic_lucky_poly(n)    sum over parking functions of c^critic u^lucky
  lead_tree_poly(n)       sum over forests of c^components u^leaders,
                          the forest-side mirror of critic_lucky_poly

and the closed products they must equal:

  statistic_product(n, a, b, c) = c * prod_{i=1}^{n-1} (i*a + (n-i)*b + c)

with (a, b, c) = (1, u, u) for lucky_poly and (1, u, c*u) for
critic_lucky_poly.  The type polynomials match each other term by term,
and collapse under q0 -> u, qk -> q^k to bivariate summaries.

The two sides are computed independently, and both count: neither
lists its objects, and neither shares code with forest_stats,
parking_stats or the maps.  The forest side counts by the root
recursion behind Kreweras's inversion enumerator.  A vertex's
inversions depend only on the relative order of the labels in its
subtree, so with T_k the trees and F_k the forests on k labels, and G_k
the forests with c = 1,

  T_k = (q0 + q1 + ... + q(k-1)) * G_(k-1)
  F_k = sum_{j=1}^{k} C(k-1, j-1) * c * T_j * F_(k-j),   F_0 = 1:

the root of rank j among its tree's labels has j inversions, and a
forest splits into the tree of its smallest label and the rest.  The
parking side counts: its three families come from one sweep over
parking states, which parks one car at a time with every preference and
merges the preference prefixes that leave the same state.  Parking
functions that share a prefix share its parking, so the sweep holds 340
states in all at n = 5, for 1,296 parking functions, and 20,663 at
n = 8, for 4,782,969.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from functools import lru_cache
from itertools import chain, repeat
from math import comb, prod
from operator import index

from .errors import BudgetExceededError, OutOfRangeError
from .exhaustive import _check_sweep_size

# The type polynomials have one term per (type, components) key: 196 at
# n = 6, 625 at 7 and 2,055 at 8.  Both sides count, so time does not set
# this bound; it keeps the printed polynomials at desk scale.
MAX_TYPE_POLY_N = 6

Key = tuple[tuple[str, int], ...]

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


@lru_cache(maxsize=1024)  # every product sorts its keys by name; names are few
def _var_sort_key(name: str) -> tuple[str, int, str]:
    """A name's stem and index, -1 for none, then the name itself: q2
    sorts before q10, and q01 before q1, which has the same index."""
    m = _VAR_RE.match(name)
    if not m:
        return (name, -1, name)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1, name)


def _by_name(item: tuple[str, int]) -> tuple[str, int, str]:
    return _var_sort_key(item[0])


def _make_key(pairs: Iterable[tuple[str, int]]) -> Key:
    """The canonical key: each variable's powers added up, as _times
    adds them, and the nonzero sums in variable order."""
    powers: dict[str, int] = {}
    for v, e in pairs:
        if (e := index(e)) < 0:
            raise ValueError("negative powers are not supported")
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(((v, e) for v, e in powers.items() if e), key=_by_name))


def _times(k1: Key, k2: Key) -> Key:
    """The key of the product of two monomials."""
    if not (k1 and k2):
        return k1 or k2
    merged = dict(k1)
    for v, e in k2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items(), key=_by_name))


def _sum(pairs: Iterable[tuple[Key, int]]) -> "GenPoly":
    """The polynomial summing (key, coefficient) pairs, zeros dropped.
    The pairs are trusted; see the module docstring."""
    out: dict[Key, int] = {}
    for k, c in pairs:
        out[k] = out.get(k, 0) + c
    poly = object.__new__(GenPoly)
    poly.terms = {k: c for k, c in out.items() if c} if 0 in out.values() else out
    return poly


def _poly(x: object) -> "GenPoly":
    """The operand rule: an int is a constant, and any other value that
    is not a GenPoly is NotImplemented, so Python raises TypeError."""
    if isinstance(x, GenPoly):
        return x
    return GenPoly.const(x) if isinstance(x, int) else NotImplemented


class GenPoly:
    """Sparse integer polynomial in named variables.  The checked
    constructor is __new__, so that it too returns what _sum builds."""

    __slots__ = ("terms",)
    terms: dict[Key, int]

    def __new__(cls, terms: Mapping[Key, int] | None = None) -> "GenPoly":
        return _sum((_make_key(k), index(c)) for k, c in (terms or {}).items())

    @classmethod
    def const(cls, c: int) -> "GenPoly":
        return _sum([((), index(c))])

    @classmethod
    def var(cls, name: str, power: int = 1) -> "GenPoly":
        return cls.monomial({name: power})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: int = 1) -> "GenPoly":
        return cls({tuple(exponents.items()): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if (other := _poly(other)) is NotImplemented:
            return other
        return self.terms == other.terms

    def __add__(self, other: "GenPoly | int") -> "GenPoly":
        if (other := _poly(other)) is NotImplemented:
            return other
        return _sum(chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __mul__(self, other: "GenPoly | int") -> "GenPoly":
        if (other := _poly(other)) is NotImplemented:
            return other
        return _sum(
            (_times(k1, k2), c1 * c2)
            for k1, c1 in self.terms.items()
            for k2, c2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GenPoly":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        return prod(repeat(self, exponent), start=GenPoly.const(1))

    def substitute(self, mapping: Mapping[str, "GenPoly | int"]) -> "GenPoly":
        """Replace variables by polynomials (or integers); others stay."""
        pairs: list[tuple[Key, int]] = []
        for k, c in self.terms.items():
            term = _sum([(tuple((v, e) for v, e in k if mapping.get(v) is None), c)])
            for v, e in k:
                rep = mapping.get(v)
                if rep is not None:
                    term = term * rep**e
            pairs += term.terms.items()
        return _sum(pairs)

    def variables(self) -> list[str]:
        seen = {v for k in self.terms for v, _ in k}
        return sorted(seen, key=_var_sort_key)

    def _by_degree(self) -> list[tuple[Key, int]]:
        return sorted(self.terms.items(), key=lambda kc: (sum(e for _, e in kc[0]), kc[0]))

    def as_terms(self) -> list[dict]:
        """JSON-ready term list, sorted by total degree then variables."""
        return [{"exponents": dict(k), "coeff": c} for k, c in self._by_degree()]

    def render(self) -> str:
        parts = []
        for k, c in self._by_degree():
            factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in k)
            prefix = {1: "", -1: "-"}.get(c, f"{c}*")
            parts.append(prefix + factors if factors else str(c))
        return " + ".join(parts).replace("+ -", "- ") or "0"

    def __repr__(self) -> str:
        return f"GenPoly({self.render()})"


# ---------------------------------------------------------------------------
# Statistic generating polynomials


def _tally(names: Sequence[str], counts: Mapping[tuple[int, ...], int]) -> GenPoly:
    """Sum over keys of count * names[0]^key[0] * names[1]^key[1] * ...

    The names are distinct, so distinct keys give distinct monomials and
    each key's count is its coefficient.  The keys are statistics, counts
    of at least 0, so each monomial's canonical key is built directly:
    its nonzero exponents, in the names' variable order.
    """
    order = sorted(range(len(names)), key=lambda i: _var_sort_key(names[i]))
    return _sum(
        (tuple([(names[i], k[i]) for i in order if k[i]]), count)
        for k, count in counts.items()
    )


def _type_names(n: int) -> list[str]:
    """q0, ..., q(n-1) and c, the variables of the type polynomials."""
    if n > MAX_TYPE_POLY_N:
        raise BudgetExceededError(
            f"type polynomials stop at n = {MAX_TYPE_POLY_N}, got {n}"
        )
    return [f"q{k}" for k in range(n)] + ["c"]


def _digits(code: int, base: int, count: int) -> list[int]:
    """The lowest count digits of code in base, the lowest first."""
    digits = []
    for _ in range(count):
        code, d = divmod(code, base)
        digits.append(d)
    return digits


def _parking_counts(n: int) -> Counter:
    """How many parking functions of length n have each key
    (t[0], ..., t[n-1], critic): the jump type t and the critical cars.

    Counted, not enumerated: the cars park one at a time, each with
    every preference 1..n, and the preference prefixes that leave the
    same parking state are merged, with their number.  A state is
    (taken, crit, code): taken has bit s-1 set when space s is taken;
    crit the same for the spaces of the cars that no later car has
    parked right of; code the jump type so far, t[k] the digit of
    (n+1)^k.  A prefix that parks a car past n is dropped, since no
    completion of it is a parking function.
    """
    _check_sweep_size(n, "parking-function")
    base = n + 1
    digit = [base**k for k in range(base)]
    prefs = range(1, n + 1)
    states = {(0, 0, 0): 1}
    for _ in prefs:
        after: dict[tuple[int, int, int], int] = {}
        for (taken, crit, code), count in states.items():
            for p in prefs:
                # The car parks at the first free space from p on.
                free = ~taken >> (p - 1)
                s = p + (free & -free).bit_length() - 1
                if s > n:
                    continue
                bit = 1 << (s - 1)
                # Every car parked left of s stops being critical.
                state = (taken | bit, (crit & -bit) | bit, code + digit[s - p])
                after[state] = after.get(state, 0) + count
        states = after
    counts: Counter = Counter()
    for (_, crit, code), count in states.items():
        counts[(*_digits(code, base, n), crit.bit_count())] += count
    return counts


def _forest_counts(n: int) -> Counter:
    """How many forests on n vertices have each key
    (t[0], ..., t[n-1], tree): the inversion type t and the components.

    Counted, not enumerated: a vertex's inversions depend only on the
    relative order of the labels in its subtree, so the forests on any k
    labels count as those on 1..k do.  The root of a tree on k labels,
    of rank j among them from 0, has j inversions, and its children form
    a forest on the other k-1.  A forest on k labels is the tree of its
    smallest label, on j labels, the j-1 others chosen in C(k-1, j-1)
    ways, beside a forest on the k-j left.  A key is coded as a number:
    t[i] the digit of (n+1)^i, and tree the digit of (n+1)^n.
    """
    _check_sweep_size(n, "forest")
    base = n + 1
    digit = [base**k for k in range(base)]
    mark = digit[-1]  # one component
    trees: list[dict[int, int]] = [{}]  # by size: type code -> count
    forests: list[dict[int, int]] = [{0: 1}]  # by size: key code -> count
    for k in range(1, base):
        tree: dict[int, int] = {}
        for code, count in forests[k - 1].items():
            code %= mark  # the children's components are not the tree's
            for j in range(k):
                key = code + digit[j]
                tree[key] = tree.get(key, 0) + count
        trees.append(tree)
        forest: dict[int, int] = {}
        for j in range(1, k + 1):
            ways = comb(k - 1, j - 1)
            rest = forests[k - j].items()
            for a, ca in trees[j].items():
                a += mark
                ca *= ways
                for b, cb in rest:
                    key = a + b
                    forest[key] = forest.get(key, 0) + ca * cb
        forests.append(forest)
    counts: Counter = Counter()
    for code, count in forests[n].items():
        counts[tuple(_digits(code, base, base))] = count
    return counts


def _c_and_u_counts(counts: Mapping[tuple[int, ...], int]) -> Counter:
    """Type counts folded to the exponents of c and u, (key[-1], key[0]):
    (critic, lucky) on the parking side, (tree, leaders) on the forest side.

    The lucky cars are those of jump 0 and the leaders the vertices of
    no inversion, so t[0] counts both.  At n = 0 the one key is (0,): its
    first entry is the mark count 0, which the t[0] count also is.
    """
    folded: Counter = Counter()
    for key, count in counts.items():
        folded[key[-1], key[0]] += count
    return folded


def inversion_type_poly(n: int) -> GenPoly:
    """Sum over forests of q0^t[0]*...*q(n-1)^t[n-1] * c^components."""
    names = _type_names(n)
    return _tally(names, _forest_counts(n))


def jump_type_poly(n: int) -> GenPoly:
    """Sum over parking functions of q0^t[0]*... * c^critical."""
    return _tally(_type_names(n), _parking_counts(n))


def collapse_type_poly(poly: GenPoly) -> GenPoly:
    """Specialize a type polynomial: q0 -> u and qk -> q^k for k >= 1."""
    mapping: dict[str, GenPoly] = {}
    for name in poly.variables():
        stem, k, _ = _var_sort_key(name)
        if stem == "q" and k >= 0:
            mapping[name] = GenPoly.var("u") if k == 0 else GenPoly.var("q", k)
    return poly.substitute(mapping)


def lucky_poly(n: int) -> GenPoly:
    """Sum over parking functions of u^lucky, counted over parking states."""
    counts: Counter = Counter()
    for (_, lucky), count in _c_and_u_counts(_parking_counts(n)).items():
        counts[lucky,] += count
    return _tally(["u"], counts)


def critic_lucky_poly(n: int) -> GenPoly:
    """Sum over parking functions of c^critic * u^lucky, counted over
    parking states."""
    return _tally(["c", "u"], _c_and_u_counts(_parking_counts(n)))


def lead_tree_poly(n: int) -> GenPoly:
    """Sum over forests of c^components * u^leaders.

    Must equal critic_lucky_poly(n) term by term, and therefore also the
    closed product; worth holding separately because it is computed from
    the forest side alone.
    """
    return _tally(["c", "u"], _c_and_u_counts(_forest_counts(n)))


def statistic_product(
    n: int, a: "GenPoly | int", b: "GenPoly | int", c: "GenPoly | int"
) -> GenPoly:
    """The closed product c * prod_{i=1}^{n-1} (i*a + (n-i)*b + c), n >= 1."""
    if n < 1:
        raise OutOfRangeError("the closed product needs n >= 1")
    factors = [c] + [a * i + b * (n - i) + c for i in range(1, n)]
    return prod(factors, start=GenPoly.const(1))


def lucky_product_formula(n: int) -> GenPoly:
    """u * prod_{i=1}^{n-1} (i + (n-i+1)u), the lucky distribution."""
    u = GenPoly.var("u")
    return statistic_product(n, 1, u, u)


def critic_lucky_product_formula(n: int) -> GenPoly:
    """c*u * prod_{i=1}^{n-1} (i + (n-i)u + c*u), the joint distribution."""
    u = GenPoly.var("u")
    c = GenPoly.var("c")
    return statistic_product(n, 1, u, c * u)
