"""Exact sparse polynomials and the statistic generating functions.

GenPoly is a bare-bones multivariate polynomial over the integers:
a dict from monomial keys (sorted tuples of (variable, power) pairs) to
coefficients.  It exists so the package can state identities between
statistic distributions exactly, with no floating point anywhere.

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
"""

from __future__ import annotations

import re
from collections import Counter
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceededError, OutOfRangeError
from .exhaustive import all_forests, all_parking_functions
from .forest_stats import forest_stats
from .parking import parking_stats

# The type polynomials enumerate every object and compute the full type
# vector for each; past this size the sweep leaves desk scale.
MAX_TYPE_POLY_N = 6

Key = tuple[tuple[str, int], ...]

_VAR_RE = re.compile(r"^([A-Za-z]+)(\d*)$")


def _var_sort_key(name: str) -> tuple[str, int]:
    m = _VAR_RE.match(name)
    if not m:
        return (name, -1)
    return (m.group(1), int(m.group(2)) if m.group(2) else -1)


def _make_key(exponents: Mapping[str, int]) -> Key:
    items = [(v, e) for v, e in exponents.items() if e]
    items.sort(key=lambda ve: _var_sort_key(ve[0]))
    return tuple(items)


class GenPoly:
    """Sparse integer polynomial in named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Key, int] | None = None):
        self.terms: dict[Key, int] = {}
        if terms:
            for k, c in terms.items():
                if c:
                    self.terms[k] = c

    @classmethod
    def const(cls, c: int) -> "GenPoly":
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "GenPoly":
        if power < 0:
            raise ValueError("negative powers are not supported")
        if power == 0:
            return cls.const(1)
        return cls({((name, power),): 1})

    @classmethod
    def monomial(cls, exponents: Mapping[str, int], coeff: int = 1) -> "GenPoly":
        return cls({_make_key(exponents): coeff})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = GenPoly.const(other)
        if not isinstance(other, GenPoly):
            return NotImplemented
        return self.terms == other.terms

    def __add__(self, other: "GenPoly | int") -> "GenPoly":
        if isinstance(other, int):
            other = GenPoly.const(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        res = GenPoly()
        res.terms = out
        return res

    __radd__ = __add__

    def __mul__(self, other: "GenPoly | int") -> "GenPoly":
        if isinstance(other, int):
            res = GenPoly()
            if other:
                res.terms = {k: c * other for k, c in self.terms.items()}
            return res
        out: dict[Key, int] = {}
        for k1, c1 in self.terms.items():
            d1 = dict(k1)
            for k2, c2 in other.terms.items():
                merged = dict(d1)
                for v, e in k2:
                    merged[v] = merged.get(v, 0) + e
                k = _make_key(merged)
                s = out.get(k, 0) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        res = GenPoly()
        res.terms = out
        return res

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "GenPoly":
        if exponent < 0:
            raise ValueError("negative powers are not supported")
        result = GenPoly.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def substitute(self, mapping: Mapping[str, "GenPoly | int"]) -> "GenPoly":
        """Replace variables by polynomials (or integers); others stay."""
        total = GenPoly()
        for k, c in self.terms.items():
            term = GenPoly.const(c)
            for v, e in k:
                rep = mapping.get(v)
                if rep is None:
                    term = term * GenPoly.var(v, e)
                else:
                    term = term * (rep**e)
            total = total + term
        return total

    def variables(self) -> list[str]:
        seen = {v for k in self.terms for v, _ in k}
        return sorted(seen, key=_var_sort_key)

    def as_terms(self) -> list[dict]:
        """JSON-ready term list, sorted by total degree then variables."""
        rows = []
        for k, c in sorted(
            self.terms.items(),
            key=lambda kc: (sum(e for _, e in kc[0]), kc[0]),
        ):
            rows.append({"exponents": {v: e for v, e in k}, "coeff": c})
        return rows

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for row in self.as_terms():
            c = row["coeff"]
            factors = [
                name if e == 1 else f"{name}^{e}"
                for name, e in sorted(row["exponents"].items(), key=lambda ve: _var_sort_key(ve[0]))
            ]
            if not factors:
                parts.append(str(c))
            elif c == 1:
                parts.append("*".join(factors))
            elif c == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{c}*" + "*".join(factors))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"GenPoly({self.render()})"


# ---------------------------------------------------------------------------
# Statistic generating polynomials


def _tally(names: Sequence[str], keys: Iterable[tuple[int, ...]]) -> GenPoly:
    """Sum over keys of names[0]^key[0] * names[1]^key[1] * ...

    The names are distinct, so distinct keys give distinct monomials and
    each key's count is its coefficient.
    """
    counts = Counter(keys)
    return GenPoly({_make_key(dict(zip(names, k))): counts[k] for k in counts})


def _type_poly(n: int, keys: Iterable[tuple[int, ...]]) -> GenPoly:
    """q0^t[0] * ... * q(n-1)^t[n-1] * c^k over keys t[0], ..., t[n-1], k."""
    if n > MAX_TYPE_POLY_N:
        raise BudgetExceededError(
            f"type polynomials stop at n = {MAX_TYPE_POLY_N}, got {n}"
        )
    return _tally([f"q{k}" for k in range(n)] + ["c"], keys)


def inversion_type_poly(n: int) -> GenPoly:
    """Sum over forests of q0^t[0]*...*q(n-1)^t[n-1] * c^components."""
    stats = map(forest_stats, all_forests(n))
    return _type_poly(n, (fs.inv_type[:-1] + (fs.tree,) for fs in stats))


def jump_type_poly(n: int) -> GenPoly:
    """Sum over parking functions of q0^t[0]*... * c^critical."""
    stats = map(parking_stats, all_parking_functions(n))
    return _type_poly(n, (ps.jump_type[:-1] + (ps.critic,) for ps in stats))


def collapse_type_poly(poly: GenPoly) -> GenPoly:
    """Specialize a type polynomial: q0 -> u and qk -> q^k for k >= 1."""
    mapping: dict[str, GenPoly] = {}
    for name in poly.variables():
        m = _VAR_RE.match(name)
        if m and m.group(1) == "q" and m.group(2):
            k = int(m.group(2))
            mapping[name] = GenPoly.var("u") if k == 0 else GenPoly.var("q", k)
    return poly.substitute(mapping)


def lucky_poly(n: int) -> GenPoly:
    """Sum over parking functions of u^lucky, by enumeration."""
    stats = map(parking_stats, all_parking_functions(n))
    return _tally(["u"], ((ps.lucky,) for ps in stats))


def critic_lucky_poly(n: int) -> GenPoly:
    """Sum over parking functions of c^critic * u^lucky, by enumeration."""
    stats = map(parking_stats, all_parking_functions(n))
    return _tally(["c", "u"], ((ps.critic, ps.lucky) for ps in stats))


def lead_tree_poly(n: int) -> GenPoly:
    """Sum over forests of c^components * u^leaders, by enumeration.

    Must equal critic_lucky_poly(n) term by term, and therefore also the
    closed product; worth holding separately because it is computed from
    the forest side alone.
    """
    stats = map(forest_stats, all_forests(n))
    return _tally(["c", "u"], ((fs.tree, fs.lead) for fs in stats))


def statistic_product(
    n: int, a: "GenPoly | int", b: "GenPoly | int", c: "GenPoly | int"
) -> GenPoly:
    """The closed product c * prod_{i=1}^{n-1} (i*a + (n-i)*b + c), n >= 1."""
    if n < 1:
        raise OutOfRangeError("the closed product needs n >= 1")
    result = GenPoly.const(1) * c  # GenPoly's operators take ints as constants
    for i in range(1, n):
        result = result * (a * i + b * (n - i) + c)
    return result


def lucky_product_formula(n: int) -> GenPoly:
    """u * prod_{i=1}^{n-1} (i + (n-i+1)u), the lucky distribution."""
    u = GenPoly.var("u")
    return statistic_product(n, 1, u, u)


def critic_lucky_product_formula(n: int) -> GenPoly:
    """c*u * prod_{i=1}^{n-1} (i + (n-i)u + c*u), the joint distribution."""
    u = GenPoly.var("u")
    c = GenPoly.var("c")
    return statistic_product(n, 1, u, c * u)
