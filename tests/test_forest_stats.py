"""Inversion statistics against a naive quadratic oracle."""

import importlib
import math
import random

import pytest
from hypothesis import given

from parkforest import (
    Forest,
    all_forests,
    canonical_order,
    forest_stats,
    postorder,
    sample_forest,
)
from parkforest.forest_stats import children_lists, inversion_counts

from support import DEEP_SHAPES, best_of, deep_forest, forests

stats_module = importlib.import_module("parkforest.forest_stats")


def naive_inversions(parent):
    """Count smaller strict descendants by walking up from every vertex."""
    n = len(parent)
    inv = [0] * (n + 1)
    for v in range(1, n + 1):
        u = parent[v - 1]
        while u:
            if u > v:
                inv[u] += 1
            u = parent[u - 1]
    return inv[1:]


def test_inversions_tiny_by_hand():
    # 3 -> 1 -> 2 (root 3): vertex 3 sees 1 and 2 below, vertex 1 sees none
    fs = forest_stats(Forest((3, 1, 0)))
    assert fs.inv_at == (0, 0, 2)
    assert fs.inv_total == 2
    assert fs.leaders == (1, 2)
    assert fs.tree == 1
    assert fs.inv_type == (2, 0, 1, 0)


def test_stats_exhaustive_against_oracle():
    for n in range(6):
        for f in all_forests(n):
            fs = forest_stats(f)
            assert list(fs.inv_at) == naive_inversions(f.parent)
            assert fs.inv_total == sum(fs.inv_at)
            assert fs.tree == f.parent.count(0)
            assert fs.leaders == tuple(
                v for v in range(1, n + 1) if fs.inv_at[v - 1] == 0
            )
            assert sum(fs.inv_type) == n
            assert fs.inv_type[n] == 0 if n else fs.inv_type == (0,)


@given(forests(max_n=40))
def test_stats_random_against_oracle(f):
    fs = forest_stats(f)
    assert list(fs.inv_at) == naive_inversions(f.parent)


@given(forests(max_n=24))
def test_type_vector_counts(f):
    fs = forest_stats(f)
    for k, t in enumerate(fs.inv_type):
        assert t == sum(1 for x in fs.inv_at if x == k)


def test_inversion_counts_on_tree_children():
    # same engine drives tree overlays; index 0 stays untouched
    f = Forest((0, 1, 1))
    inv = inversion_counts(children_lists(f.parent), [2, 3, 1])
    assert inv[1:] == [0, 0, 0]


def test_report_keys():
    rep = forest_stats(Forest((2, 0))).as_report()
    assert set(rep) == {"n", "invAt", "invTotal", "leaders", "lead", "tree", "tinv"}
    assert rep["n"] == 2 and rep["tinv"] == [1, 1, 0]


def test_tree_counts_extend_forest_counts():
    # Attaching the top label never disturbs the counts below it, and the
    # top itself dominates all n vertices.
    for parent in [(0,), (0, 0), (2, 0), (0, 1), (3, 1, 0), (0, 1, 1, 2, 0)]:
        f = Forest(parent)
        t = canonical_order(f)
        inv = inversion_counts(t.children, postorder(t))
        fs = forest_stats(f)
        assert inv[f.n + 1] == f.n
        assert tuple(inv[1 : f.n + 1]) == fs.inv_at
        assert sum(inv[1:]) == fs.inv_total + f.n


def test_every_leaf_is_a_leader():
    for n in range(6):
        for f in all_forests(n):
            fs = forest_stats(f)
            has_child = set(p for p in f.parent if p)
            leaves = {v for v in range(1, n + 1) if v not in has_child}
            assert leaves <= set(fs.leaders)
            assert fs.lead >= len(leaves)


def test_forest_stats_time_is_near_linear_on_a_path():
    # A lone child's sorted label list is taken as it is, so each vertex
    # of a path costs one bisection and one append.  Quadratic time
    # would grow 16-fold from n = 5,000 to n = 20,000.
    large, small = deep_forest("path_down", 20_000), deep_forest("path_down", 5_000)
    assert best_of(3, forest_stats, large) <= 8 * best_of(3, forest_stats, small)


def test_forest_stats_time_is_near_linear_on_a_caterpillar():
    # Each leg's label is inserted into the spine's list instead of
    # re-sorting it, so a caterpillar pays what path_up pays: one
    # insertion per vertex into one long list.  A re-sort of the spine's
    # list at every spine vertex costs about 7 times path_up at this n.
    n = 10_000
    caterpillar, path_up = deep_forest("caterpillar", n), deep_forest("path_up", n)
    assert best_of(2, forest_stats, caterpillar) <= 2 * best_of(2, forest_stats, path_up)


def test_low_ratios_match_the_oracle_exhaustively_and_on_deep_shapes():
    # At ratio 1 or 2 the insertion branch runs at every size, so the
    # small forests check it as well as the sort.
    for r in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats_module, "_R", r)
            for n in range(7):
                for f in all_forests(n):
                    assert list(forest_stats(f).inv_at) == naive_inversions(f.parent)
            for shape in DEEP_SHAPES:
                f = deep_forest(shape, 200)
                assert list(forest_stats(f).inv_at) == naive_inversions(f.parent)


@given(forests(max_n=40))
def test_low_ratios_match_the_oracle(f):
    expected = naive_inversions(f.parent)
    for r in (1, 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(stats_module, "_R", r)
            assert list(forest_stats(f).inv_at) == expected


def count_insertions(f):
    calls = []
    real = stats_module.insort

    def counting(a, x):
        calls.append(x)
        real(a, x)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats_module, "insort", counting)
        forest_stats(f)
    return len(calls)


def test_insertions_go_into_the_longest_list():
    # Every leg of a caterpillar joins the spine's list by one insertion
    # once that list is _R labels long; a label is inserted only into a
    # list _R times as long as its own side, so at most log_R n times.
    n = 4000
    legs = n - n // 2
    calls = count_insertions(deep_forest("caterpillar", n))
    assert legs - stats_module._R <= calls <= legs
    calls = count_insertions(sample_forest(n, random.Random(n)))
    assert calls <= n * math.log2(n)
