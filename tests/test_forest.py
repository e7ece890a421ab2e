"""Forest construction, validation, canonical order, super-root."""

import enum

import pytest
from hypothesis import given

from parkforest import (
    CycleError,
    Forest,
    OutOfRangeError,
    SelfParentError,
    all_forests,
    canonical_order,
    postorder,
    preorder,
    validate_forest,
)
from parkforest.bijection import map_trace
from parkforest.forest_stats import children_lists

from support import forests


def test_validate_accepts_simple_cases():
    assert validate_forest([]).parent == ()
    assert validate_forest([0]).parent == (0,)
    assert validate_forest([0, 1, 1]).parent == (0, 1, 1)
    assert validate_forest([2, 0]).parent == (2, 0)


def test_validate_rejects_self_parent():
    with pytest.raises(SelfParentError):
        validate_forest([1])
    with pytest.raises(SelfParentError):
        validate_forest([0, 2])


def test_validate_rejects_out_of_range():
    with pytest.raises(OutOfRangeError):
        validate_forest([3])
    with pytest.raises(OutOfRangeError):
        validate_forest([-1])


def test_validate_rejects_cycles():
    with pytest.raises(CycleError):
        validate_forest([2, 1])
    with pytest.raises(CycleError):
        validate_forest([2, 3, 1])
    with pytest.raises(CycleError):
        validate_forest([0, 3, 4, 2])  # 2 -> 3 -> 4 -> 2


def test_children_lists_roots_under_zero():
    ch = children_lists((0, 1, 1, 0))
    assert ch[0] == [1, 4]
    assert ch[1] == [2, 3]
    assert ch[2] == [] and ch[3] == [] and ch[4] == []


def test_canonical_order_sorts_by_subtree_maximum():
    # two roots 1 and 2; 1 carries the larger subtree via child 3
    t = canonical_order(validate_forest([0, 0, 1]))
    assert t.children[t.root] == (1, 2)
    # root list flips when the large subtree hangs under 2 instead
    t = canonical_order(validate_forest([0, 0, 2]))
    assert t.children[t.root] == (2, 1)


def test_canonical_order_children():
    # children of 1: subtrees max(4)=4 via 2, max(3)=3
    t = canonical_order(validate_forest([0, 1, 1, 2]))
    assert t.children[1] == (2, 3)
    t = canonical_order(validate_forest([0, 1, 1, 3]))
    assert t.children[1] == (3, 2)


def assert_drawn(f, t):
    """t is f under the super-root n+1, which adopts the roots; each child
    list holds the children of f, in some order."""
    m = f.n + 1
    assert t.root == m
    assert t.parent == (0,) + tuple(p or m for p in f.parent) + (0,)
    ch = children_lists(f.parent)
    assert t.children[0] == ()
    assert [sorted(c) for c in t.children[1:]] == ch[1:] + [ch[0]]


def test_canonical_order_draws_under_super_root_small():
    for f in all_forests(4):
        assert_drawn(f, canonical_order(f))


def test_postorder_and_preorder_cover_once():
    f = validate_forest([0, 1, 1, 2, 0])
    t = canonical_order(f)
    po, pre = postorder(t), preorder(t)
    assert sorted(po) == sorted(pre) == list(range(1, 7))
    assert po[-1] == t.root and pre[0] == t.root


def test_postorder_children_before_parents():
    for f in all_forests(4):
        t = canonical_order(f)
        seen = set()
        for v in postorder(t):
            assert all(c in seen for c in t.children[v])
            seen.add(v)


def test_postorder_respects_drawing_order():
    # canonical drawing: the left subtree (larger maximum) comes first
    f = validate_forest([0, 0, 2])  # roots ordered 2, 1
    t = canonical_order(f)
    assert postorder(t) == (3, 2, 1, 4)


def test_canonical_order_reads_integer_like_parents_as_ints():
    class V(enum.IntEnum):
        ONE = 1

    t = canonical_order(Forest((0, True, V.ONE)))
    plain = canonical_order(Forest((0, 1, 1)))
    assert repr(t) == repr(plain)
    entries = [*t.parent, *(c for ch in t.children for c in ch), *postorder(t)]
    entries += preorder(t)
    assert all(type(v) is int for v in entries)


@given(forests())
def test_validate_accepts_generated(f):
    assert validate_forest(f.parent).parent == f.parent


@given(forests())
def test_canonical_order_draws_under_super_root(f):
    assert_drawn(f, canonical_order(f))


@given(forests())
def test_canonical_children_strictly_decreasing(f):
    t = canonical_order(f)
    # the largest label in each subtree: every vertex raises its ancestors
    submax = list(range(f.n + 1))
    for v in range(1, f.n + 1):
        u = f.parent[v - 1]
        while u:
            submax[u] = max(submax[u], v)
            u = f.parent[u - 1]
    for lst in t.children:
        maxima = [submax[c] for c in lst]
        assert maxima == sorted(maxima, reverse=True)
        assert len(set(maxima)) == len(maxima)
    # The forward map draws the same way, checked here against the brute
    # force maxima rather than against canonical_order.
    def drawn(u):
        kids = [v for v in range(1, f.n + 1) if f.parent[v - 1] == u]
        return sorted(kids, key=submax.__getitem__, reverse=True)

    tr = map_trace(f)
    assert tr["canonicalRoots"] == drawn(0)
    assert tr["canonicalChildren"] == {str(v): drawn(v) for v in range(1, f.n + 1)}
