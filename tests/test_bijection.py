"""The two directions of the map, the relabelings, and their goldens."""

import itertools
import math
import random
from bisect import bisect_left

import pytest
from hypothesis import given, settings, strategies as st

from parkforest import (
    CycleError,
    Forest,
    InvalidInversionValueError,
    MalformedInputError,
    NotParkingFunctionError,
    OutOfRangeError,
    SelfParentError,
    all_forests,
    all_parking_functions,
    canonical_order,
    forest_count,
    forest_stats,
    forest_to_parking,
    inverse_relabel,
    inversion_counts,
    nearest_larger_right_tree,
    parking_to_forest,
    postorder,
    preorder,
    sample_forest,
    sample_parking_function,
    relabel_decreasing,
    sorted_parking_test,
    validate_forest,
    verify_bijection,
    verify_random,
)
from parkforest import bijection
from parkforest.bijection import map_trace, unmap_trace
from parkforest.forest import OrderedTree, _claim_walk, _layout

from support import (
    DEEP_SHAPES,
    best_of,
    deep_forest,
    forests,
    peak_bytes,
    run_bounded,
)

P14 = (10, 2, 6, 5, 7, 1, 13, 10, 4, 1, 14, 9, 11, 5)
WORD14 = (6, 2, 10, 9, 4, 3, 5, 14, 12, 1, 8, 13, 7, 11, 15)
JUMPROW14 = (0, 0, 2, 0, 0, 0, 0, 3, 0, 0, 1, 1, 0, 0, 14)


def test_forward_tiny_by_hand():
    assert forest_to_parking(Forest((0, 0)))[0] == (2, 1)
    assert forest_to_parking(Forest((2, 0)))[0] == (1, 1)
    assert forest_to_parking(Forest((0, 1)))[0] == (1, 2)
    assert forest_to_parking(Forest(()))[0] == ()
    assert forest_to_parking(Forest((0,)))[0] == (1,)


def test_backward_tiny_by_hand():
    assert parking_to_forest((2, 1))[0].parent == (0, 0)
    assert parking_to_forest((1, 1))[0].parent == (2, 0)
    assert parking_to_forest((1, 2))[0].parent == (0, 1)
    assert parking_to_forest(())[0].parent == ()


def test_backward_rejects_non_parking():
    # The map returns exactly on the words the independent sorted test
    # accepts, and rejects every other one as not a parking function,
    # never as out of range, even with a preference below 1 or far past n.
    words = [
        w for n in range(5) for w in itertools.product(range(-1, n + 3), repeat=n)
    ]
    words += [(0,), (-3, 1), (1, 10**12), (2, 2), (4, 3, 3, 1, 5)]
    for w in words:
        if sorted_parking_test(w):
            assert forest_to_parking(parking_to_forest(w)[0])[0] == w
        else:
            with pytest.raises(NotParkingFunctionError) as got:
                parking_to_forest(w)
            assert str(got.value) == f"{w} is not a parking function"


def test_label_map_shape():
    p, lmap = forest_to_parking(Forest((0, 1, 1)))
    assert sorted(lmap.to_car[1:]) == [1, 2, 3]
    for v in range(1, 4):
        assert lmap.to_vertex[lmap.car_of(v)] == v


def test_relabel_chain_by_hand():
    # chain 3 -> 1 -> 2 relabels to 3 -> 2 -> 1: the middle vertex takes
    # the larger of the two labels below the root
    f = Forest((3, 1, 0))
    t = canonical_order(f)
    lab = relabel_decreasing(t)
    assert lab[3] == 3 and lab[1] == 2 and lab[2] == 1 and lab[4] == 4


def test_relabel_result_is_decreasing():
    for f in all_forests(5):
        t = canonical_order(f)
        lab = relabel_decreasing(t)
        for v in range(1, t.root + 1):
            for c in t.children[v]:
                assert lab[c] < lab[v]
        assert sorted(lab[1:]) == list(range(1, t.root + 1))


def test_relabel_default_matches_explicit_preorder():
    for f in all_forests(5):
        t = canonical_order(f)
        assert relabel_decreasing(t) == relabel_decreasing(t, preorder(t))


def test_relabel_order_independent_small():
    rng = random.Random(42)
    for f in all_forests(4):
        t = canonical_order(f)
        base = relabel_decreasing(t)
        order = list(range(1, t.root + 1))
        for _ in range(10):
            rng.shuffle(order)
            assert relabel_decreasing(t, order) == base


def test_relabel_rejects_bad_order():
    t = canonical_order(Forest((0, 1)))
    with pytest.raises(MalformedInputError):
        relabel_decreasing(t, [1, 2])  # missing the root
    with pytest.raises(MalformedInputError):
        relabel_decreasing(t, [1, 1, 2, 3])


def test_inverse_relabel_chain_by_hand():
    # decreasing chain 3 -> 2 -> 1 with two inversions at the root and
    # none below recovers the chain 3 -> 1 -> 2
    t = nearest_larger_right_tree((1, 2, 3))
    orig = inverse_relabel(t, (0, 0, 0, 2))
    assert orig[3] == 3 and orig[2] == 1 and orig[1] == 2


def renamed(t, lab):
    """t with each vertex v renamed lab[v], for a decreasing lab: the tree
    the relabeled postorder word lists, children by decreasing label."""
    d = nearest_larger_right_tree([lab[v] for v in postorder(t)])
    for v in range(1, t.root + 1):
        p = t.parent[v]
        assert d.parent[lab[v]] == (lab[p] if p else 0)
        assert d.children[lab[v]] == tuple(lab[c] for c in t.children[v])
    return d


def test_inverse_relabel_undoes_relabel():
    rng = random.Random(99)
    for f in all_forests(5):
        t = canonical_order(f)
        lab = relabel_decreasing(t)
        d = renamed(t, lab)
        # targets live on the renamed vertices: new label j needs the
        # inversion count of the vertex that became j
        inv = inversion_counts(t.children, postorder(t))
        targets = [0] * (d.root + 1)
        for v in range(1, t.root + 1):
            targets[lab[v]] = inv[v]
        orig = inverse_relabel(d, targets)
        # the recovered labels undo the renaming
        assert all(orig[lab[v]] == v for v in range(1, t.root + 1))
        order = list(range(1, d.root + 1))
        rng.shuffle(order)
        assert inverse_relabel(d, targets, order) == orig


def test_inverse_relabel_rejects_bad_targets():
    t = nearest_larger_right_tree((1, 2, 3))
    with pytest.raises(InvalidInversionValueError):
        inverse_relabel(t, (0, 1, 0, 0))  # leaf cannot have an inversion
    with pytest.raises(InvalidInversionValueError):
        inverse_relabel(t, (0, 0, 0, 3))
    with pytest.raises(InvalidInversionValueError):
        inverse_relabel(t, (0, 2, 0, 2), order=[2, 1, 3])
    with pytest.raises(MalformedInputError):
        inverse_relabel(t, (0, 0, 0))
    # Two bad targets: leaf 2 comes before inner vertex 3 in reversed
    # postorder (5, 4, 2, 3, 1), so the default path names the leaf,
    # though its split never visits a leaf.
    t = nearest_larger_right_tree((1, 3, 2, 4, 5))
    with pytest.raises(InvalidInversionValueError) as got:
        inverse_relabel(t, (0, 0, 1, 5, 0, 0))
    assert str(got.value) == "vertex 2 wants rank 1 in a subtree of size 1"


def test_relabelings_of_the_empty_tree():
    t = nearest_larger_right_tree(())
    assert postorder(t) == preorder(t) == ()
    assert relabel_decreasing(t) == relabel_decreasing(t, ()) == (0,)
    assert relabel_decreasing(t, preorder(t)) == (0,)
    assert inverse_relabel(t, (0,)) == inverse_relabel(t, (0,), ()) == (0,)
    assert inverse_relabel(t, (0,), postorder(t)) == (0,)


def test_each_relabeling_lays_its_tree_out_once(monkeypatch):
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _layout(*args)

    monkeypatch.setattr(bijection, "_layout", counting)
    t = canonical_order(Forest((0, 1, 1, 3, 0)))
    order = preorder(t)
    targets = [0] * (t.root + 1)
    for relabel in (
        lambda: relabel_decreasing(t),
        lambda: relabel_decreasing(t, order),
        lambda: inverse_relabel(t, targets),
        lambda: inverse_relabel(t, targets, order),
    ):
        calls = 0
        relabel()
        assert calls == 1


# Each malformed tree and the error all four readers give, from one check
# run before any traversal.
MALFORMED_TREES = {
    # 2 and 3 list each other, so a stack pass from the root never ends.
    "cycle": (
        OrderedTree(3, (0, 3, 3, 0), ((), (), (3,), (2,))),
        "vertex 2 lists 3, outside 1..2",
    ),
    # A cycle apart from the root, which a pass from the root never sees.
    "cycle_apart": (
        OrderedTree(4, (0, 4, 3, 2, 0), ((), (), (3,), (2,), (1,))),
        "vertex 2 is not below root 4",
    ),
    "unlisted": (
        OrderedTree(2, (0, 2, 0), ((), (), ())),
        "vertex 1 is not below root 2",
    ),
    "listed_twice": (
        OrderedTree(3, (0, 3, 3, 0), ((), (), (), (1, 1, 2))),
        "vertex 3 lists 1 twice",
    ),
    "root_not_top": (
        OrderedTree(3, (0, 0, 1, 1), ((), (2, 3), (), ())),
        "root 3 has parent 1, not 0",
    ),
    "out_of_range": (
        OrderedTree(2, (0, 2, 0), ((), (), (1, 5))),
        "vertex 2 lists 5, outside 1..1",
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED_TREES))
def test_malformed_trees_are_rejected_by_every_reader(case):
    # In a bounded child process: a reader that loops on the tree fails
    # this test in seconds instead of stalling the suite.
    tree, message = MALFORMED_TREES[case]
    code = f"""
from parkforest import *
from parkforest.forest import OrderedTree
t = {tree!r}
for read in (postorder, preorder, relabel_decreasing,
             lambda t: inverse_relabel(t, [0] * (t.root + 1))):
    try:
        print("returned", read(t))
    except MalformedInputError as e:
        print(e)
"""
    run = run_bounded(code, 10, 256 * 2**20)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == [message] * 4


def test_nearest_larger_right_tree_n14_shape():
    t = nearest_larger_right_tree(WORD14)
    assert t.children[15] == (14, 13, 11)
    assert t.children[14] == (10, 9, 5)
    assert t.children[13] == (12, 8)
    assert t.children[10] == (6, 2)
    assert t.children[5] == (4, 3)
    assert t.children[8] == (1,)
    assert t.children[11] == (7,)
    assert t.parent[7] == 11 and t.parent[12] == 13


def test_nearest_larger_right_tree_rejects_bad_words():
    with pytest.raises(MalformedInputError):
        nearest_larger_right_tree((2, 1, 3, 3))
    with pytest.raises(MalformedInputError):
        nearest_larger_right_tree((3, 1, 2))  # must end in the maximum
    with pytest.raises(MalformedInputError):
        nearest_larger_right_tree((1, 2, 4))


def test_backward_parents_are_the_nearest_larger_right_tree():
    rng = random.Random(5)
    cases = [p for n in range(6) for p in all_parking_functions(n)]
    cases += [sample_parking_function(200, rng) for _ in range(50)]
    for p in cases:
        tr = unmap_trace(p)
        parents = [row["parentCar"] for row in tr["rows"]]
        assert parents == list(nearest_larger_right_tree(tr["word"]).parent[1:])


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_forest((0.5,)),
        lambda: parking_to_forest((1.9,)),
        lambda: nearest_larger_right_tree((1, 2.5, 3)),
        lambda: relabel_decreasing(
            canonical_order(Forest((0,))), (1, 2.0)
        ),
        # A float target at a leaf: the default path never pops a leaf's
        # target, so only a check at entry catches it.
        lambda: inverse_relabel(
            nearest_larger_right_tree((1, 3, 2, 4, 5)), (0, 0.0, 0, 0, 0, 0)
        ),
        lambda: inverse_relabel(
            nearest_larger_right_tree((1, 3, 2, 4, 5)),
            (0, 0.0, 0, 0, 0, 0),
            order=[5, 4, 3, 2, 1],
        ),
        # Forest does not validate: a float parent, a root's 0.0 included,
        # fails in the claim walk instead of being read as an integer.
        lambda: forest_to_parking(Forest((0.0,))),
        lambda: canonical_order(Forest((2, 0.0))),
        lambda: map_trace(Forest((0, 1.0))),
        # (n+1)^(n-1) is a float, not a count, at a float n.
        lambda: forest_count(2.5),
        lambda: forest_count(3.0),
        # The sweeps read n, jobs, count and seed as integers before any
        # work, so a whole float n fails there and not in the sweep.
        lambda: verify_bijection(2.0),
        lambda: verify_random(0.0, 2),
        lambda: verify_bijection(2, jobs=2.5),
        lambda: verify_random(3, 2.0),
        lambda: verify_random(3, 2, seed=1.5),
        lambda: verify_random(3, 2, seed="7"),
    ],
    ids=[
        "validate_forest",
        "parking_to_forest",
        "nearest_larger_right_tree",
        "order",
        "inverse_relabel_targets",
        "inverse_relabel_order_targets",
        "forest_to_parking_root",
        "canonical_order_root",
        "map_trace_parent",
        "forest_count",
        "forest_count_whole_float",
        "verify_bijection_n",
        "verify_random_n",
        "verify_bijection_jobs",
        "verify_random_count",
        "verify_random_seed",
        "verify_random_seed_str",
    ],
)
def test_non_integer_input_is_rejected_not_truncated(call):
    with pytest.raises(TypeError):
        call()


def test_golden_n14():
    f, lmap = parking_to_forest(P14)
    assert forest_to_parking(f)[0] == P14
    assert lmap.car_of(10) == 9
    assert lmap.car_of(8) == 13
    tr = unmap_trace(P14)
    assert tuple(tr["word"]) == WORD14
    assert tuple(tr["jumpRow"]) == JUMPROW14


def test_roundtrip_exhaustive_small():
    for n in range(6):
        seen = set()
        for f in all_forests(n):
            p, lmap = forest_to_parking(f)
            assert p not in seen
            seen.add(p)
            back, back_map = parking_to_forest(p)
            assert back.parent == f.parent
            assert back_map.to_car == lmap.to_car


@settings(deadline=None)
@given(forests(max_n=60))
def test_roundtrip_random(f):
    p, _ = forest_to_parking(f)
    assert parking_to_forest(p)[0].parent == f.parent


@settings(deadline=None)
@given(forests(max_n=60), st.randoms(use_true_random=False))
def test_relabel_order_independent_random(f, rng):
    t = canonical_order(f)
    base = relabel_decreasing(t)
    order = list(range(1, t.root + 1))
    rng.shuffle(order)
    assert relabel_decreasing(t, order) == base


def test_map_trace_structure():
    tr = map_trace(Forest((0, 1, 1)))
    assert tr["parking"] == [2, 1, 3]
    assert tr["superRoot"] == 4
    cars = [row["car"] for row in tr["rows"]]
    assert cars == [1, 2, 3, 4]
    root_row = tr["rows"][-1]
    assert root_row["preference"] == 1  # super-root information is dropped


def test_ten_thousand_random_roundtrips_at_n500():
    # Volume check far beyond enumeration reach; half the budget starts
    # from a forest, half from a parking function.
    n = 500
    rng = random.Random(424242)
    for _ in range(5000):
        f = sample_forest(n, rng)
        p, lmap = forest_to_parking(f)
        back, back_map = parking_to_forest(p)
        assert back.parent == f.parent
        assert back_map.to_car == lmap.to_car
    for _ in range(5000):
        p = sample_parking_function(n, rng)
        f, _ = parking_to_forest(p)
        again, _ = forest_to_parking(f)
        assert again == p


def test_relabel_order_independent_on_large_random_trees():
    rng = random.Random(31)
    for _ in range(5):
        f = sample_forest(100, rng)
        t = canonical_order(f)
        base = relabel_decreasing(t)
        for _ in range(20):
            order = list(range(1, t.root + 1))
            rng.shuffle(order)
            assert relabel_decreasing(t, order) == base


def _forward_overlay(f):
    """Recompute the forward map's intermediates from the reference
    drawing, inversion counts and relabeling."""
    t = canonical_order(f)
    po = postorder(t)
    m = f.n + 1
    pos = [0] * (m + 1)
    for i, v in enumerate(po, start=1):
        pos[v] = i
    inv = inversion_counts(t.children, po)
    lab = relabel_decreasing(t)
    word = [0] * m
    for v in range(1, m + 1):
        word[pos[v] - 1] = lab[v]
    return t, pos, inv, lab, word


def test_forward_overlay_invariants():
    rng = random.Random(11)
    cases = [f for n in range(6) for f in all_forests(n)]
    cases += [sample_forest(60, rng) for _ in range(10)]
    cases += [deep_forest(shape, 200) for shape in DEEP_SHAPES]
    cases += [sample_forest(300, rng) for _ in range(20)]
    for f in cases:
        t, pos, inv, lab, word = _forward_overlay(f)
        m = f.n + 1
        # The map's own drawing and overlay equal the reference ones.
        tr = map_trace(f)
        assert tr["canonicalRoots"] == list(t.children[m])
        assert tr["canonicalChildren"] == {
            str(v): list(t.children[v]) for v in range(1, m)
        }
        assert tr["postorder"] == list(postorder(t))
        for row in tr["rows"]:
            v = row["vertex"]
            assert row["position"] == pos[v]
            assert row["inversions"] == inv[v]
            assert row["car"] == lab[v]
        # So does the backward map's inverse relabeling.
        back = unmap_trace(tr["parking"])
        assert back["word"] == word
        jumps = [0] + [row["jump"] for row in back["rows"]]
        orig = inverse_relabel(nearest_larger_right_tree(back["word"]), jumps)
        assert [row["vertex"] for row in back["rows"]] == list(orig[1:])
        assert sorted(lab[1:]) == list(range(1, m + 1))
        assert word[-1] == m  # the top label closes the word
        for v in range(1, m + 1):
            p = t.parent[v]
            if p:
                assert lab[v] < lab[p]  # labels decrease away from the top
            assert pos[v] - inv[v] >= 1  # every emitted preference is positive
        # Reading the word back through the nearest-larger-to-the-right
        # rule recovers exactly the relabeled tree.
        rebuilt = nearest_larger_right_tree(word)
        for v in range(1, m + 1):
            p = t.parent[v]
            assert rebuilt.parent[lab[v]] == (lab[p] if p else 0)


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_relabel_default_matches_literal_on_deep_shapes(shape):
    t = canonical_order(deep_forest(shape, 200))
    lab = relabel_decreasing(t)
    assert lab == relabel_decreasing(t, preorder(t))
    d = renamed(t, lab)
    inv = inversion_counts(t.children, postorder(t))
    targets = [0] * (d.root + 1)
    for v in range(1, t.root + 1):
        targets[lab[v]] = inv[v]
    orig = inverse_relabel(d, targets)
    assert orig == inverse_relabel(d, targets, preorder(d))
    assert all(orig[lab[v]] == v for v in range(1, t.root + 1))


def comb(n):
    """A spine 1..n/2 from the root down, n even, where spine vertex i
    also carries the leaf n+1-i: each leaf's label is above the whole
    spine below it, so the leaf is drawn before the spine child."""
    k = n // 2
    return Forest(tuple(range(k)) + tuple(range(k, 0, -1)))


@pytest.mark.parametrize("n", [1000, 4000])
def test_split_bisects_at_most_n_log_n(monkeypatch, n):
    # Each vertex with children bisects its own name once, and each
    # entry of a lighter child's subtree once: the count depends only
    # on the shape.  An entry goes only into a subtree at most half as
    # large, so the count is at most n log2 n; handing the lists to any
    # child but the largest makes it quadratic on some of these shapes.
    # A vertex whose k >= 2 children are all leaves hands them the
    # labels left in order and bisects none of them: k - 1 fewer.
    calls = 0

    def counting(a, x):
        nonlocal calls
        calls += 1
        return bisect_left(a, x)

    monkeypatch.setattr(bijection, "bisect_left", counting)
    cases = [deep_forest(shape, n) for shape in DEEP_SHAPES]
    cases += [sample_forest(n, random.Random(n)), comb(n)]
    for f in cases:
        t = canonical_order(f)
        size = [1] * (n + 2)
        for v in postorder(t)[:-1]:
            size[t.parent[v]] += size[v]
        split = sum(
            size[v] - max(size[c] for c in ch) for v, ch in enumerate(t.children) if ch
        ) - sum(
            len(ch) - 1
            for v, ch in enumerate(t.children)
            if len(ch) >= 2 and len(ch) == size[v] - 1
        )
        calls = 0
        p = forest_to_parking(f)[0]
        assert calls == split <= n * math.log2(n)
        calls = 0
        assert parking_to_forest(p)[0] == f
        assert calls == split


def test_jumps_are_below_subtree_sizes():
    # What lets inverse_relabel's default path check targets while the
    # backward map does not: every jump is a rank its car can take.
    cases = [p for n in range(7) for p in all_parking_functions(n)]
    cases += [forest_to_parking(deep_forest(shape, 200))[0] for shape in DEEP_SHAPES]
    for p in cases:
        _, _, word, jumps, _, _ = bijection._backward(p)
        size = bijection._nearest_larger_right(word)[2]
        assert all(0 <= jumps[c] < size[c] for c in word), p


def test_nearest_larger_right_matches_its_definition():
    # Every permutation word of length 0-7 that ends in its maximum, and
    # the backward words of the deep shapes: each entry hangs on the
    # first larger entry to its right, its children come by increasing
    # label, and its size counts the entries whose parent chain meets it.
    words = [()] + [
        (*w, m)
        for m in range(1, 8)
        for w in itertools.permutations(range(1, m))
    ]
    words += [
        bijection._backward(forest_to_parking(deep_forest(shape, 200))[0])[2]
        for shape in DEEP_SHAPES
    ]
    for word in words:
        m = len(word)
        parent, children, size = bijection._nearest_larger_right(word)
        want = [0] * (m + 1)
        for i, car in enumerate(word):
            want[car] = next((x for x in word[i + 1 :] if x > car), 0)
        count = [0] * (m + 1)
        for u in range(1, m + 1):
            while u:
                count[u] += 1
                u = want[u]
        assert len(parent) == len(children) == len(size) == m + 1
        assert parent[1:] == want[1:], word
        for v in range(1, m + 1):
            kids = tuple(u for u in range(1, m + 1) if want[u] == v)
            assert (tuple(children[v]) if kids else children[v]) == kids, word
        assert size[1:] == count[1:], word


def _brute_drawing(parent):
    """The canonical drawing from its definition: sizes and maxima from
    every parent chain, child lists sorted by maximum, and postorder."""
    m = len(parent) + 1
    up = (0, *(p or m for p in parent), 0)
    size = [1] * (m + 1)
    top = list(range(m + 1))
    children = [[] for _ in range(m + 1)]
    for v in range(1, m):
        children[up[v]].append(v)
        u = up[v]
        while u:
            size[u] += 1
            top[u] = max(top[u], v)
            u = up[u]
    for ch in children:
        ch.sort(key=top.__getitem__, reverse=True)
    po = postorder(OrderedTree(m, up, tuple(map(tuple, children))))
    pos = [0] * (m + 1)
    for i, v in enumerate(po, start=1):
        pos[v] = i
    return children, size, pos, list(po)


def test_canonical_drawing_matches_brute_force():
    # The claim walk and the layout of the drawn tree, as the forward map
    # reads them, and the tree canonical_order wraps from the same walk.
    cases = [f for n in range(7) for f in all_forests(n)]
    cases += [deep_forest(shape, 200) for shape in DEEP_SHAPES]
    for f in cases:
        m = f.n + 1
        children, size, pos, po = _brute_drawing(f.parent)
        up, got = _claim_walk(f.parent)
        assert got == children, f
        assert up == [0, *(p or m for p in f.parent), 0], f
        got_po, got_size, got_pos = _layout(m, got, up)
        assert got_po == po, f
        assert got_size[1:] == size[1:] and got_pos[1:] == pos[1:], f
        t = canonical_order(f)
        assert t == OrderedTree(m, tuple(up), tuple(map(tuple, children))), f


@pytest.mark.parametrize(
    "parent, error",
    [
        ((2, 1), CycleError),
        ((2, 3, 1, 0), CycleError),
        ((1,), SelfParentError),
        ((0, 3, 3), SelfParentError),
        ((-1, 0), OutOfRangeError),
        ((0, 3), OutOfRangeError),
        ((5, 0), OutOfRangeError),
        ((2, 3, 2), CycleError),  # a tail into a cycle
        ((0, 3, 4, 2), CycleError),  # a 3-cycle beside a root
    ],
)
def test_forward_rejects_what_validate_forest_rejects(parent, error):
    # Forest does not validate.  The map, the drawing and the inversion
    # oracle raise the error validate_forest raises, instead of taking a
    # bad parent for a root, failing on an index, or returning a sequence
    # that does not park.
    with pytest.raises(error) as expected:
        validate_forest(parent)
    for fn in (forest_to_parking, map_trace, forest_stats, canonical_order):
        with pytest.raises(error) as got:
            fn(Forest(parent))
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("shape", ["path_up", "path_down", "caterpillar", "broom"])
def test_map_memory_is_linear_on_deep_shapes(shape):
    # Counts bytes, not time.  Quadratic memory would grow 16-fold from
    # n = 1000 to n = 4000; linear memory grows 4-fold.
    small, large = deep_forest(shape, 1000), deep_forest(shape, 4000)
    assert peak_bytes(forest_to_parking, large) <= 6 * peak_bytes(forest_to_parking, small)
    p_small, p_large = forest_to_parking(small)[0], forest_to_parking(large)[0]
    assert peak_bytes(parking_to_forest, p_large) <= 6 * peak_bytes(parking_to_forest, p_small)


def test_backward_time_is_near_linear_on_a_star():
    # A star's centre hands its leaves the labels left in order, so its
    # backward map pays what path_down's pays: a few passes over the
    # cars.  Bisecting each leaf out of the centre's lists shifts them
    # once per leaf, 5-8 times path_down's time at this n.  The word of
    # (n, ..., 1) hangs every car on the last one: a star too.
    n = 50_000
    star = forest_to_parking(deep_forest("star", n))[0]
    path_down = forest_to_parking(deep_forest("path_down", n))[0]
    bound = 2 * best_of(2, parking_to_forest, path_down)
    assert best_of(2, parking_to_forest, star) <= bound
    assert best_of(2, parking_to_forest, tuple(range(n, 0, -1))) <= bound
