"""The bijection between labeled forests and parking functions.

Forward direction, forest to parking function:

  1. draw the forest canonically under the super-root n+1;
  2. overlay postorder positions and inversion counts on the tree;
  3. relabel decreasingly (every label beats all labels below it) by
     the split below, every vertex taking the top rank of its subtree,
     remembering which vertex became which label;
  4. the car j = new label of v prefers position(v) - inversions(v).
     The super-root always yields preference 1 and is dropped.

Backward direction, parking function to forest:

  1. append a final car preferring space 1 and park all n+1 cars; that
     car ends on space n+1 exactly when the input is a parking function;
  2. read off the space word and each car's jump;
  3. rebuild the decreasingly labeled tree: each car's parent is the
     nearest larger car to its right in the word;
  4. undo the relabeling by the same split, each vertex taking the
     (jump+1)-th smallest label of its subtree;
  5. strip the super-root.

Both relabelings process each vertex once, in any order, with the same
result (by default in the split below, largest child first): along any
ancestors-first sweep, the current labels of the strict descendants
of the vertex in hand keep the relative order of their names.
relabel_decreasing is inverse_relabel with every vertex asking for the
top rank (size - 1), and one top-down split does both.  Each vertex
holds two aligned sorted lists, the names in its subtree and the labels
they hold; it pops its label by rank, drops its name (at its inversion
count), bisects the lighter children's entries out and hands the lists
to its largest child, the vertex it sweeps next.  One loop over the
children keeps the largest so far and bisects out the lighter of it and
each next child.  The lighter subtrees wait on a stack with lists of
their own.  An only child takes the lists with nothing bisected, and
children that are all leaves take the labels left in name order.  An
entry is bisected out only into a subtree at most half as large:
O(n log n) interpreter steps in all.  The list shifts inside the pops
run at C speed but can cost O(n) per vertex, so O(n^2) machine words on
a path.

Forward, the map relabels the canonical drawing, made as
canonical_order makes it: the child lists come out in canonical order
with no sort, and a cycle in the parent sequence is found while
drawing.  One stack pass gives the postorder of the drawing, and one
pass over that the subtree sizes and positions; the map then splits.
The public relabelings check a given tree by one pass that also yields
its postorder, and lay out and split that, or run the literal reference
path when given an order.
Backward, the space word lists the nearest-larger-right tree in
postorder: one stack pass gives parent links and subtree sizes, and the
word read backwards is the top-down order of the split.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Sequence
from operator import index, sub

from .errors import (
    InvalidInversionValueError,
    MalformedInputError,
    NotParkingFunctionError,
)
from .forest import Forest, OrderedTree, _check_tree, _claim_walk, _layout, _postorder
from .forest_stats import subtree_label_lists
from .parking import _park

# Hot-path records skip the named tuple's Python __new__: 130-190 ns each.
_new = tuple.__new__


class LabelMap(namedtuple("LabelMap", "to_car to_vertex")):
    """Which car index corresponds to which forest vertex label.

    to_car[v] is the car matching vertex v; slot 0 is an unused sentinel.
    """

    __slots__ = ()

    def car_of(self, v: int) -> int:
        return self.to_car[v]

    def as_report(self) -> dict:
        return {
            "vertexToCar": list(self.to_car[1:]),
            "carToVertex": list(self.to_vertex[1:]),
        }


def _as_permutation(seq: Sequence[int], m: int) -> list[int] | None:
    """seq as a list of ints if it is a permutation of 1..m, else None."""
    seq = list(map(index, seq))
    return seq if sorted(seq) == list(range(1, m + 1)) else None


def _relabel(
    children: Sequence[Sequence[int]],
    size: Sequence[int],
    end: Sequence[int],
    po: Sequence[int],
    targets: Sequence[int],
) -> tuple[list[int], list[int]]:
    """Both relabelings in one top-down pass, splitting small off large.

    Each vertex v gets the (targets[v]+1)-th smallest label of its
    subtree, as in inverse_relabel; -1 asks for the top, as in the
    forward map.  The targets are not checked.  po is a
    postorder ending in the root, so the subtree of v is
    po[end[v] - size[v]:end[v]].  Each vertex hands its lists to its
    largest child, the vertex swept next.  One loop over the children
    finds it: it holds the largest child so far (the first, on a tie)
    and splits off whichever of it and the next child is lighter.  A
    leaf split off gets its label at once; a larger subtree waits on a
    stack with lists of its own.  Two shortcuts come first: an only
    child is next with nothing split off, and when every child is a
    leaf, the lists hold just the children, which take the labels in
    order.  Returns (labels, rank): the label of each vertex, and the
    number of smaller vertices below each.
    """
    m = len(po)
    out = list(range(m + 1))
    rank = [0] * (m + 1)
    stack = [(po[-1], out[1:], out[1:])] if po else []
    while stack:
        v, names, labels = stack.pop()
        while size[v] > 1:
            out[v] = labels.pop(targets[v])
            rank[v] = i = bisect_left(names, v)
            del names[i]
            ch = children[v]
            k = len(ch)
            if k == 1:
                v = ch[0]
                continue
            if k == size[v] - 1:  # all leaves: names holds just them
                for c, lab in zip(names, labels):
                    out[c] = lab
                break
            big = ch[0]
            for c in ch[1:]:
                if size[big] < size[c]:
                    big, c = c, big
                if size[c] == 1:
                    i = bisect_left(names, c)
                    del names[i]
                    out[c] = labels.pop(i)
                else:
                    sub = sorted(po[end[c] - size[c] : end[c]])
                    mine = []
                    for u in sub:
                        i = bisect_left(names, u)
                        del names[i]
                        mine.append(labels.pop(i))
                    stack.append((c, sub, mine))
            v = big
        else:
            out[v] = labels[0]  # a leaf, with one label left
    return out, rank


def relabel_decreasing(
    t: OrderedTree, order: Sequence[int] | None = None
) -> tuple[int, ...]:
    """New label per vertex making every subtree top-heavy.

    Processing a vertex v hands v the largest current label in its
    subtree and redistributes the remaining subtree labels over the
    strict descendants without disturbing their relative order.  The
    result does not depend on the processing order.  It is
    inverse_relabel at the top rank: each vertex v asks for rank
    size(v) - 1 of its subtree, on the default path and with an order.
    A malformed tree raises MalformedInputError.

    Returns labels with labels[v] the new label of vertex v (labels[0]
    is a sentinel 0).
    """
    return _relabel_tree(t, None, order)


def inverse_relabel(
    t: OrderedTree, targets: Sequence[int], order: Sequence[int] | None = None
) -> tuple[int, ...]:
    """Undo relabel_decreasing given each vertex's inversion count.

    Processing vertex v hands it the (targets[v]+1)-th smallest current
    label in its subtree, so exactly targets[v] strict descendants of v
    end up below it; the remaining labels are redistributed over the
    strict descendants order-preservingly.  Order independent.  The
    checks run in turn: the tree, the length of targets, each target
    read as an integer (TypeError if it is not), a processing order if
    given, and then each target's rank, in reversed postorder.  All but
    the TypeError raise an InputError.

    Returns labels with labels[v] the recovered label of vertex v.
    """
    return _relabel_tree(t, targets, order)


def _relabel_tree(
    t: OrderedTree, targets: Sequence[int] | None, order: Sequence[int] | None
) -> tuple[int, ...]:
    """Both public relabelings: check t, lay out the postorder the check
    returns, and relabel by one split or, with an order, the literal
    reference path.  targets None asks for the top rank at every vertex."""
    po = _check_tree(t)
    m = t.root
    if targets is not None:
        if len(targets) != m + 1:
            raise MalformedInputError(
                f"need one target per vertex plus sentinel, got {len(targets)} for {m}"
            )
        targets = list(map(index, targets))
    if order is not None:
        order = _as_permutation(order, m)
        if order is None:
            raise MalformedInputError(
                f"processing order must visit each of 1..{m} exactly once"
            )
    size, end = _layout(po, t.parent)
    if targets is None:
        targets = [-1] * (m + 1)
    else:
        for v in reversed(po):
            want = targets[v]
            if not 0 <= want < size[v]:
                raise InvalidInversionValueError(
                    f"vertex {v} wants rank {want} in a subtree of size {size[v]}"
                )
    if order is None:
        return tuple(_relabel(t.children, size, end, po, targets)[0])
    # Reference path: literal order-preserving reassignment at each step.
    cur = list(range(m + 1))
    labels = subtree_label_lists(t.children, po)
    for v in order:
        sub = labels[v]
        i = bisect_left(sub, v)
        desc = sub[:i] + sub[i + 1 :]
        pool = sorted(cur[u] for u in sub)
        by_current = sorted(desc, key=cur.__getitem__)
        cur[v] = pool.pop(targets[v])
        for u, val in zip(by_current, pool):
            cur[u] = val
    return tuple(cur)


def _forward(f: Forest) -> tuple:
    """The forward map with its intermediates, on the tree with super-root n+1.

    Returns (prefs, label map, children, po, pos, inv, newlab): po the
    postorder, and each other list indexed by vertex 1..n+1: children[v]
    in canonical order, pos[v] the postorder position, inv[v] the
    inversion count, newlab[v] the new label (the car of v).
    """
    up, children = _claim_walk(f.parent)
    m = len(up) - 1
    po = _postorder(m, children)
    size, pos = _layout(po, up)
    newlab, inv = _relabel(children, size, pos, po, [-1] * (m + 1))
    # The super-root keeps label n+1 and, last in postorder with n
    # inversions, would prefer space 1; that car carries no information.
    prefs = [0] * (m - 1)
    to_vertex = [0] * m
    for v in range(1, m):
        j = newlab[v]
        prefs[j - 1] = pos[v] - inv[v]
        to_vertex[j] = v
    lmap = _new(LabelMap, (tuple(newlab[:m]), tuple(to_vertex)))
    return tuple(prefs), lmap, children, po, pos, inv, newlab


def forest_to_parking(f: Forest) -> tuple[tuple[int, ...], LabelMap]:
    """Map a forest to its parking function and the label correspondence."""
    return _forward(f)[:2]


def _nearest_larger_right(word: Sequence[int]) -> tuple:
    """Parent links, children and subtree sizes of the nearest-larger-right
    tree of a permutation word that ends in its maximum.

    The word lists that tree in postorder, so one stack pass builds it:
    each entry adopts the smaller entries it pops.  The stack starts with
    the sentinel m + 1, above every entry, so it is never popped and
    never empty.  children[v] lists the children of v by increasing
    label, () for a leaf.  The word is not checked.
    """
    m = len(word)
    parent = [0] * (m + 1)
    size = [1] * (m + 1)
    children: list = [()] * (m + 1)
    stack = [m + 1]
    for car in word:
        if stack[-1] < car:
            kids = []
            while stack[-1] < car:
                c = stack.pop()
                parent[c] = car
                kids.append(c)
                size[car] += size[c]
            children[car] = kids
        stack.append(car)
    return parent, children, size


def nearest_larger_right_tree(word: Sequence[int]) -> OrderedTree:
    """Tree on a permutation word: each entry hangs on the nearest larger
    entry to its right, so the last entry must be the maximum.

    Children are drawn left to right by decreasing label, which is the
    canonical order for a decreasingly labeled tree.
    """
    m = len(word)
    word = _as_permutation(word, m)
    if word is None or (m and word[-1] != m):
        raise MalformedInputError(
            "word must be a permutation of 1..m ending in its maximum"
        )
    parent, children, _ = _nearest_larger_right(word)
    return OrderedTree(m, tuple(parent), tuple(tuple(ch[::-1]) for ch in children))


def _backward(p: Sequence[int]) -> tuple:
    """The backward map with its intermediates.

    Returns (prefs, slots, word, jumps, tparent, orig): prefs with the
    final car n+1 appended, where each car parked, the space word, the
    jump per car (index 0 a sentinel), the parent car in the
    nearest-larger-right tree and the recovered vertex of each car.
    A sequence that is not a parking function, one with a preference
    below 1 included, raises NotParkingFunctionError: parking decides it.
    """
    p = tuple(map(index, p))
    m = len(p) + 1
    prefs = p + (1,)
    # The appended car prefers space 1, so it parks on space n+1 exactly
    # when cars 1..n fill spaces 1..n: when p is a parking function.  No
    # parking function has a preference below 1; the others, converted
    # once above, go straight to park's loop.
    if min(prefs) < 1 or (slots := _park(prefs))[-1] != m:
        raise NotParkingFunctionError(f"{p} is not a parking function")
    word = [0] * m
    for c, s in enumerate(slots, start=1):
        word[s - 1] = c
    jumps = [0, *map(sub, slots, prefs)]
    tparent, children, size = _nearest_larger_right(word)
    # Each jump is a rank _relabel can give: a car that jumped from space
    # q to space s passed q..s-1, all held by earlier, so smaller, cars.
    # No entry between any of them and the car is larger, so all of them
    # hang below it: jumps[c] < size[c].  A car's space is its position
    # in the word.
    orig = _relabel(children, size, [0, *slots], word, jumps)[0]
    return prefs, slots, word, jumps, tparent, orig


def _forest_of(tparent: Sequence[int], orig: Sequence[int]) -> tuple[Forest, LabelMap]:
    """Strip the super-root off the recovered tree, back to vertex labels."""
    m = len(orig) - 1
    up = [*orig[:m], 0]  # the vertex of each parent car; the super-root's is 0
    parent = [0] * (m - 1)
    to_car = [0] * m
    for c in range(1, m):
        v = orig[c]
        parent[v - 1] = up[tparent[c]]
        to_car[v] = c
    lmap = _new(LabelMap, (tuple(to_car), tuple(orig[:m])))
    return _new(Forest, (tuple(parent),)), lmap


def parking_to_forest(p: Sequence[int]) -> tuple[Forest, LabelMap]:
    """Map a parking function back to its forest; inverse of forest_to_parking."""
    *_, tparent, orig = _backward(p)
    return _forest_of(tparent, orig)


# ---------------------------------------------------------------------------
# Step-by-step traces for the command line


def map_trace(f: Forest) -> dict:
    """Every intermediate quantity of the forward map, JSON-ready."""
    n = f.n
    prefs, lmap, children, po, pos, inv, newlab = _forward(f)
    rows = [
        {
            "vertex": v,
            "position": pos[v],
            "inversions": inv[v],
            "car": newlab[v],
            "preference": pos[v] - inv[v],
        }
        for v in (*lmap.to_vertex[1:], n + 1)
    ]
    return {
        "n": n,
        "parent": list(f.parent),
        "canonicalRoots": list(children[n + 1]),
        "canonicalChildren": {str(v): list(children[v]) for v in range(1, n + 1)},
        "superRoot": n + 1,
        "postorder": po,
        "rows": rows,
        "parking": list(prefs),
        "labelMap": lmap.as_report(),
    }


def unmap_trace(p: Sequence[int]) -> dict:
    """Every intermediate quantity of the backward map, JSON-ready."""
    prefs, slots, word, jumps, tparent, orig = _backward(p)
    f, lmap = _forest_of(tparent, orig)
    m = len(prefs)
    rows = [
        {
            "car": c,
            "preference": prefs[c - 1],
            "slot": slots[c - 1],
            "jump": jumps[c],
            "parentCar": tparent[c],
            "vertex": orig[c],
        }
        for c in range(1, m + 1)
    ]
    return {
        "n": m - 1,
        "parking": list(prefs[:-1]),
        "appendedCar": m,
        "slots": list(slots),
        "word": word,
        "jumpRow": [jumps[c] for c in word],  # by space, under the word
        "rows": rows,
        "parent": list(f.parent),
        "labelMap": lmap.as_report(),
    }
