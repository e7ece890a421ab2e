"""Rooted labeled forests and their canonical plane drawing.

A forest on n vertices labeled 1..n is stored as a parent sequence:
parent[v-1] is the parent of vertex v, with 0 standing for "v is a root".
Every function here treats vertex labels as significant.  The canonical
drawing hangs the forest under a super-root n+1, which adopts the roots,
and draws every child list by decreasing subtree maximum; that order is
what makes the forest-to-parking-function map injective.  One function,
_claim_walk, draws it for both of its callers: canonical_order wraps the
drawing into an OrderedTree, and the forward map relabels it.  It
sorts nothing: walks up from u = n, ..., 1 reach each vertex first from
the maximum of its subtree, so each child joins its parent's list in
canonical order, and a walk that meets itself has found a cycle.  One
function, _layout, reads subtree sizes and positions off a postorder:
the forward map gives it _postorder's pass over the tree it drew, and
the relabelings the order _check_tree returns, which postorder returns
too, so each checked reader but preorder walks its tree once.  The
inversion oracle, forest_stats, builds its own child lists with
upward_children, so it shares no traversal with the drawing.

Forest and OrderedTree subclass collections.namedtuple, with empty __slots__.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from operator import index

from .errors import (
    CycleError,
    MalformedInputError,
    OutOfRangeError,
    SelfParentError,
)


class Forest(namedtuple("Forest", "parent")):
    """A rooted labeled forest given by its parent sequence.

    parent[v-1] is the parent of vertex v (1-indexed labels), 0 for roots.
    Building one checks nothing.  The maps, canonical_order and
    forest_stats check the parent sequence they are given and raise
    validate_forest's error on a bad one.
    A Forest is a 1-tuple: len(f) counts its one field, f.n its vertices.
    """

    __slots__ = ()

    @property
    def n(self) -> int:
        return len(self.parent)


class OrderedTree(namedtuple("OrderedTree", "root parent children")):
    """A single plane tree on vertices 1..root, rooted at the top label.

    parent[root] is 0 and parent[0] is an unused sentinel.  children[v]
    lists the children of v left to right; children[0] is empty.
    Building one checks nothing.  postorder, preorder and the two
    relabelings check the tree they are given with _check_tree and raise
    MalformedInputError on a bad one.
    """

    __slots__ = ()


def validate_forest(parent: Sequence[int]) -> Forest:
    """Check a parent sequence and wrap it as a Forest.

    Raises OutOfRangeError, SelfParentError, or CycleError on bad input.
    """
    parent = tuple(map(index, parent))
    n = len(parent)
    for v, p in enumerate(parent, start=1):
        if p < 0 or p > n:
            raise OutOfRangeError(f"parent of vertex {v} is {p}, outside 0..{n}")
        if p == v:
            raise SelfParentError(f"vertex {v} is its own parent")
    # Walk each vertex toward a root, marking finished vertices so the
    # whole scan stays linear.  Meeting an in-progress vertex is a cycle.
    state = bytearray(n + 1)  # 0 fresh, 1 on current path, 2 known good
    for start in range(1, n + 1):
        v = start
        path = []
        while v != 0 and state[v] == 0:
            state[v] = 1
            path.append(v)
            v = parent[v - 1]
        if v != 0 and state[v] == 1:
            raise CycleError(f"vertex {v} lies on a cycle")
        for u in path:
            state[u] = 2
    return Forest(parent)


def _check_tree(t: OrderedTree) -> list[int]:
    """The postorder of t, children left to right, as ints, if t is a
    plane tree on 1..root: parent and children have root + 1 entries,
    children[0] is empty, parent[root] is 0, and a pass down from the
    root lists every other vertex once, under the vertex its parent entry
    names.  Else MalformedInputError, naming a vertex.  Each entry the
    pass reads, the root's parent included, goes through operator.index,
    so a non-integer one is a TypeError there.  The pass pops vertices in
    reversed postorder and stacks none twice, so it ends on any input."""
    m = index(t.root)
    parent, children = t.parent, t.children
    if m < 0 or len(parent) != m + 1 or len(children) != m + 1 or children[0]:
        raise MalformedInputError(
            f"a tree on 1..{m} needs {m + 1} parent and child entries"
            " and no children of 0"
        )
    if (p := index(parent[m])) != 0:
        raise MalformedInputError(f"root {m} has parent {p}, not 0")
    seen = bytearray(m + 1)
    stack = [m] if m else []
    po: list[int] = []
    while stack:
        v = stack.pop()
        po.append(v)
        for c in children[v]:
            c = index(c)
            if not 0 < c < m:
                raise MalformedInputError(f"vertex {v} lists {c}, outside 1..{m - 1}")
            if (p := index(parent[c])) != v:
                raise MalformedInputError(f"vertex {v} lists {c}, whose parent is {p}")
            if seen[c]:
                raise MalformedInputError(f"vertex {v} lists {c} twice")
            seen[c] = 1
            stack.append(c)
    if len(po) != m:
        raise MalformedInputError(f"vertex {seen.index(0, 1)} is not below root {m}")
    return po[::-1]


def _claim_walk(parent: Sequence[int]) -> tuple:
    """The drawing canonical_order returns, as lists indexed by vertex
    0..n+1: (up, children), up[v] the parent of v under the super-root
    m = n+1 and children[v] in canonical order.  A bad parent sequence
    raises validate_forest's error.

    For u = n, ..., 1 in turn, walk up from u through the vertices no
    earlier walk has claimed, claiming each for u and appending it to its
    parent's child list.  The first walk to reach a vertex starts at the
    maximum of its subtree, so every child list fills by decreasing
    subtree maximum, with no sort.  A walk that meets a vertex it claimed
    itself has gone round a cycle, and validate_forest names the error.
    """
    n = len(parent)
    m = n + 1
    if parent and (min(parent) < 0 or max(parent) > n):
        validate_forest(parent)
    up = [0, *parent, 0]
    children: list[list[int]] = [[] for _ in range(m + 1)]
    top = [0] * m  # the walk that claimed each vertex, 0 for none yet
    top[0] = m  # a walk ends at the latest past a root
    for u in range(n, 0, -1):
        v = u
        while not top[v]:
            top[v] = u
            p = up[v]
            children[p or m].append(v)
            v = p  # p, not p or m: top[v] then rejects a float, 0.0 too
        if top[v] == u:
            validate_forest(parent)
    for r in children[m]:
        up[r] = m
    return up, children


def _postorder(root: int, children: Sequence[Sequence[int]]) -> list[int]:
    """The vertices under root in postorder, children left to right, by
    one stack pass.  Root 0, the tree with no vertex, has none."""
    out: list[int] = []
    stack = [root] if root else []
    while stack:
        v = stack.pop()
        out.append(v)
        stack.extend(children[v])
    out.reverse()
    return out


def _layout(po: Sequence[int], parent: Sequence[int]) -> tuple:
    """(size, end) of a drawn tree with parent[po[-1]] = 0, given its
    postorder po: per vertex, the subtree size and 1-based position in
    po, so the subtree of v is po[end[v] - size[v]:end[v]]."""
    size = [1] * (len(po) + 1)
    end = [0] * (len(po) + 1)
    for i, v in enumerate(po, start=1):
        size[parent[v]] += size[v]
        end[v] = i
    return size, end


def canonical_order(f: Forest) -> OrderedTree:
    """The canonical drawing of f under a super-root labeled n+1.

    The forest roots become the children of n+1.  Every child list, the
    roots included, is sorted by decreasing subtree maximum.  Entries are ints.
    """
    up, children = _claim_walk(f.parent)
    # The walk indexed a list by every entry, so index reads each one.
    children = tuple([tuple(map(index, ch)) for ch in children])
    return OrderedTree(len(up) - 1, tuple(map(index, up)), children)


def postorder(t: OrderedTree) -> tuple[int, ...]:
    """Vertices of a plane tree in postorder, children left to right."""
    return tuple(_check_tree(t))


def preorder(t: OrderedTree) -> tuple[int, ...]:
    """Vertices of a plane tree in preorder, children left to right."""
    out: list[int] = []
    stack = _check_tree(t)[-1:]  # the root, if any
    children = t.children
    while stack:
        v = stack.pop()
        out.append(v)
        ch = children[v]
        if ch:
            stack.extend(reversed(ch))
    return tuple(map(index, out))  # integer-like entries as the check read them
