"""Rooted labeled forests and their canonical plane drawing.

A forest on n vertices labeled 1..n is stored as a parent sequence:
parent[v-1] is the parent of vertex v, with 0 standing for "v is a root".
Every function here treats vertex labels as significant.  The canonical
drawing order (children and root list sorted by decreasing subtree
maximum) is what makes the forest-to-parking-function map injective;
canonical_order is its reference, which the tests compare the map
against, and bijection._forward computes the same order on its own.

attach_super_root turns a forest on 1..n into a single rooted tree on
1..n+1 whose root n+1 adopts the forest roots as children.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index
from typing import Sequence

from .errors import CycleError, OutOfRangeError, SelfParentError


@dataclass(frozen=True)
class Forest:
    """A rooted labeled forest given by its parent sequence.

    parent[v-1] is the parent of vertex v (1-indexed labels), 0 for roots.
    Instances are assumed valid; build untrusted input via validate_forest.
    """

    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)


@dataclass(frozen=True)
class OrderedForest:
    """A forest plus its canonical drawing order.

    children[v] lists the children of v left to right; children[0] lists
    the roots.  Both are sorted by decreasing subtree maximum.
    """

    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    @property
    def roots(self) -> tuple[int, ...]:
        return self.children[0]


@dataclass(frozen=True)
class OrderedTree:
    """A single plane tree on vertices 1..root, rooted at the top label.

    parent[root] is 0 and parent[0] is an unused sentinel.  children[v]
    preserves the drawing order inherited from the forest it came from.
    """

    root: int
    parent: tuple[int, ...]
    children: tuple[tuple[int, ...], ...]


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


def children_lists(parent: Sequence[int]) -> list[list[int]]:
    """Children of each vertex in label order; index 0 holds the roots."""
    ch: list[list[int]] = [[] for _ in range(len(parent) + 1)]
    for v, p in enumerate(parent, start=1):
        ch[p].append(v)
    return ch


def subtree_maxima(parent: Sequence[int]) -> list[int]:
    """Largest label in the subtree of each vertex (index 0 unused).

    Folds each vertex into its parent along bottom_up_order, so a vertex
    is folded in only once all of its own children have been.
    """
    submax = list(range(len(parent) + 1))
    for v in bottom_up_order(parent):
        p = parent[v - 1]
        if submax[v] > submax[p]:
            submax[p] = submax[v]
    return submax


def bottom_up_order(parent: Sequence[int]) -> list[int]:
    """Some ordering of all vertices with every child before its parent."""
    n = len(parent)
    pending = [0] * (n + 1)
    for p in parent:
        pending[p] += 1
    ready = [v for v in range(1, n + 1) if pending[v] == 0]
    out = []
    while ready:
        v = ready.pop()
        out.append(v)
        p = parent[v - 1]
        if p:
            pending[p] -= 1
            if pending[p] == 0:
                ready.append(p)
    return out


def canonical_order(f: Forest) -> OrderedForest:
    """Order children and roots by decreasing subtree maximum."""
    submax = subtree_maxima(f.parent)
    key = submax.__getitem__
    ch = children_lists(f.parent)
    for lst in ch:
        if len(lst) > 1:
            lst.sort(key=key, reverse=True)
    return OrderedForest(f.parent, tuple(tuple(lst) for lst in ch))


def attach_super_root(of: OrderedForest) -> OrderedTree:
    """Join the forest under a new root labeled n+1 adopting the old roots.

    The root's children keep the canonical (decreasing subtree maximum)
    order, so the resulting plane tree is canonically drawn as well.
    """
    n = of.n
    m = n + 1
    parent = tuple(p if p else m for p in of.parent) + (0,)
    children = ((),) + of.children[1:] + (of.roots,)
    return OrderedTree(m, (0,) + parent, children)


def postorder(t: OrderedTree) -> tuple[int, ...]:
    """Vertices of a plane tree in postorder, children left to right."""
    out: list[int] = []
    stack = [t.root]
    children = t.children
    pop = stack.pop
    append = out.append
    extend = stack.extend
    while stack:
        v = pop()
        append(v)
        extend(children[v])
    out.reverse()
    return tuple(out)


def preorder(t: OrderedTree) -> tuple[int, ...]:
    """Vertices of a plane tree in preorder, children left to right."""
    out: list[int] = []
    stack = [t.root]
    children = t.children
    while stack:
        v = stack.pop()
        out.append(v)
        ch = children[v]
        if ch:
            stack.extend(reversed(ch))
    return tuple(out)
