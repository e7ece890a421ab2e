"""Inversion statistics of rooted labeled forests.

An inversion of a forest at vertex v counts the strict descendants of v
carrying a smaller label.  Derived from it, all returned by forest_stats:

  inv_total   sum of the counts over all vertices
  leaders     vertices with no inversions at all (lead counts them)
  tree        number of components (equivalently, roots)
  inv_type    vector t where t[k] = number of vertices with exactly k
              inversions; always reported with n+1 entries so it lines
              up index by index with the jump type of a preference
              sequence of length n (the top entry is always 0)

forest_stats builds the child lists once, with upward_children:
it also gives a breadth-first order from the roots reversed, which puts
every vertex after its children, and rejects a bad parent sequence as
validate_forest does.  inversion_counts sweeps that order keeping, per
vertex, the sorted labels of its subtree: merging the children's lists
and one bisection give the count, and the vertex goes in where the
bisection stopped.  A vertex with one child takes that child's list as
it is, since it is sorted already, so a path costs one bisection and one
insertion per vertex: linear time when the labels fall towards the root,
and C-level list shifts when they rise.  A vertex with several children
gathers their lists in one: a child list longer than all the labels
gathered before it takes them over as its tail.  When the tail holds
fewer than 1/_R as many labels as the sorted list in front, its labels
are inserted one by one; otherwise the gathered list is sorted.  A label
is inserted only into a list _R times as long as its own side, so at
most log_R n times, and a sort is paid for by the shorter lists.  So a
caterpillar costs what a path does: each leg is inserted into the
spine's list, which is sorted only while it is short.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import namedtuple
from collections.abc import Sequence

from .forest import Forest, validate_forest

_R = 32  # a tail under 1/_R of the sorted front is inserted, not sorted

# Hot-path records skip the named tuple's Python __new__: 130-190 ns each.
_new = tuple.__new__


class ForestStats(
    namedtuple("ForestStats", "n inv_at inv_total leaders lead tree inv_type")
):
    """The inversion statistics of one forest; inv_at[v-1] is the count at vertex v."""

    __slots__ = ()

    def as_report(self) -> dict:
        return {
            "n": self.n,
            "invAt": list(self.inv_at),
            "invTotal": self.inv_total,
            "leaders": list(self.leaders),
            "lead": self.lead,
            "tree": self.tree,
            "tinv": list(self.inv_type),
        }


def inversion_counts(
    children: Sequence[Sequence[int]], order: Sequence[int]
) -> list[int]:
    """Smaller-strict-descendant count per vertex (index 0 unused).

    children may cover a forest (children[0] = roots, ignored here) or a
    single tree; order must visit every vertex after all its children.
    """
    inv = [0] * len(children)
    labels: list = [None] * len(children)  # sorted subtree label lists, freed as used
    for v in order:
        ch = children[v]
        if ch:
            merged = labels[ch[0]]
            labels[ch[0]] = None
            if len(ch) > 1:
                # Each takeover at least doubles the gathered list, so the
                # copying is linear in the tail.  k counts the sorted front.
                k = len(merged)
                for c in ch[1:]:
                    sub = labels[c]
                    labels[c] = None
                    if len(sub) > len(merged):
                        merged, sub = sub, merged
                        k = len(merged)
                    merged += sub
                if (len(merged) - k) * _R < k:
                    rest = merged[k:]
                    del merged[k:]
                    for x in rest:
                        insort(merged, x)
                else:
                    merged.sort()
            inv[v] = i = bisect_left(merged, v)
            merged.insert(i, v)
        else:
            merged = [v]
        labels[v] = merged
    return inv


def subtree_label_lists(
    children: Sequence[Sequence[int]], order: Sequence[int]
) -> list:
    """Per vertex, the sorted list of labels in its subtree (self included).

    Unlike inversion_counts this keeps every list alive, which is what the
    literal reference path of the relabelings needs.
    """
    labels: list = [None] * len(children)
    for v in order:
        merged = [v]
        for c in children[v]:
            merged += labels[c]
        merged.sort()
        labels[v] = merged
    return labels


def children_lists(parent: Sequence[int]) -> list[list[int]]:
    """Children of each vertex in label order; index 0 holds the roots."""
    ch: list[list[int]] = [[] for _ in range(len(parent) + 1)]
    for v, p in enumerate(parent, start=1):
        ch[p].append(v)
    return ch


def upward_children(parent: Sequence[int]) -> tuple[list[list[int]], list[int]]:
    """The child lists of a forest (index 0 holds the roots) and an order
    putting every vertex after all of its children: breadth first from
    the roots, reversed.

    Forest does not validate.  On a bad parent sequence this raises the
    error validate_forest raises for it, found by one range check and one
    count of the vertices reached from the roots.
    """
    n = len(parent)
    if parent and (min(parent) < 0 or max(parent) > n):
        validate_forest(parent)
    ch = children_lists(parent)
    order = list(ch[0])
    for v in order:  # the list grows while it is read
        order += ch[v]
    if len(order) < n:  # a vertex that never reaches a root
        validate_forest(parent)
    order.reverse()
    return ch, order


def forest_stats(f: Forest) -> ForestStats:
    """All inversion statistics of a forest in one pass."""
    n = f.n
    ch, up = upward_children(f.parent)
    inv_at = tuple(inversion_counts(ch, up)[1:])
    inv_type = [0] * (n + 1)
    leaders = []
    v = 0
    for k in inv_at:
        v += 1
        inv_type[k] += 1
        if not k:
            leaders.append(v)
    tree = len(ch[0])
    return _new(
        ForestStats,
        (n, inv_at, sum(inv_at), tuple(leaders), len(leaders), tree, tuple(inv_type)),
    )
