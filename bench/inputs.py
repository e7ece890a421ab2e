"""Seeded inputs and independent oracles for the benchmark.

Nothing here imports parkforest: the generators decide what the library
is fed, and the oracles judge what it returns, so a change to the
library's own samplers or statistics can change neither.

Forests are parent tuples over labels 1..n (0 marks a root); parking
functions are preference tuples over spaces 1..n.
"""

from __future__ import annotations

import itertools
import random


def random_forest(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform forest on n vertices: decode a uniform Pruefer code."""
    return forest_of_code([rng.randint(1, n + 1) for _ in range(n - 1)], n)


def forest_of_code(code, n: int) -> tuple[int, ...]:
    """The forest on n vertices whose tree on 1..n+1 has this Pruefer code.

    Codes in {1..n+1}^(n-1) and trees on n+1 vertices correspond one to
    one.  Every decoded leaf is joined to a vertex still present, so with
    the tree rooted at n+1 (never removed as a leaf) that neighbour is the
    leaf's parent; dropping n+1 leaves the forest.
    """
    if n == 0:
        return ()
    m = n + 1
    degree = [1] * (m + 1)
    for x in code:
        degree[x] += 1
    parent = [0] * (m + 1)
    ptr = 1
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in code:
        parent[leaf] = x
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    parent[leaf] = m
    return tuple(0 if p == m else p for p in parent[1:m])


def random_parking_function(n: int, rng: random.Random) -> tuple[int, ...]:
    """Uniform parking function of length n by the cycle lemma.

    Of the n+1 cyclic shifts of a uniform word over Z_(n+1), exactly one
    is a parking function: the shift that sends the first minimum of the
    prefix sums of (count - 1) to space n+1, which no car prefers.
    """
    m = n + 1
    word = [rng.randrange(m) for _ in range(n)]
    count = [0] * m
    for x in word:
        count[x] += 1
    low, empty, run = 1, 0, 0
    for s in range(m):
        run += count[s] - 1
        if run < low:
            low, empty = run, s
    return tuple((x - empty - 1) % m + 1 for x in word)


def _labelled(shape: list[int], rng: random.Random) -> tuple[int, ...]:
    """Relabel a parent list over nodes 0..n-1 (-1 for roots) at random."""
    n = len(shape)
    label = list(range(1, n + 1))
    rng.shuffle(label)
    parent = [0] * n
    for node, up in enumerate(shape):
        parent[label[node] - 1] = label[up] if up >= 0 else 0
    return tuple(parent)


def path_up(n: int) -> tuple[int, ...]:
    """Vertex 1 is the root and v hangs under v-1."""
    return tuple(range(n))


def path_down(n: int) -> tuple[int, ...]:
    """Vertex n is the root and v hangs under v+1."""
    return tuple(range(2, n + 1)) + (0,) if n else ()


def caterpillar(n: int, rng: random.Random) -> tuple[int, ...]:
    """A spine of ceil(n/2) vertices, each but possibly the last with one leg."""
    spine = (n + 1) // 2
    shape = [i - 1 for i in range(spine)] + [i for i in range(n - spine)]
    return _labelled(shape, rng)


def broom(n: int, rng: random.Random) -> tuple[int, ...]:
    """A handle of n//2 vertices whose bottom end holds every other vertex."""
    handle = max(n // 2, 1)
    shape = [i - 1 for i in range(handle)] + [handle - 1] * (n - handle)
    return _labelled(shape, rng)


def star(n: int, rng: random.Random) -> tuple[int, ...]:
    """One centre with n-1 leaves: the shallow control."""
    return _labelled([-1] + [0] * (n - 1), rng)


def deep_shapes(n: int, rng: random.Random) -> dict[str, tuple[int, ...]]:
    return {
        "path_up": path_up(n),
        "path_down": path_down(n),
        "caterpillar": caterpillar(n, rng),
        "broom": broom(n, rng),
        "star": star(n, rng),
    }


def all_forests(n: int) -> list[tuple[int, ...]]:
    """Every forest on n vertices, one per Pruefer code."""
    codes = itertools.product(range(1, n + 2), repeat=max(n - 1, 0))
    return [forest_of_code(code, n) for code in codes]


def all_parking_functions(n: int) -> list[tuple[int, ...]]:
    """Every parking function of length n, filtered from all words."""
    return [w for w in itertools.product(range(1, n + 1), repeat=n) if jumps(w) is not None]


# ---------------------------------------------------------------------------
# Oracles


def inversions(parent: tuple[int, ...]) -> list[int]:
    """Per vertex v (index 0 unused), strict descendants with a smaller label.

    An Euler tour turns each subtree into an interval; adding vertices to a
    Fenwick tree in label order counts the smaller ones inside it.
    """
    n = len(parent)
    children = [[] for _ in range(n + 1)]
    for v, p in enumerate(parent, start=1):
        children[p].append(v)
    enter = [0] * (n + 1)
    leave = [0] * (n + 1)
    clock = 0
    stack = [(0, False)]
    while stack:
        v, done = stack.pop()
        if done:
            leave[v] = clock
            continue
        clock += 1
        enter[v] = clock
        stack.append((v, True))
        stack.extend((c, False) for c in children[v])
    size = clock
    tree = [0] * (size + 1)
    inv = [0] * (n + 1)
    for v in range(1, n + 1):
        lo, hi, total = enter[v], leave[v], 0
        i = hi
        while i > 0:
            total += tree[i]
            i -= i & -i
        i = lo
        while i > 0:
            total -= tree[i]
            i -= i & -i
        inv[v] = total
        i = lo
        while i <= size:
            tree[i] += 1
            i += i & -i
    return inv


def park(prefs: tuple[int, ...]) -> list[int]:
    """Space taken by each car, with a union-find "next free space" table."""
    nxt: dict[int, int] = {}
    slots = []
    for p in prefs:
        s = p
        path = []
        while s in nxt:
            path.append(s)
            s = nxt[s]
        for q in path:
            nxt[q] = s
        nxt[s] = s + 1
        slots.append(s)
    return slots


def jumps(prefs: tuple[int, ...]) -> list[int] | None:
    """Each car's jump, or None when prefs is not a parking function."""
    n = len(prefs)
    if any(not 1 <= p <= n for p in prefs):
        return None
    slots = park(prefs)
    if max(slots, default=0) > n:
        return None
    return [s - p for s, p in zip(slots, prefs)]


def subtree_size_sum(parent: tuple[int, ...]) -> int:
    """Sum of subtree sizes, i.e. n plus the sum of depths."""
    n = len(parent)
    depth = [0] * (n + 1)
    known = bytearray(n + 1)
    known[0] = 1
    total = 0
    for v in range(1, n + 1):
        path = []
        u = v
        while not known[u]:
            path.append(u)
            u = parent[u - 1]
        d = depth[u]
        for w in reversed(path):
            d += 1
            depth[w] = d
            known[w] = 1
        total += depth[v]
    return total


def transport_error(
    parent: tuple[int, ...], prefs: tuple[int, ...], to_car: tuple[int, ...]
) -> str | None:
    """Check that prefs is a parking function and each vertex's inversion
    count equals the jump of its car; describe the first failure."""
    n = len(parent)
    if len(prefs) != n or len(to_car) != n + 1:
        return f"sizes differ: {n} vertices, {len(prefs)} cars, {len(to_car) - 1} labels"
    if sorted(to_car[1:]) != list(range(1, n + 1)):
        return "label map is not a bijection"
    jump = jumps(prefs)
    if jump is None:
        return "image is not a parking function"
    inv = inversions(parent)
    for v in range(1, n + 1):
        if inv[v] != jump[to_car[v] - 1]:
            return f"vertex {v}: {inv[v]} inversions, car {to_car[v]} jumped {jump[to_car[v] - 1]}"
    return None
