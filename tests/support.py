"""Helpers the test modules share: a forest strategy, the deep shapes,
a peak-memory probe, a best-of timer, a bounded child-process run and
the parking-time definition of critical cars.  The file name keeps it
out of collection."""

import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from hypothesis import strategies as st

import parkforest
from parkforest import Forest


def forests(max_n=8):
    """Strategy: valid parent sequences drawn through attachment order."""

    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        parent = [0] * n
        # attach vertices in random order; each picks a parent among the
        # already-attached vertices or the ground, so no cycles can form
        order = draw(st.permutations(list(range(1, n + 1))))
        placed = []
        for v in order:
            choice = draw(st.integers(min_value=0, max_value=len(placed)))
            parent[v - 1] = 0 if choice == 0 else placed[choice - 1]
            placed.append(v)
        return Forest(tuple(parent))

    return st.composite(build)()


DEEP_SHAPES = ["path_up", "path_down", "caterpillar", "broom", "star", "binary"]


def deep_forest(shape, n, seed=0):
    """A deep (or, for the star and the binary tree, shallow) forest on n
    vertices.

    The paths keep their labels in order; the other shapes are drawn on
    positions 0..n-1 (entry i the parent position, -1 for the root) and
    then labeled at random.
    """
    if shape == "path_up":
        return Forest(tuple(range(n)))
    if shape == "path_down":
        return Forest(tuple(range(2, n + 1)) + (0,))
    half = n // 2
    spine = [i - 1 for i in range(half)]
    if shape == "caterpillar":  # a leg on every spine vertex
        shape_of = spine + list(range(n - half))
    elif shape == "broom":  # every other vertex on the end of the handle
        shape_of = spine + [half - 1] * (n - half)
    elif shape == "star":
        shape_of = [-1] + [0] * (n - 1)
    else:  # complete binary tree: children with children of their own
        shape_of = [(i - 1) // 2 for i in range(n)]
    name = list(range(1, n + 1))
    random.Random(seed).shuffle(name)
    parent = [0] * n
    for i, q in enumerate(shape_of):
        parent[name[i] - 1] = name[q] if q >= 0 else 0
    return Forest(tuple(parent))


def peak_bytes(fn, *args):
    """The peak of the memory tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def best_of(k, fn, *args):
    """The shortest of k timed calls fn(*args), in seconds."""
    times = []
    for _ in range(k):
        start = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - start)
    return min(times)


def run_bounded(code, seconds, max_bytes):
    """Run the Python snippet code in a child process that imports this
    parkforest, held to max_bytes of address space (RLIMIT_AS, set in
    the child alone) and killed after seconds, which raises
    subprocess.TimeoutExpired.  Returns the CompletedProcess, with its
    output captured as text.  A snippet that would loop or grow without
    bound fails in seconds, in a process of its own."""
    src = str(Path(parkforest.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    limit = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({max_bytes}, {max_bytes}))\n"
    )
    return subprocess.run(
        [sys.executable, "-c", limit + code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=seconds,
    )


def critical_by_simulation(prefs):
    """Cars that see no empty space to their right (within 1..n) as they park."""
    n = len(prefs)
    occupied = bytearray(n + 2)
    crit = []
    for c, p in enumerate(prefs, start=1):
        s = p
        while occupied[s]:
            s += 1
        occupied[s] = 1
        if all(occupied[t] for t in range(s + 1, n + 1)):
            crit.append(c)
    return crit
