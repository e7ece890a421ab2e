"""Brute-force enumeration and verification of the bijection.

The enumerators are deliberately independent of the bijection machinery.
Each runs over every raw sequence of its first n-1 coordinates and solves
for the last one: forests by acyclicity (vertex n may hang only where its
parent chain reaches a root without coming back to n), parking functions
by the counting criterion (at least i preferences within 1..i, for every
i).  Both therefore serve as oracles: the map must hit every parking
function exactly once, the inverse must return every forest, and every
statistic must transport.  verify_bijection checks all of it for one n;
the checks per forest are

  image       the produced preference sequence is a parking function
  roundtrip   mapping back returns the very same parent sequence
  statistics  vertex inversions match car jumps under the label
              correspondence, and the derived aggregates agree
              (total, leaders vs lucky, components vs critical cars,
              inversion type vs jump type, and the sum identity
              inv_total = C(n+1,2) - sum of preferences)

plus, across the whole run, that no two forests map to the same parking
function and that the image count equals the independent enumeration.
The reverse direction (every parking function maps back and forth to
itself) is checked explicitly against the enumeration, without mapping
again: the forest pass keeps a table from each image p = F(f) to whether
G(p) = f held.  Every enumerated parking function must be in that table,
and where the round trip held, F(G(p)) = F(f) = p follows.  Only a p
whose forest failed its round trip is mapped back and forth once more.

The forest pass runs in stages over blocks of about 384 vertices (64
forests at n = 5): the forward map on every forest of a block, the
backward map on every image, the two statistics, and then the checks in
sweep order.  Each large function then runs many times in a row, and
serial verify_bijection(6) takes about 0.81 of the time it took with
each forest taken through all four in turn (1.12 against 1.39 s, on a
shared 2-core machine), likely from cache and branch-predictor locality
(no hardware counter was read).  The bound
on vertices keeps a pass's memory linear in n: from n = 383 up a block
holds one forest, mapped before the next is drawn.

Parallel runs split the work by the parent of vertex 1; each worker
enumerates its share of parent sequences.  With the roughly uniform
spread of valid forests over that first coordinate the split is even.

VerificationReport subclasses collections.namedtuple, with empty __slots__.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import namedtuple
from collections.abc import Iterable, Iterator
from math import comb
from operator import index

from .bijection import forest_to_parking, parking_to_forest
from .errors import BudgetExceededError, NotParkingFunctionError, OutOfRangeError
from .forest import Forest
from .forest_stats import forest_stats
from .parking import _check_size, parking_stats

# Sweeping all (n+1)^(n-1) objects stops being a desk-scale job right
# after these sizes; anything larger must go through the random checks.
MAX_ENUMERATION_N = 8
MAX_VERIFICATION_N = 7

# Hot-path records skip the named tuple's Python __new__: 130-190 ns each.
_new = tuple.__new__


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "n forest_count parking_function_count roundtrip_failures stat_mismatches"
        " elapsed_millis seed",
        defaults=(None,),
    )
):
    """The counts of one run at size n; seed is None for an exhaustive sweep."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.roundtrip_failures == 0 and self.stat_mismatches == 0

    def as_report(self) -> dict:
        report = {
            "n": self.n,
            "forestCount": self.forest_count,
            "parkingFunctionCount": self.parking_function_count,
            "roundtripFailures": self.roundtrip_failures,
            "statMismatches": self.stat_mismatches,
            "elapsedMillis": self.elapsed_millis,
        }
        if self.seed is not None:
            report["seed"] = self.seed
        return report


def forest_count(n: int) -> int:
    """Number of rooted labeled forests on n vertices, (n+1)^(n-1)."""
    n = index(n)
    _check_size(n)
    return (n + 1) ** (n - 1) if n > 0 else 1


def _check_sweep_size(n: int, objects: str) -> None:
    """The size checks of a full sweep over every object of size n: n is
    at least 0, and at most MAX_ENUMERATION_N."""
    _check_size(n)
    if n > MAX_ENUMERATION_N:
        raise BudgetExceededError(
            f"full {objects} sweeps stop at n = {MAX_ENUMERATION_N}, got {n}"
        )


def _root_reachers(head: tuple[int, ...], n: int) -> list[int] | None:
    """The parents vertex n may take, given those of vertices 1..n-1.

    That is 0 and each vertex whose chain reaches 0 without passing n, in
    increasing order, or None when the head holds a cycle.  Each walk stops
    at a vertex of known fate and copies that fate back along itself.
    """
    fate = [0] * (n + 1)  # 0 unknown, 1 reaches 0, 2 reaches n, 3 on this walk
    fate[0] = 1
    fate[n] = 2
    for v in range(1, n):
        walk = []
        while not fate[v]:
            fate[v] = 3
            walk.append(v)
            v = head[v - 1]
        end = fate[v]
        if end == 3:
            return None
        for u in walk:
            fate[u] = end
    return [v for v in range(n) if fate[v] == 1]


def all_forests(n: int, first_parent: int | None = None) -> Iterator[Forest]:
    """Every forest on n vertices, in lexicographic order of parent sequences.

    The parents of vertices 1..n-1 run over all their values; for each
    acyclic choice, vertex n takes exactly the parents that keep it so.

    first_parent restricts to forests where vertex 1 has that parent,
    which is how parallel verification splits the work.
    """
    _check_sweep_size(n, "forest")
    if first_parent is not None and not 0 <= first_parent <= n:
        raise OutOfRangeError(
            f"vertex 1 takes a parent in 0..{n}, got first_parent = {first_parent}"
        )
    if n == 0:
        if first_parent is None:
            yield Forest(())
        return
    heads = [tuple(p for p in range(n + 1) if p != v) for v in range(1, n)]
    if first_parent is not None:
        if first_parent == 1:
            return
        if heads:
            heads[0] = (first_parent,)
    reachers = _root_reachers
    for head in itertools.product(*heads):
        lasts = reachers(head, n)
        if lasts is not None:
            for p in lasts:
                yield _new(Forest, (head + (p,),))


def all_parking_functions(n: int) -> Iterator[tuple[int, ...]]:
    """Every parking function of length n, in lexicographic order.

    The first n-1 preferences run over 1..n.  Sorted into b_1 <= ... <=
    b_{n-1}, they have a completion exactly when every b_i <= i+1; the last
    car may then prefer 1 up to the first i with b_i = i+1, or up to n.
    """
    _check_sweep_size(n, "parking-function")
    if n == 0:
        yield ()
        return
    for head in itertools.product(range(1, n + 1), repeat=n - 1):
        top = n
        for i, b in enumerate(sorted(head), start=1):
            if b > i + 1:
                break
            if b > i and top == n:
                top = i
        else:
            for last in range(1, top + 1):
                yield head + (last,)


def _check_forest(
    f: Forest, image, back, fs, ps
) -> tuple[tuple[int, ...] | None, int, int]:
    """One forest's checks, on the values the forest pass computed for it.

    image is (p, lmap) = F(f) and back is G(p), or None when p is not
    even a parking function, which counts as one roundtrip failure: the
    inverse map checks the image, so it is checked once.  fs and ps are
    the statistics of f and p.  Returns (image or None, roundtrip
    failures, stat mismatches).
    """
    if back is None:
        return None, 1, 0
    n = f.n
    p, lmap = image
    back_f, back_map = back
    bad_round = 0
    if back_f.parent != f.parent or back_map.to_car != lmap.to_car:
        bad_round = 1
    bad_stats = 0
    inv_total = fs.inv_total
    jump = ps.jump_at
    # The roots themselves must land on the critical cars, not merely
    # match them in number.
    roots = set()
    for k, c, up in zip(fs.inv_at, lmap.to_car[1:], f.parent):
        if k != jump[c - 1]:
            bad_stats += 1
        if not up:
            roots.add(c)
    if inv_total != ps.jump_total:
        bad_stats += 1
    if fs.lead != ps.lucky:
        bad_stats += 1
    if fs.tree != ps.critic:
        bad_stats += 1
    if fs.inv_type != ps.jump_type:
        bad_stats += 1
    if inv_total != comb(n + 1, 2) - sum(p):
        bad_stats += 1
    if roots != set(ps.critical_cars):
        bad_stats += 1
    # Inversion-free forests and permutation images single each other out;
    # p is a parking function, so it is a permutation when its n values
    # are distinct.
    if (inv_total == 0) != (len(set(p)) == n):
        bad_stats += 1
    return p, bad_round, bad_stats


# Vertices per block of the forest pass, counting each forest's super-root:
# 64 forests at n = 5, 48 at n = 7, one forest at a time from n = 383 up.
_BLOCK_VERTICES = 384


def _forest_pass(
    forests: Iterable[Forest], n: int, table: dict | None = None
) -> tuple[int, int, int, int]:
    """Every forest of size n through the maps and _check_forest, tallied.

    The forests go in blocks, and each block through one stage at a time:
    the forward map on every forest, the backward map on every image,
    then both statistics where the backward map took the image.  The
    checks then run over the block in sweep order.

    Returns (forests, roundtrip failures, stat mismatches, hits): hits
    counts the forests whose image is a parking function.  A given table
    is filled with each image and whether some forest with that image
    came back to itself.
    """
    forests = iter(forests)
    size = max(1, _BLOCK_VERTICES // (n + 1))
    count = 0
    hits = 0
    bad_round = 0
    bad_stats = 0
    while block := list(itertools.islice(forests, size)):
        images = list(map(forest_to_parking, block))
        backs = []
        for p, _ in images:
            try:
                backs.append(parking_to_forest(p))
            except NotParkingFunctionError:
                backs.append(None)
        fss = [forest_stats(f) if b else None for f, b in zip(block, backs)]
        pss = [parking_stats(p) if b else None for (p, _), b in zip(images, backs)]
        count += len(block)
        for row in zip(block, images, backs, fss, pss):
            p, br, bs = _check_forest(*row)
            bad_round += br
            bad_stats += bs
            if p is not None:
                hits += 1
                if table is not None:
                    table[p] = table.get(p, False) or not br
    return count, bad_round, bad_stats, hits


def _verify_slice(args: tuple[int, int | None]) -> tuple[tuple[int, ...], dict]:
    """The forest pass over all_forests(n, first_parent): its tallies and
    its image table."""
    n, first_parent = args
    table: dict[tuple[int, ...], bool] = {}
    return _forest_pass(all_forests(n, first_parent), n, table), table


def _merge(
    parts: Iterable[tuple[tuple[int, ...], dict]]
) -> tuple[int, int, int, int, dict]:
    """The slices' summed tallies and one image table.

    Each slice merges into the first slice's table as it arrives, and is
    dropped before the next one is taken: a serial sweep holds one table,
    not a copy of it, and a split sweep holds the merged table and only
    the slices that have arrived but not yet merged.
    """
    totals = [0, 0, 0, 0]
    table = None
    for tallies, part in parts:
        totals = [a + b for a, b in zip(totals, tallies)]
        if table is None:
            table = part
        else:
            for p, held in part.items():
                table[p] = table.get(p, False) or held
        del part
    return (*totals, table)


def verify_bijection(n: int, jobs: int | None = None) -> VerificationReport:
    """Exhaustively verify the bijection and statistics for one n.

    jobs > 1 splits the sweep over at most that many worker processes,
    one slice per parent of vertex 1; None or 1 runs it in this process.
    """
    n = index(n)
    if jobs is not None and (jobs := index(jobs)) < 1:
        raise OutOfRangeError(
            f"jobs counts worker processes from 1, got jobs = {jobs}"
        )
    _check_size(n)
    if n > MAX_VERIFICATION_N:
        raise BudgetExceededError(
            f"exhaustive verification stops at n = {MAX_VERIFICATION_N}, got {n};"
            " use the random spot checks beyond that"
        )
    start = time.perf_counter()
    if jobs and jobs > 1 and n >= 2:
        # Imported here: the pool pulls in multiprocessing, which every
        # import of the package would otherwise pay for.
        from concurrent.futures import ProcessPoolExecutor

        slices = [(n, fp) for fp in range(n + 1) if fp != 1]
        with ProcessPoolExecutor(max_workers=min(jobs, len(slices))) as pool:
            forests, bad_round, bad_stats, hits, table = _merge(
                pool.map(_verify_slice, slices)
            )
    else:
        forests, bad_round, bad_stats, hits, table = _merge([_verify_slice((n, None))])
    # Distinctness and coverage: injectivity plus an image count matching
    # the independent enumeration makes the map onto.
    bad_round += hits - len(table)
    pf_count = 0
    for p in all_parking_functions(n):
        pf_count += 1
        held = table.get(p)
        if held is None:
            bad_round += 1
        elif not held:
            # G(F(f)) = f failed for every f with F(f) = p, so F(G(p)) = p
            # does not follow from the table: check it directly.
            back, _ = parking_to_forest(p)
            again, _ = forest_to_parking(back)
            if again != p:
                bad_round += 1
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(
        n=n,
        forest_count=forests,
        parking_function_count=pf_count,
        roundtrip_failures=bad_round,
        stat_mismatches=bad_stats,
        elapsed_millis=elapsed,
    )


def sample_forest(n: int, rng: random.Random) -> Forest:
    """Draw a forest on n vertices uniformly at random.

    Uniform forests correspond to uniform trees on n+1 vertices, and
    those to uniform code sequences in {1..n+1}^(n-1): decode one, root
    the tree at n+1, drop that root.

    The root n+1 is never the smallest leaf, so it stays until the end:
    each leaf the decoder removes hangs on its code entry, the last one
    on the root.
    """
    _check_size(n)
    m = n + 1
    seq = [rng.randint(1, m) for _ in range(n - 1)]
    deg = [1] * (m + 1)
    for x in seq:
        deg[x] += 1
    parent = [0] * (m + 1)
    ptr = 1
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for x in seq:
        parent[leaf] = x
        deg[x] -= 1
        if deg[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    return Forest(tuple(0 if p == m else p for p in parent[1:m]))


def verify_random(n: int, count: int, seed: int | None = None) -> VerificationReport:
    """Spot-check the bijection on random forests at sizes too big to sweep.

    Without a seed, one is drawn from the system's source of randomness.
    The report carries the seed either way, so every run can be replayed.
    """
    n, count = index(n), index(count)
    if seed is not None:
        seed = index(seed)
    _check_size(n)
    if count < 0:
        raise OutOfRangeError(f"counts start at 0, got count = {count}")
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
    start = time.perf_counter()
    rng = random.Random(seed)
    _, bad_round, bad_stats, pf_hits = _forest_pass(
        (sample_forest(n, rng) for _ in range(count)), n
    )
    elapsed = int(round((time.perf_counter() - start) * 1000))
    return VerificationReport(
        n=n,
        forest_count=count,
        parking_function_count=pf_hits,
        roundtrip_failures=bad_round,
        stat_mismatches=bad_stats,
        elapsed_millis=elapsed,
        seed=seed,
    )
