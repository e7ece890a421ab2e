"""The parking algorithm, parking-function tests, and car statistics.

n cars drive past spaces 1, 2, 3, ... in car order; car c first tries its
preferred space p[c] and then rolls forward to the first free space.  On
a one-way street with unbounded overflow every car parks somewhere; the
preference sequence is a parking function exactly when nobody ends up
past space n.

Statistics of a parking function:

  jump at c     distance car c rolled past its preference
  jump total    sum of the jumps; always C(n+1, 2) - sum(p)
  lucky cars    cars that parked exactly where they wanted
  critical cars right-to-left maxima of the space word (the word listing,
                space by space, which car parked there)
  jump type     vector t with t[k] = number of cars that jumped exactly k,
                reported with n+1 entries (top entry always 0)

The uniform sampler walks the classic cyclic argument: park on a circle
of n+1 spaces, then rotate the labels so the empty space becomes n+1.
"""

from __future__ import annotations

import random
from collections import defaultdict, namedtuple
from collections.abc import Sequence
from operator import index, sub

from .errors import NotParkingFunctionError, OutOfRangeError

# Hot-path records skip the named tuple's Python __new__: 130-190 ns each.
_new = tuple.__new__


class ParkOutcome(namedtuple("ParkOutcome", "slots max_space")):
    """Where each car ended up: slots[c-1] is the space taken by car c."""

    __slots__ = ()


class ParkingStats(
    namedtuple(
        "ParkingStats",
        "n slots jump_at jump_total lucky_cars lucky critical_cars critic jump_type",
    )
):
    """The car statistics of one parking function; jump_at[c-1] is the jump of car c."""

    __slots__ = ()

    def as_report(self) -> dict:
        return {
            "q": list(self.slots),
            "jumpAt": list(self.jump_at),
            "jumpTotal": self.jump_total,
            "lucky": self.lucky,
            "luckyCars": list(self.lucky_cars),
            "critic": self.critic,
            "criticalCars": list(self.critical_cars),
            "tjump": list(self.jump_type),
        }


def park(prefs: Sequence[int]) -> ParkOutcome:
    """Run the parking algorithm; spaces to the right never run out.

    Any positive preference is accepted, even one past the number of
    cars.  Letting the outcome spill past space n is deliberate: the
    spill is how a sequence fails the parking test.
    """
    slots = _park(_preferences(prefs))
    return _new(ParkOutcome, (tuple(slots), max(slots) if slots else 0))


def _preferences(prefs: Sequence[int]) -> list[int]:
    """prefs converted once to a list of ints, none below 1.

    A non-integer preference is a TypeError, and then a preference below
    1 an OutOfRangeError naming its first car: both are checked before
    any car parks.  park and parking_stats share this one conversion.
    """
    # min here, and max in park and parking_stats, are guarded by length
    # rather than passed default=: at n = 5 each such keyword costs about
    # a tenth of a call.
    prefs = list(map(index, prefs))
    if prefs and min(prefs) < 1:
        c, p = next((c, p) for c, p in enumerate(prefs, start=1) if p < 1)
        raise OutOfRangeError(f"car {c} prefers space {p}; spaces start at 1")
    return prefs


def _park(prefs: Sequence[int]) -> list[int]:
    """park's loop on preferences already converted to integers, none
    below 1: the list of slots, slots[c-1] the space taken by car c.

    park, parking_stats and the backward map, which each convert and
    range-check the preferences once, run this loop directly.
    """
    # Union-find "next free space" with path compression (Tarjan 1975):
    # nxt[s] is nonzero exactly when space s is taken, and points at a
    # space no further right than the first free one after s.  When no
    # car prefers a space past 2n, nxt is a list of 3n+2 zeros: a car
    # passes at most n-1 taken spaces, so no slot goes past 3n-1 and no
    # pointer past 3n.  Past that bound it is a defaultdict, holding one
    # entry per taken space, so memory stays linear in n whatever the
    # preference values.
    n = len(prefs)
    nxt = [0] * (3 * n + 2) if not n or max(prefs) <= 2 * n else defaultdict(int)
    slots = []
    for p in prefs:
        s = p
        if nxt[s]:  # taken: find the first free space, then compress
            while nxt[s]:
                s = nxt[s]
            while p != s:
                nxt[p], p = s + 1, nxt[p]
        nxt[s] = s + 1
        slots.append(s)
    return slots


def is_parking_function(prefs: Sequence[int]) -> bool:
    """True when every car parks within spaces 1..n.

    Decided without parking, by the counting criterion: every car parks
    within 1..n exactly when, for each i, at least i cars prefer one of
    the spaces 1..i.  One tally of the preferences and one running sum
    make it O(n).  A non-integer preference is a TypeError, as in park.
    """
    prefs = list(map(index, prefs))
    n = len(prefs)
    tally = [0] * (n + 1)
    for p in prefs:
        if not 1 <= p <= n:
            return False
        tally[p] += 1
    total = 0
    for i in range(1, n + 1):
        total += tally[i]
        if total < i:
            return False
    return True


def sorted_parking_test(prefs: Sequence[int]) -> bool:
    """Rearrangement test: sorted preferences b satisfy b[i] <= i+1.

    Agrees with is_parking_function on every input; kept as an
    independent recognizer so each can check the other.
    """
    b = sorted(map(index, prefs))
    return all(1 <= x <= i for i, x in enumerate(b, start=1))


def parking_stats(prefs: Sequence[int]) -> ParkingStats:
    """All car statistics of a parking function in one pass.

    The preferences are converted and checked once, by park's own rule.
    """
    prefs = _preferences(prefs)
    n = len(prefs)
    slots = tuple(_park(prefs))
    if n and max(slots) > n:
        raise NotParkingFunctionError(f"{tuple(prefs)} is not a parking function")
    jump_at = tuple(map(sub, slots, prefs))
    jump_type = [0] * (n + 1)
    lucky_cars = []
    c = 0
    for j in jump_at:
        c += 1
        jump_type[j] += 1
        if not j:
            lucky_cars.append(c)
    # Car c is critical, a right-to-left maximum of the space word, when
    # it parks right of every later car: read from car n down, its slot
    # is a new record.
    crit = []
    best = 0
    for s in reversed(slots):
        if s > best:
            crit.append(c)
            best = s
        c -= 1
    return _new(
        ParkingStats,
        (
            n,
            slots,
            jump_at,
            sum(jump_at),
            tuple(lucky_cars),
            len(lucky_cars),
            tuple(crit),
            len(crit),
            tuple(jump_type),
        ),
    )


def _check_size(n: int) -> None:
    if n < 0:
        raise OutOfRangeError(f"sizes start at 0, got n = {n}")


def sample_parking_function(n: int, rng: random.Random) -> tuple[int, ...]:
    """Draw a parking function of length n uniformly at random.

    Park the cars on a circle of n+1 spaces (preferences uniform over the
    circle, probing cyclically); exactly one space stays empty.  Rotating
    labels so the empty space lands on n+1 yields a preference sequence
    that parks within 1..n, and every parking function arises from the
    same number of rotations, so the draw is uniform.

    The circle is parked on the line, by park: the taken spaces do not
    depend on the order of the cars, so the cars that pass n+1 may wrap
    round last.  They fill the free spaces of 1..n+1 from the left, and
    there is one more of those than of them: the last one stays empty.
    """
    _check_size(n)
    m = n + 1
    a = [rng.randrange(m) for _ in range(n)]  # 0-indexed circle positions
    taken = bytearray(m + 1)
    for s in park([x + 1 for x in a]).slots:
        if s <= m:
            taken[s] = 1
    shift = m - taken.rindex(0)
    return tuple((x + shift) % m + 1 for x in a)
