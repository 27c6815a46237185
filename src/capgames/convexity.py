"""Interval convexity diagnostics over exhaustively enumerated capacity spaces.

The convex sets here are order intervals [first, second] = every
capacity pointwise between the meet and join of two endpoints. Two
checks run over an exhaustively enumerated space of grid-valued
capacities:

* binarity: every pairwise-intersecting ("linked") family of intervals
  has a common element inside the space. A grid space is a lattice
  under pointwise max (join) and min (meet), so an interval is a pair
  (lower, upper) of space members, the intersection of two linked
  intervals is (join of the lowers, meet of the uppers), again an
  interval, and the scan runs on member indices through the order
  table and the members' row keys. Order intervals in a lattice have
  Helly number 2, so no linked family can fail, and only the counts of
  linked pairs, triples and (with `full_family`) families are left to
  find. The space is a distributive lattice, and each of its intervals
  is a contractible cube complex whose cubes are its Boolean intervals
  [x, join(S)], S a set of upper covers of x: the counts are signed sums
  over the cubes of the number of interval sets holding each, checked
  by the same sum giving the interval count.
* pair separation: any two distinct capacities split the space into two
  intervals built from a witness subset and the midpoint of the two
  values there, each endpoint falling outside one half. The halves are
  a function of the (witness, midpoint) key, so the scan builds and
  checks them once per key and decides every pair by table lookup.

Both checks read values only through order, so a space ranks each
member into its sorted distinct grid once (`capacity._ranked`), and the
scans compare those ints in numpy batches; a half's corners take the
levels 0, a and 1, each bisected once into a rank bound. The binarity
scan finds a member row by one exact key, the bytes of the row, in a
dict from each member's key to its index: no n x n op or join table is
built.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Iterable

from .capacity import (
    BudgetExceeded,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    _grid_tables,
    _grid_values,
    _ranked,
    _Record,
    bottom_capacity,
    join,
    meet,
    top_capacity,
)

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "BudgetExceeded",
    "EqualCapacities",
    "GridCapacitySpace",
    "enumerate_capacities",
    "CapacityInterval",
    "interval",
    "interval_membership",
    "BinarityReport",
    "check_binarity",
    "SeparationReport",
    "separating_halves",
    "check_t2",
]

# Intervals a full-family count may hold; beyond, BudgetExceeded.
FULL_FAMILY_CAP = 18
# Distinct intervals one binarity scan may hold; beyond, BudgetExceeded.
INTERVAL_BUDGET = 60000


class EqualCapacities(Exception):
    """Separation needs two distinct capacities."""


class GridCapacitySpace(_Record):
    """Every capacity on the domain whose values all lie in the grid.

    `enumerate_capacities` builds the full space. A space built by hand,
    such as a subset of it, must be closed under pointwise max and min
    (a sublattice) for `check_binarity`, which raises AssertionError
    otherwise. Every member must lie on the domain: DomainMismatch names
    the first member that does not. Every member value must lie in the
    grid: ValueError names the first member and value that do not. Each
    member is kept as its row of ranks into the sorted distinct grid,
    which the scans compare.
    """

    __slots__ = ("domain", "grid", "capacities", "_levels", "_ranks", "_pos")
    _fields = ("domain", "grid", "capacities")

    def __init__(self, domain: Domain, grid: tuple[Fraction, ...],
                 capacities: tuple[FiniteCapacity, ...]):
        for k, cap in enumerate(capacities):
            if cap.domain.labels != domain.labels:
                raise DomainMismatch(
                    f"member {k} lives on {list(cap.domain.labels)}, "
                    f"the space on {list(domain.labels)}")
        levels, (grid_ranks, *rows) = _ranked(grid, *(cap.values for cap in capacities))
        on_grid = set(grid_ranks)
        if len(on_grid) < len(levels):
            for k, (cap, row) in enumerate(zip(capacities, rows)):
                if not on_grid.issuperset(row):
                    v = next(v for v, r in zip(cap.values, row) if r not in on_grid)
                    raise ValueError(f"member {k} has value {v}, which is off the grid")
        ranks = tuple(map(tuple, rows))
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_ranks", ranks)
        # Reversed, so that a repeated member's first position wins.
        pos = {row: k for k, row in reversed(list(enumerate(ranks)))}
        object.__setattr__(self, "_pos", pos)

    def index_of(self, cap: FiniteCapacity) -> int:
        if cap.domain.labels == self.domain.labels:
            levels, (_, row) = _ranked(self._levels, cap.values)
            row = tuple(row)
            if len(levels) == len(self._levels) and row in self._pos:
                return self._pos[row]
        raise ValueError("capacity is not a member of this space")

    def __len__(self) -> int:
        return len(self.capacities)


def enumerate_capacities(domain: Domain,
                         grid: Iterable[Fraction | int]) -> GridCapacitySpace:
    """Exhaustively enumerate the grid-valued capacities on the domain.

    Members come in the fill order of `_grid_tables` (ascending
    cardinality, each subset's grid values ascending). The whole space
    is filled as rank tables and validated as one batch
    (`FiniteCapacity._many_from_ranks`) before any member is built. The
    member count is the only bound on the domain and the grid: the fill
    stops with BudgetExceeded before it would hold more than
    MAX_SPACE_MEMBERS tables.
    """
    values = _grid_values(grid)
    caps = tuple(FiniteCapacity._many_from_ranks(
        domain, values, _grid_tables(domain, values)))
    return GridCapacitySpace(domain, tuple(values), caps)


class CapacityInterval(_Record):
    """Order interval spanned by two capacities (corners are meet and join)."""

    __slots__ = _fields = ("first", "second", "lower", "upper")

    def __init__(self, first: FiniteCapacity, second: FiniteCapacity,
                 lower: FiniteCapacity, upper: FiniteCapacity):
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


def interval(first: FiniteCapacity, second: FiniteCapacity) -> CapacityInterval:
    if first.domain.labels != second.domain.labels:
        raise DomainMismatch("interval endpoints need a common domain")
    return CapacityInterval(first, second, meet(first, second), join(first, second))


def interval_membership(iv: CapacityInterval, cap: FiniteCapacity) -> bool:
    """Pointwise lower <= cap <= upper over every subset."""
    return iv.lower <= cap and cap <= iv.upper


def _row_keys(rows: np.ndarray) -> list[bytes]:
    """One exact key for each row of a C-contiguous int64 matrix: the
    row's bytes, viewed as a single void field."""
    import numpy as np

    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()


class BinarityReport(_Record):
    __slots__ = _fields = ("capacity_count", "interval_count", "linked_pairs",
                           "triples_checked", "failures", "full_family_sets", "seconds")

    def __init__(self, capacity_count: int, interval_count: int, linked_pairs: int,
                 triples_checked: int, failures: tuple[tuple[int, int, int], ...],
                 full_family_sets: int | None, seconds: float):
        object.__setattr__(self, "capacity_count", capacity_count)
        object.__setattr__(self, "interval_count", interval_count)
        object.__setattr__(self, "linked_pairs", linked_pairs)
        object.__setattr__(self, "triples_checked", triples_checked)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "full_family_sets", full_family_sets)
        object.__setattr__(self, "seconds", seconds)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "capacities": self.capacity_count,
            "intervals": self.interval_count,
            "linked_pairs": self.linked_pairs,
            "triples_checked": self.triples_checked,
            "failures": [list(f) for f in self.failures],
            "full_family_sets": self.full_family_sets,
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
        }


def check_binarity(space: GridCapacitySpace, full_family: bool = False) -> BinarityReport:
    """Count the linked interval pairs and triples, and with
    `full_family` the linked families of two or more intervals, of a
    space in which every linked family has a common member.

    The space is a lattice under pointwise max (join) and min (meet),
    so the interval of two members x, y is the pair of members
    (meet(x, y), join(x, y)), and the intervals are exactly the pairs
    (L, H) of members with L <= H. Intervals i and j meet in
    (join(L_i, L_j), meet(H_i, H_j)): they are linked iff that pair is
    ordered, and it is then again an interval, i ∩ j. Each member row
    is keyed by its bytes (`_row_keys`), and the pointwise max and min
    of every pair of members, built one member row at a time, must have
    the key of a member: AssertionError otherwise, on a space that is
    not a lattice.

    Order intervals in a lattice have Helly number 2: if L_a <= H_b for
    every a, b of a family, the join of its lowers lies below the meet
    of its uppers. So no linked family can fail, `failures` is always
    empty, and the counts need no walk over the linked pairs. A member
    space closed under pointwise max and min is a distributive lattice,
    and each of its intervals is contractible as a cube complex, whose
    cubes are its Boolean intervals [x, join(S)], S a set of upper
    covers of x, of dimension |S|. The cubes inside every interval of a
    family are those of its intersection, whose Euler characteristic,
    the sum of (-1)^|S| over the cubes it holds, is 1 if it is an
    interval and 0 if it is empty. With c = down(x) * up(join(S))
    intervals holding a cube (one choice of L <= x and of H >= join(S)),
    summing over the cubes gives

        linked pairs     = sum (-1)^|S| C(c, 2)
        linked triples   = sum (-1)^|S| C(c, 3)
        linked families  = sum (-1)^|S| (2^c - 1 - c)
        intervals (m)    = sum (-1)^|S| c

    and the last is checked: AssertionError if it is not m
    (`_cube_counts`). The interval budget, then the family cap of
    FULL_FAMILY_CAP intervals, is checked before closure. A space with
    no members has no intervals and passes.
    """
    import numpy as np

    start = time.perf_counter()
    if not space.capacities:
        return BinarityReport(0, 0, 0, 0, (), 0 if full_family else None,
                              time.perf_counter() - start)
    # np.unique is asked for counts it drops: with no return flag, numpy
    # imports numpy.ma to test for a masked array.
    mat, _ = np.unique(np.array(space._ranks), axis=0, return_counts=True)
    # Row by row, so that a space far over budget stops before the n x n order.
    below_rows = []
    m = 0
    for row in mat:
        below_rows.append((row <= mat).all(axis=1))
        m += int(below_rows[-1].sum())
        if m > INTERVAL_BUDGET:
            raise BudgetExceeded(
                f"binarity scan: at least {m} distinct intervals exceed "
                f"budget {INTERVAL_BUDGET}")
    below = np.array(below_rows)
    if full_family and m > FULL_FAMILY_CAP:
        raise BudgetExceeded(
            f"binarity scan: full-family scan capped at {FULL_FAMILY_CAP} "
            f"intervals, have {m}"
        )

    index = dict(zip(_row_keys(mat), range(len(mat))))
    # One member row at a time, so that a space that is not closed stops
    # before it holds more than n op rows.
    for op in (np.maximum, np.minimum):
        for a in range(len(mat)):
            if not all(map(index.__contains__, _row_keys(op(mat[a], mat[a + 1:])))):
                raise AssertionError(f"pointwise {op.__name__} of two members "
                                     "left the space; closure broken")
    linked_pairs, triples_checked, full_family_sets = _cube_counts(
        below, mat, index, m, full_family)

    return BinarityReport(
        capacity_count=len(space.capacities),
        interval_count=m,
        linked_pairs=linked_pairs,
        triples_checked=triples_checked,
        failures=(),
        full_family_sets=full_family_sets,
        seconds=time.perf_counter() - start,
    )


def _upper_covers(below: np.ndarray) -> np.ndarray:
    """covers[x, y]: y covers x, i.e. y is a minimal member above x.
    below[a, b] is a <= b."""
    import numpy as np

    strict = below & ~np.eye(len(below), dtype=bool)
    return np.array([above & ~strict[above].any(axis=0) for above in strict])


def _cube_counts(below: np.ndarray, mat: np.ndarray, index: dict[bytes, int], m: int,
                 full_family: bool) -> tuple[int, int, int | None]:
    """(linked pairs, linked triples, linked families or None) of a
    distributive lattice's m intervals, as signed sums over its cubes
    (see `check_binarity`).

    below[a, b] is a <= b for the member rows mat, and index maps each
    row's key (`_row_keys`) to its position in mat: a cube's top is
    found by looking up the key of the pointwise max of the previous
    top and the new cover. A cube is
    a member x, a set S of its upper covers, its top join(S) and the
    position after S's last cover in x's run of covers. The cubes of
    dimension d + 1 extend those of dimension d by each later cover,
    so each set S is reached once. A cube is an interval, so there are
    at most m of them, and each C(c, 3) is below C(m, 3): the int64
    sums of one dimension stay below m * C(m, 3) < 2.2e18. The families
    are counted only with `full_family`, where m <= FULL_FAMILY_CAP
    keeps 2^c inside int64.
    """
    import numpy as np

    n = len(below)
    down, up = below.sum(axis=0), below.sum(axis=1)
    source, target = np.nonzero(_upper_covers(below))
    members = np.arange(n)
    stop = np.searchsorted(source, members, side="right")
    x, top, nxt = members, members, np.searchsorted(source, members)
    sums = [0, 0, 0, 0]
    sign = 1
    while len(x):
        c = down[x] * up[top]
        terms = [c, c * (c - 1) // 2, c * (c - 1) * (c - 2) // 6]
        if full_family:
            terms.append((1 << c) - 1 - c)
        for k, term in enumerate(terms):
            sums[k] += sign * int(term.sum())
        more = stop[x] - nxt
        cube = np.repeat(np.arange(len(x)), more)
        pos = nxt[cube] + np.arange(len(cube)) - np.repeat(np.cumsum(more) - more, more)
        tops = _row_keys(np.maximum(mat[top[cube]], mat[target[pos]]))
        x, top, nxt = x[cube], np.array([index[key] for key in tops], dtype=np.intp), pos + 1
        sign = -sign
    if sums[0] != m:
        raise AssertionError(
            f"cube counts hold {sums[0]} intervals, not {m}; covers or joins broken")
    return sums[1], sums[2], sums[3] if full_family else None


def _witness_midpoint(first: FiniteCapacity, second: FiniteCapacity,
                      ) -> tuple[int, Fraction]:
    """The first subset (ascending bitmask order) where the two disagree,
    and the midpoint of their two values there."""
    if first.domain.labels != second.domain.labels:
        raise DomainMismatch("separation needs a common domain")
    if first.values == second.values:
        raise EqualCapacities("cannot separate a capacity from itself")
    witness = next(m for m in range(first.domain.subset_count)
                   if first.values[m] != second.values[m])
    return witness, (first.values[witness] + second.values[witness]) / 2


def _halves(domain: Domain, witness: int, a: Fraction,
            ) -> tuple[CapacityInterval, CapacityInterval]:
    """The upper half {mu : mu(witness) >= a} and the lower half
    {mu : mu(witness) <= a}: the intervals [upper gate, top] and
    [bottom, lower gate], whose corners are ordered already. The two
    gates take the values 0, a and 1, and are built on ranks."""
    full = domain.full_mask
    levels, ((zero, mid, one),) = _ranked((Fraction(0), a, Fraction(1)))
    upper_gate = FiniteCapacity._from_ranks(domain, levels, [
        one if mask == full else (mid if mask & witness == witness else zero)
        for mask in range(domain.subset_count)
    ])
    lower_gate = FiniteCapacity._from_ranks(domain, levels, [
        zero if mask == 0 else (mid if mask | witness == witness else one)
        for mask in range(domain.subset_count)
    ])
    top, bottom = top_capacity(domain), bottom_capacity(domain)
    return (CapacityInterval(upper_gate, top, upper_gate, top),
            CapacityInterval(bottom, lower_gate, bottom, lower_gate))


def separating_halves(first: FiniteCapacity, second: FiniteCapacity,
                      ) -> tuple[CapacityInterval, CapacityInterval]:
    """Two intervals covering all capacities, each excluding one input.

    The witness is the first subset (ascending bitmask order) where the
    two disagree; `a` is the midpoint of the two values there. The first
    returned half holds the capacities with value >= a on the witness
    (excluding the smaller input), the second those with value <= a
    (excluding the larger input).
    """
    witness, a = _witness_midpoint(first, second)
    return _halves(first.domain, witness, a)


class SeparationReport(_Record):
    __slots__ = _fields = ("capacity_count", "pairs_checked", "failures", "seconds")

    def __init__(self, capacity_count: int, pairs_checked: int,
                 failures: tuple[tuple[int, int, str], ...], seconds: float):
        object.__setattr__(self, "capacity_count", capacity_count)
        object.__setattr__(self, "pairs_checked", pairs_checked)
        object.__setattr__(self, "failures", failures)
        object.__setattr__(self, "seconds", seconds)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "capacities": self.capacity_count,
            "pairs_checked": self.pairs_checked,
            "failures": [list(f) for f in self.failures],
            "passed": self.passed,
            "seconds": round(self.seconds, 3),
        }


def check_t2(space: GridCapacitySpace) -> SeparationReport:
    """For every distinct pair, verify that its two halves cover the whole
    space and that each half excludes one of the pair.

    A pair's halves are a function of its key: the witness w (the first
    subset where the two differ) and the midpoint a of their values
    there. So each key's halves are built once, by the `_halves`
    construction that `separating_halves` uses, and compared against
    every member of the space once: which members lie in each half, and
    whether the two halves cover the space. For each row p, one
    vectorised compare on the members' grid ranks gives the witnesses
    of all pairs (p, q > p); a dense table indexed by (witness, smaller
    rank, larger rank), filled before the pairs from every witness
    column and every two distinct ranks present in it, gives their keys.
    Each pair's cover and two exclusions are then table lookups. A
    repeated member raises EqualCapacities, as `separating_halves` does.
    """
    import numpy as np

    start = time.perf_counter()
    caps = space.capacities
    levels = space._levels
    ranks = np.array(space._ranks)
    n = len(caps)
    size = len(levels)
    # Every code (witness w, two distinct ranks present in column w) a
    # pair can have, mapped by key_of to its key (w, midpoint), whose
    # halves are built once: in_hi[k] and in_lo[k] say which members lie
    # in key k's upper and lower half.
    keys: dict[tuple[int, Fraction], int] = {}
    key_of = np.zeros(space.domain.subset_count * size * size, dtype=np.intp)
    for w, column in enumerate(zip(*space._ranks)):
        for r, t in combinations(sorted(set(column)), 2):
            key = (w, Fraction(levels[r] + levels[t], 2))
            key_of[(w * size + r) * size + t] = keys.setdefault(key, len(keys))
    in_hi = np.empty((len(keys), n), dtype=bool)
    in_lo = np.empty((len(keys), n), dtype=bool)
    for (w, a), k in keys.items():
        # A value is >= a corner value c iff its rank is >= the least rank
        # whose level is >= c, and <= c iff its rank is below the least
        # rank whose level is > c. The corners take few values (0, a and
        # 1), each bisected once; the corner tables map their ranks to those.
        halves = _halves(space.domain, w, a)
        values, corners = _ranked(*(c.values for half in halves
                                    for c in (half.lower, half.upper)))
        low = np.array([bisect_left(levels, v) for v in values])[corners[0::2]]
        high = np.array([bisect_right(levels, v) for v in values])[corners[1::2]]
        for inside, lo, hi in zip((in_hi, in_lo), low, high):
            inside[k] = (ranks >= lo).all(axis=1) & (ranks < hi).all(axis=1)
    covers = (in_hi | in_lo).all(axis=1)
    pairs = 0
    failures: list[tuple[int, int, str]] = []

    for p in range(n - 1):
        rest = ranks[p + 1:]
        differ = rest != ranks[p]
        if not differ.any(axis=1).all():
            raise EqualCapacities("cannot separate a capacity from itself")
        witness = differ.argmax(axis=1)
        rp = ranks[p, witness]
        rq = rest[np.arange(len(rest)), witness]
        kid = key_of[(witness * size + np.minimum(rp, rq)) * size + np.maximum(rp, rq)]
        qs = np.arange(p + 1, n)
        p_smaller = rp < rq
        bad_cover = ~covers[kid]
        bad_hi = in_hi[kid, np.where(p_smaller, p, qs)]
        bad_lo = in_lo[kid, np.where(p_smaller, qs, p)]
        for j in np.flatnonzero(bad_cover | bad_hi | bad_lo).tolist():
            q = p + 1 + j
            if bad_cover[j]:
                failures.append((p, q, "halves do not cover the space"))
            if bad_hi[j]:
                failures.append((p, q, "smaller endpoint not excluded from upper half"))
            if bad_lo[j]:
                failures.append((p, q, "larger endpoint not excluded from lower half"))
        pairs += len(rest)
    return SeparationReport(
        capacity_count=n,
        pairs_checked=pairs,
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
    )
