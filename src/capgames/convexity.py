"""Interval convexity diagnostics over exhaustively enumerated capacity spaces.

The convex sets here are order intervals [first, second] = every
capacity pointwise between the meet and join of two endpoints. Two
checks run over an exhaustively enumerated space of grid-valued
capacities:

* binarity: every pairwise-intersecting ("linked") triple of intervals
  has a common element inside the space. A grid space is a lattice
  under pointwise max (join) and min (meet), so an interval is a pair
  (lower, upper) of space members, the intersection of two linked
  intervals is (join of the lowers, meet of the uppers), again an
  interval, and the scan runs on member indices through join, meet and
  order tables.
* pair separation: any two distinct capacities split the space into two
  intervals built from a witness subset and the midpoint of the two
  values there, each endpoint falling outside one half. The halves are
  a function of the (witness, midpoint) key, so the scan builds and
  checks them once per key and decides every pair by table lookup.

Both checks read values only through order, so a space ranks each
member into its sorted distinct grid once (`capacity._ranked`), and the
scans compare those ints in numpy batches; a half's corners, midpoints
included, become rank bounds by bisection. The binarity scan keeps its
interval links as packed uint64 rows and checks triples by row ANDs and
popcounts.
"""

from __future__ import annotations

import time
from bisect import bisect_left, bisect_right
from fractions import Fraction
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

FULL_FAMILY_CAP = 18
# Distinct intervals one binarity scan may hold; beyond, BudgetExceeded.
INTERVAL_BUDGET = 60000
# Failures one binarity scan lists; the scan stops recording there.
FAILURE_CAP = 16
# Binarity scan blocks: link-table entries per block of rows, and packed
# words per block of linked pairs.
_BLOCK_ENTRIES = 1 << 16
_BLOCK_WORDS = 1 << 15


class EqualCapacities(Exception):
    """Separation needs two distinct capacities."""


class GridCapacitySpace(_Record):
    """Every capacity on the domain whose values all lie in the grid.

    `enumerate_capacities` builds the full space. A space built by hand,
    such as a subset of it, must be closed under pointwise max and min
    (a sublattice) for `check_binarity`, which raises AssertionError
    otherwise. Every member value must lie in the grid: ValueError names
    the first member and value that do not. Each member is kept as its
    row of ranks into the sorted distinct grid, which the scans compare.
    """

    __slots__ = ("domain", "grid", "capacities", "_levels", "_ranks", "_pos")
    _fields = ("domain", "grid", "capacities")

    def __init__(self, domain: Domain, grid: tuple[Fraction, ...],
                 capacities: tuple[FiniteCapacity, ...]):
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
        object.__setattr__(self, "_pos", {row: k for k, row in enumerate(ranks)})

    def index_of(self, cap: FiniteCapacity) -> int:
        levels, (_, row) = _ranked(self._levels, cap.values)
        row = tuple(row)
        if len(levels) > len(self._levels) or row not in self._pos:
            raise ValueError("capacity is not a member of this space")
        return self._pos[row]

    def __len__(self) -> int:
        return len(self.capacities)


def enumerate_capacities(domain: Domain,
                         grid: Iterable[Fraction | int]) -> GridCapacitySpace:
    """Exhaustively enumerate the grid-valued capacities on the domain.

    Members come in the fill order of `_grid_tables` (ascending
    cardinality, each subset's grid values ascending); construction
    validates each one on its rank table. The enumeration stops with
    BudgetExceeded before it would build member MAX_SPACE_MEMBERS + 1.
    """
    values = _grid_values(domain, grid)
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


def _member_table(mat: np.ndarray, op) -> np.ndarray:
    """table[a, b] = index of the row op(mat[a], mat[b]) in mat.

    `mat` holds distinct rows in lexicographic order, as np.unique
    returns them. Raises AssertionError if some op(mat[a], mat[b]) is
    not a row of mat, i.e. if the space is not closed under op.
    """
    import numpy as np

    n = len(mat)
    pairs = op(mat[:, None], mat[None]).reshape(n * n, -1)
    found, index = np.unique(np.concatenate((mat, pairs)), axis=0, return_inverse=True)
    if len(found) != n:
        raise AssertionError(
            f"pointwise {op.__name__} of two members left the space; closure broken")
    return index.reshape(-1)[n:].reshape(n, n)


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
    """Scan every linked interval triple for an empty common part.

    The space is a lattice under pointwise max (join) and min (meet),
    so the interval of two members x, y is the pair of members
    (meet(x, y), join(x, y)), and the intervals are exactly the pairs
    (L, H) of members with L <= H, numbered in the order of their
    (lower, upper) grid rank rows. Intervals i and j meet in
    (join(L_i, L_j), meet(H_i, H_j)): they are linked iff that pair is
    ordered, and it is then again an interval, i ∩ j. So a pairwise
    linked triple {i, j, k} with i < j < k has a common member iff k is
    linked to i ∩ j. Building the join and meet tables checks closure
    for every pair of members and raises AssertionError on a space that
    is not a lattice.

    Each interval's links are one row of packed uint64 words, built in
    bounded blocks of rows. The linked pairs are then walked in blocks
    of about _BLOCK_WORDS words: per pair (i, j), one row AND gives the
    k linked to both, one popcount counts them, and a second AND with
    the row of i ∩ j leaves the failures, unpacked only when some word
    is nonzero. Failures come in (i, j, k) order, and the scan stops
    recording them once FAILURE_CAP are listed, full family included.
    The full-family scan runs on the same rows as Python integers. A
    space with no members has no intervals and passes.
    """
    import numpy as np

    start = time.perf_counter()
    if not space.capacities:
        return BinarityReport(0, 0, 0, 0, (), 0 if full_family else None,
                              time.perf_counter() - start)
    # np.unique is asked for counts it drops: with no return flag, numpy
    # imports numpy.ma to test for a masked array.
    mat, _ = np.unique(np.array(space._ranks), axis=0, return_counts=True)
    n = len(mat)
    # Row by row, so that a space far over budget stops before n x n tables.
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
    lows, highs = np.nonzero(below)
    if full_family and m > FULL_FAMILY_CAP:
        raise BudgetExceeded(
            f"binarity scan: full-family scan capped at {FULL_FAMILY_CAP} "
            f"intervals, have {m}"
        )

    join_of = _member_table(mat, np.maximum)
    meet_of = _member_table(mat, np.minimum)
    interval_of = np.full((n, n), -1, dtype=np.intp)
    interval_of[lows, highs] = np.arange(m)

    # link[i] packs the intervals linked to i, later[i] those of them
    # above i; bit k of a row is bit k % 64 of its word k // 64.
    words, row_bytes = -(-m // 64), -(-m // 8)
    link = np.zeros((m, words), dtype=np.uint64)
    later = np.zeros((m, words), dtype=np.uint64)
    block_rows = max(1, _BLOCK_ENTRIES // m)
    for a in range(0, m, block_rows):
        block = slice(a, a + block_rows)
        linked = interval_of[join_of[lows[block, None], lows],
                             meet_of[highs[block, None], highs]] >= 0
        link.view(np.uint8)[block, :row_bytes] = np.packbits(
            linked, axis=1, bitorder="little")
        later.view(np.uint8)[block, :row_bytes] = np.packbits(
            np.triu(linked, a + 1), axis=1, bitorder="little")

    # Over the linked pairs i < j, later[i] & link[j] holds every k > i
    # linked to both: j itself once per pair, and each triple i < j < k
    # twice, at (i, j) and at (i, k). Its failures are the k > j of
    # that set that are not linked to i ∩ j.
    linked_pairs = int(np.bitwise_count(later).sum())
    counted = 0
    failures: list[tuple[int, int, int]] = []
    pair_block = max(1, _BLOCK_WORDS // words)
    for a in range(0, m, block_rows):
        firsts, seconds = np.nonzero(np.unpackbits(
            later[a:a + block_rows].view(np.uint8), axis=1, count=m, bitorder="little"))
        firsts += a
        for b in range(0, len(firsts), pair_block):
            i, j = firsts[b:b + pair_block], seconds[b:b + pair_block]
            common = later[i] & link[j]
            counted += int(np.bitwise_count(common).sum())
            if len(failures) == FAILURE_CAP:
                continue
            inside = interval_of[join_of[lows[i], lows[j]], meet_of[highs[i], highs[j]]]
            bad = common & ~link[inside]
            for p in np.flatnonzero(bad.any(axis=1)).tolist():
                ks = np.flatnonzero(np.unpackbits(
                    bad[p].view(np.uint8), count=m, bitorder="little"))
                ks = ks[ks > j[p]][:FAILURE_CAP - len(failures)]
                failures.extend((int(i[p]), int(j[p]), k) for k in ks.tolist())
                if len(failures) == FAILURE_CAP:
                    break
    triples_checked = (counted - linked_pairs) // 2

    full_family_sets = None
    if full_family:
        full_family_sets = 0
        all_mask = (1 << m) - 1
        rows = [int.from_bytes(row.tobytes(), "little") for row in link]

        def grow(members: list[int], candidates: int, box_lo, box_hi) -> None:
            nonlocal full_family_sets
            rest = candidates
            while rest:
                low = rest & -rest
                k = low.bit_length() - 1
                rest ^= low
                nlo = join_of[box_lo, lows[k]]
                nhi = meet_of[box_hi, highs[k]]
                nm = members + [k]
                if len(nm) >= 2:
                    full_family_sets += 1
                    if not below[nlo, nhi] and len(failures) < FAILURE_CAP:
                        failures.append(tuple(nm[:3]))
                grow(nm, rest & rows[k], nlo, nhi)

        for i in range(m):
            grow([i], rows[i] & (all_mask << (i + 1)), lows[i], highs[i])

    return BinarityReport(
        capacity_count=len(space.capacities),
        interval_count=m,
        linked_pairs=linked_pairs,
        triples_checked=triples_checked,
        failures=tuple(failures),
        full_family_sets=full_family_sets,
        seconds=time.perf_counter() - start,
    )


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
    rank, larger rank) gives their keys, so only codes not seen before
    reach the key dictionary. Each pair's cover and two exclusions are
    then table lookups. A repeated member raises EqualCapacities, as
    `separating_halves` does.
    """
    import numpy as np

    start = time.perf_counter()
    caps = space.capacities
    for cap in caps[1:]:
        if cap.domain.labels != caps[0].domain.labels:
            raise DomainMismatch("separation needs a common domain")
    levels = space._levels
    ranks = np.array(space._ranks)
    n = len(caps)
    size = len(levels)
    # Per key (witness, midpoint): its row in the tables; key_of maps
    # each (witness, smaller rank, larger rank) code to its key.
    keys: dict[tuple[int, Fraction], int] = {}
    key_of = np.full(ranks.shape[-1] * size * size, -1, dtype=np.intp)
    in_hi: list[np.ndarray] = []
    in_lo: list[np.ndarray] = []
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
        codes = (witness * size + np.minimum(rp, rq)) * size + np.maximum(rp, rq)
        kid = key_of[codes]
        if (kid < 0).any():
            known = len(keys)
            # Most rows bring a few new codes, which a set sorts faster
            # than np.unique; with no return flag, np.unique would also
            # import numpy.ma.
            for code in sorted(set(codes[kid < 0].tolist())):
                w, pair = divmod(code, size * size)
                key = (w, Fraction(levels[pair // size] + levels[pair % size], 2))
                if key not in keys:
                    keys[key] = len(keys)
                    # A value is >= a corner value c iff its rank is >= the
                    # least rank whose level is >= c, and <= c iff its rank
                    # is below the least rank whose level is > c.
                    for half, inside in zip(_halves(caps[0].domain, w, key[1]),
                                            (in_hi, in_lo)):
                        low = [bisect_left(levels, c) for c in half.lower.values]
                        high = [bisect_right(levels, c) for c in half.upper.values]
                        inside.append((ranks >= low).all(axis=1) & (ranks < high).all(axis=1))
                key_of[code] = keys[key]
            if known < len(keys):
                hi_table, lo_table = np.array(in_hi), np.array(in_lo)
                covers = (hi_table | lo_table).all(axis=1)
            kid = key_of[codes]
        qs = np.arange(p + 1, n)
        p_smaller = rp < rq
        bad_cover = ~covers[kid]
        bad_hi = hi_table[kid, np.where(p_smaller, p, qs)]
        bad_lo = lo_table[kid, np.where(p_smaller, qs, p)]
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
