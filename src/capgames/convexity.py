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

Both checks read values only through order, so a space keeps each
member as its row of ranks into the sorted distinct grid, read off the
rank table the member keeps (`FiniteCapacity._ranks`) with only its few
levels looked up in the grid. The scans work on those ints as Python
int bitsets of the members (`_at_least`): up-sets, covers and halves
are their ANDs and differences, counts their sizes, sums exact ints,
and no n x n table is built. A half's corners are read as rank tables
too: their levels 0, a and 1 are each bisected once into a rank bound.
"""

from __future__ import annotations

import sys
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, combinations, repeat
from math import comb
from operator import and_, or_
from struct import Struct
from typing import Iterable, Sequence

from .capacity import (
    BudgetExceeded,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    _field_code,
    _grid_tables,
    _grid_values,
    _rank_store,
    _ranked,
    _rational_key,
    _Record,
    join,
    meet,
)

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
    which the scans compare, every row in the rank table type of the
    grid's level count (`_rank_store`). A row is read off the member's
    own rank table: only its levels are looked up in the grid, once for
    each levels tuple (the members of one batch share one), and a
    member whose levels are the grid's own shares its rank table as its
    row.
    """

    __slots__ = ("domain", "grid", "capacities", "_levels", "_ranks", "_pos", "_rank_of")
    _fields = ("domain", "grid", "capacities")

    def __init__(self, domain: Domain, grid: tuple[Fraction, ...],
                 capacities: tuple[FiniteCapacity, ...]):
        for k, cap in enumerate(capacities):
            if cap.domain.labels != domain.labels:
                raise DomainMismatch(
                    f"member {k} lives on {list(cap.domain.labels)}, "
                    f"the space on {list(domain.labels)}")
        levels, _ = _ranked(grid)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_rank_of",
                           dict(zip(map(_rational_key, levels), range(len(levels)))))
        # `_level_ranks` of each distinct levels tuple, by id: a batch
        # shares one tuple, and every member outlives this loop.
        to_grid: dict[int, list[int | None] | None] = {}
        rows = []
        for k, cap in enumerate(capacities):
            if id(cap._levels) not in to_grid:
                to_grid[id(cap._levels)] = self._level_ranks(cap)
            row = self._row(cap, to_grid[id(cap._levels)])
            if row is None:
                off = next(v for v in cap.values if _rational_key(v) not in self._rank_of)
                raise ValueError(f"member {k} has value {off}, which is off the grid")
            rows.append(row)
        ranks = tuple(rows)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "_ranks", ranks)
        # Reversed, so that a repeated member's first position wins.
        pos = {row: k for k, row in reversed(list(enumerate(ranks)))}
        object.__setattr__(self, "_pos", pos)

    def _level_ranks(self, cap: FiniteCapacity) -> list[int | None] | None:
        """The rank in the grid of each of the member's levels, None for
        a level off the grid; None for all when they are the first
        ranks of the grid in order, so that the member's ranks are its
        row already."""
        ranks = list(map(self._rank_of.get, map(_rational_key, cap._levels)))
        return None if ranks == list(range(len(ranks))) else ranks

    def _row(self, cap: FiniteCapacity, level_ranks: list[int | None] | None,
             ) -> bytes | tuple[int, ...] | None:
        """The member's row, given `_level_ranks(cap)`; None when it takes
        a value off the grid. A rank table of the row type is the row."""
        store = _rank_store(len(self._levels))
        if level_ranks is None:
            return store(cap._ranks)
        row = list(map(level_ranks.__getitem__, cap._ranks))
        return None if None in row else store(row)

    def index_of(self, cap: FiniteCapacity) -> int:
        if cap.domain.labels == self.domain.labels:
            row = self._row(cap, self._level_ranks(cap))
            if row is not None and row in self._pos:
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
    MAX_SPACE_MEMBERS tables. It fills the space afresh rather than read
    the grid search's space memo: a scan enumerates each space once and
    keeps the returned space, so the memo would only save repeat calls.
    """
    values = _grid_values(grid)
    caps = tuple(FiniteCapacity._many_from_ranks(
        domain, values, _grid_tables(domain, values)))
    return GridCapacitySpace(domain, values, caps)


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


def _at_least(rows: Sequence[Sequence[int]], size: int) -> list[list[int]]:
    """For each column w, the bitsets of the rows whose rank at w is at
    least r, for r = 0, ..., size (the last empty): bit k is row k."""
    exact = [[0] * (size + 1) for _ in rows[0]] if rows else []
    for k, row in enumerate(rows):
        bit = 1 << k
        for column, r in zip(exact, row):
            column[r] |= bit
    return [list(accumulate(reversed(column), or_))[::-1] for column in exact]


def _least(bits: int) -> int:
    """The position of the lowest set bit."""
    return (bits & -bits).bit_length() - 1


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
    so its intervals are the pairs (L, H) of members with L <= H, m of
    them, the sum of the members' up-set sizes. Intervals i and j meet
    in (join(L_i, L_j), meet(H_i, H_j)): linked iff that pair is
    ordered, and then again an interval. The pointwise max and min of
    every two members must be members (`_check_closure`):
    AssertionError otherwise, on a space that is not a lattice.

    Order intervals in a lattice have Helly number 2: if L_a <= H_b for
    every a, b of a family, the join of its lowers lies below the meet
    of its uppers. So no linked family can fail and `failures` is always
    empty. The space is a distributive lattice, and each of its
    intervals is contractible as a cube complex, whose cubes are its
    Boolean intervals [x, join(S)], S a set of upper covers of x. The
    cubes inside every interval of a family are those of its
    intersection, whose Euler characteristic, the sum of (-1)^|S| over
    the cubes it holds, is 1 if it is an interval and 0 if it is empty. With c = down(x) * up(join(S))
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
    start = time.perf_counter()
    if not space.capacities:
        return BinarityReport(0, 0, 0, 0, (), 0 if full_family else None,
                              time.perf_counter() - start)
    # Sorted, so that the index order extends the member order.
    rows = sorted(set(space._ranks))
    at_least = _at_least(rows, len(space._levels))
    # One up-set at a time, so that a space over budget stops early.
    ups, m = [], 0
    for row in rows:
        ups.append(reduce(and_, map(list.__getitem__, at_least, row)))
        m += ups[-1].bit_count()
        if m > INTERVAL_BUDGET:
            raise BudgetExceeded(f"binarity scan: at least {m} distinct intervals "
                                 f"exceed budget {INTERVAL_BUDGET}")
    if full_family and m > FULL_FAMILY_CAP:
        raise BudgetExceeded(f"binarity scan: full-family scan capped at "
                             f"{FULL_FAMILY_CAP} intervals, have {m}")
    _check_closure(rows, len(space._levels))
    downs = [len(rows) - reduce(or_, [column[r + 1] for column, r in zip(at_least, row)])
             .bit_count() for row in rows]  # The rest exceed x in some column.
    counts = _cube_counts(ups, downs, _upper_covers(ups), m, full_family)
    return BinarityReport(len(space.capacities), m, counts[0], counts[1], (), counts[2],
                          time.perf_counter() - start)


def _check_closure(rows: list[tuple[int, ...]], size: int) -> None:
    """AssertionError unless the pointwise max, and then the min, of every
    two rows (ranks below `size`) is a row. The rows are packed into the
    fields of one int (`_field_code`), a row's bytes its key. Row a,
    repeated, is subtracted from all later rows at once with their guard
    bits set: a guard bit stays set iff the later rank is at least row
    a's, and picks the max and the min."""
    code = _field_code(size)
    width = array(code).itemsize
    flat = array(code, chain.from_iterable(rows)).tobytes()
    step = len(flat) // len(rows)
    guards = (1 << 8 * width - 1).to_bytes(width, sys.byteorder) * (len(flat) // width)
    split = Struct(f"{step}s").iter_unpack
    keys = set(split(flat))
    meets_closed = True
    for start in range(step, len(flat), step):
        later, row, guard = (int.from_bytes(b, sys.byteorder) for b in (
            flat[start:], flat[start - step:start] * (len(rows) - start // step), guards[start:]))
        at_least = ((later | guard) - row) & guard
        take = (later ^ row) & (at_least - (at_least >> 8 * width - 1))
        joins, meets = ((v ^ take).to_bytes(len(flat) - start, sys.byteorder)
                        for v in (row, later))
        if not keys.issuperset(split(joins)):
            raise AssertionError("pointwise maximum of two members left the space; "
                                 "closure broken")
        meets_closed = meets_closed and keys.issuperset(split(meets))
    if not meets_closed:
        raise AssertionError("pointwise minimum of two members left the space; "
                             "closure broken")


def _upper_covers(ups: list[int]) -> list[list[int]]:
    """The upper covers of each member, ascending. ups[x] is the bitset of
    the members >= x, and the index order extends the member order, so
    the least member left in x's strict up-set is a cover, and removing
    its up-set leaves the other covers and what lies above them."""
    covers = []
    for x, up in enumerate(ups):
        rest, found = up ^ 1 << x, []
        while rest:
            found.append(_least(rest))
            rest &= ~ups[found[-1]]
        covers.append(found)
    return covers


def _cube_counts(ups: list[int], downs: list[int], covers: list[list[int]], m: int,
                 full_family: bool) -> tuple[int, int, int | None]:
    """(linked pairs, linked triples, linked families or None) of a
    distributive lattice's m intervals, as signed sums over its cubes
    (see `check_binarity`), in exact ints.

    ups[x] is the bitset of the members >= x, downs[x] the number of
    members <= x. A cube is x, a set S of its covers, its top join(S)
    and the position after S's last cover in covers[x]; adding a later
    cover y, the least member of the AND of their up-sets is the top.
    """
    sizes = [up.bit_count() for up in ups]
    sums = [0, 0, 0, 0]
    sign = 1
    cubes = [(x, x, 0) for x in range(len(ups))]
    while cubes:
        counts = [downs[x] * sizes[top] for x, top, _ in cubes]
        terms = [counts, map(comb, counts, repeat(2)), map(comb, counts, repeat(3))]
        if full_family:
            terms.append([(1 << c) - 1 - c for c in counts])
        for k, term in enumerate(terms):
            sums[k] += sign * sum(term)
        cubes = [(x, _least(ups[top] & ups[y]), j + 1) for x, top, after in cubes
                 for j, y in enumerate(covers[x][after:], after)]
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
    # Each values tuple is built on its read, so it is read once.
    ours, theirs = first.values, second.values
    if ours == theirs:
        raise EqualCapacities("cannot separate a capacity from itself")
    witness = next(m for m, (a, b) in enumerate(zip(ours, theirs)) if a != b)
    return witness, (ours[witness] + theirs[witness]) / 2


def _halves(domain: Domain, witness: int, a: Fraction,
            ) -> tuple[CapacityInterval, CapacityInterval]:
    """The upper half {mu : mu(witness) >= a} and the lower half
    {mu : mu(witness) <= a}: the intervals [upper gate, top] and
    [bottom, lower gate], whose corners are ordered already. The four
    corners take the values 0, a and 1, and are built on ranks as one
    batch (`FiniteCapacity._many_from_ranks`), so the levels are checked
    once."""
    full, masks = domain.full_mask, range(domain.subset_count)
    levels, ((zero, mid, one),) = _ranked((Fraction(0), a, Fraction(1)))
    upper_gate, top, bottom, lower_gate = FiniteCapacity._many_from_ranks(domain, levels, [
        [one if mask == full else (mid if mask & witness == witness else zero)
         for mask in masks],
        [one if mask else zero for mask in masks],
        [one if mask == full else zero for mask in masks],
        [zero if mask == 0 else (mid if mask | witness == witness else one)
         for mask in masks],
    ])
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
    there. Each key's halves, from every column and every two distinct
    ranks in it (each two ranks' midpoint computed once), are built once
    by `_halves`, whose four corners are one batch, as bitsets of the
    members inside them: the corners are read as rank tables, and only
    their levels are bisected into the space's levels. For each member
    p, one bitset holds the later
    members agreeing with p on every column before w; split by their
    rank at w, each piece is one key's pairs (p, q), counted by its size
    and checked by ANDs with the key's halves. A repeated member raises
    EqualCapacities, as `separating_halves` does.
    """
    start = time.perf_counter()
    rows, levels = space._ranks, space._levels
    everyone = (1 << len(rows)) - 1
    at_least = _at_least(rows, len(levels))
    exact = [[column[r] ^ column[r + 1] for r in range(len(levels))] for column in at_least]
    present = [sorted(set(column)) for column in zip(*rows)]
    # The midpoint of every two distinct ranks, once for all columns.
    midpoints = {(r, t): Fraction(levels[r] + levels[t], 2)
                 for r, t in combinations(sorted(set().union(*present)), 2)}
    # (members in the upper half, in the lower half, whether they cover
    # the space) of each key, and of each code (w, r, t) with r != t.
    sides, keys = {}, {}
    for w, ranks in enumerate(present):
        for r, t in combinations(ranks, 2):
            key = (w, midpoints[r, t])
            if key not in keys:
                caps = [c for half in _halves(space.domain, *key)
                        for c in (half.lower, half.upper)]
                # A rank is >= corner value v iff >= bisect_left(levels, v),
                # and <= v iff < bisect_right(levels, v). Only the corners'
                # levels are bisected, once for each levels tuple: the
                # corners of one batch share one.
                cuts = {}
                for c in caps:
                    if id(c._levels) not in cuts:
                        cuts[id(c._levels)] = ([bisect_left(levels, v) for v in c._levels],
                                               [bisect_right(levels, v) for v in c._levels])
                # Each corner's bound by mask: lower corners (even) bisect
                # left, upper corners (odd) right.
                bounds = [list(map(cuts[id(c._levels)][k % 2].__getitem__, c._ranks))
                          for k, c in enumerate(caps)]
                upper, lower = (
                    reduce(and_, [column[a] & ~column[b]
                                  for column, a, b in zip(at_least, bottom, top)], everyone)
                    for bottom, top in zip(bounds[0::2], bounds[1::2]))
                keys[key] = upper, lower, upper | lower == everyone
            sides[w, r, t] = sides[w, t, r] = keys[key]
    pairs = 0
    failures: list[tuple[int, int, str]] = []
    texts = ("halves do not cover the space", "smaller endpoint not excluded from upper half",
             "larger endpoint not excluded from lower half")
    for p, row in enumerate(rows):
        agree = everyone >> p + 1 << p + 1
        found = []
        for w, rp in enumerate(row):
            if not agree:
                break
            for r in present[w]:
                piece = agree & exact[w][r]
                if not piece or r == rp:
                    continue
                pairs += piece.bit_count()
                upper, lower, covered = sides[w, r, rp]
                # The smaller endpoint must be outside the upper half, the
                # larger outside the lower one.
                bad = (0 if covered else piece,
                       piece & upper if r < rp else piece * (upper >> p & 1),
                       piece * (lower >> p & 1) if r < rp else piece & lower)
                if any(bad):
                    found += [(q, kind) for kind, bits in enumerate(bad)
                              for q in range(p + 1, len(rows)) if bits >> q & 1]
            agree &= exact[w][rp]
        if agree:
            raise EqualCapacities("cannot separate a capacity from itself")
        failures += [(p, q, texts[kind]) for q, kind in sorted(found)]
    return SeparationReport(len(rows), pairs, tuple(failures), time.perf_counter() - start)
