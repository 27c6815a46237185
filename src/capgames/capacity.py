"""Finite labeled domains and exact monotone set functions on them.

A capacity assigns a rational in [0, 1] to every subset of a finite
domain, is 0 on the empty set, 1 on the full set, and is monotone under
inclusion. Nothing here assumes additivity. Subsets are bitmasks over
the domain's label order (bit k is labels[k]), and dense value tables
are tuples indexed by mask, validated as ranks into their sorted
distinct values (`_check_ranks`). Every layer reads values only through
order, so `_ranked` is the one integer encoding of them all. The rank
tables of every grid-valued capacity, which the convexity scans and the
grid equilibrium search both enumerate, are filled here too, under an
exhaustive budget.
"""

from __future__ import annotations

import functools
import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence, Union

__all__ = [
    "CapacityError",
    "NormalizationError",
    "MonotonicityError",
    "RangeError",
    "UnknownLabel",
    "EmptySupport",
    "DomainMismatch",
    "WeightSumError",
    "DomainTooLarge",
    "MissingSubset",
    "BudgetExceeded",
    "DENSE_DOMAIN_CAP",
    "Domain",
    "CapacityBase",
    "FiniteCapacity",
    "top_capacity",
    "bottom_capacity",
    "dirac_capacity",
    "possibility_capacity",
    "probability_capacity",
    "join",
    "meet",
    "pushforward",
    "vanishes_outside",
]


class CapacityError(Exception):
    """Base for all capacity construction and lookup failures."""


class NormalizationError(CapacityError):
    """Empty set not mapped to 0 or full set not mapped to 1."""


class MonotonicityError(CapacityError):
    """A subset received a larger value than a superset."""

    def __init__(self, small: tuple[str, ...], large: tuple[str, ...],
                 small_value: Fraction, large_value: Fraction):
        self.small = small
        self.large = large
        self.small_value = small_value
        self.large_value = large_value
        super().__init__(
            f"monotonicity violated: value {small_value} on {set(small) or '{}'} "
            f"exceeds value {large_value} on {set(large) or '{}'}"
        )


class RangeError(CapacityError):
    """A value lies outside [0, 1] where the contract requires otherwise."""


class UnknownLabel(CapacityError):
    """A label is not part of the domain."""


class EmptySupport(CapacityError):
    """A possibility capacity needs a nonempty support."""


class DomainMismatch(CapacityError):
    """Two objects that must share a domain do not."""


class WeightSumError(CapacityError):
    """Probability weights must sum to exactly 1."""


class DomainTooLarge(CapacityError):
    """Dense tables are capped at 20 points (2**20 subsets)."""


class MissingSubset(CapacityError):
    """A value table does not cover some subset."""

    def __init__(self, labels: tuple[str, ...]):
        self.labels = labels
        super().__init__(f"no value given for subset {set(labels) or '{}'}")


class BudgetExceeded(Exception):
    """Requested scan is beyond the configured exhaustive budget."""


DENSE_DOMAIN_CAP = 20
# Exhaustive grid spaces: domain points, grid values, and the members one
# enumeration may build. The 4-point {0, 1/2, 1} space has 7,246 members,
# the 4-point spaces on 4 or 5 grid values 145,954 and 1,753,909.
MAX_DOMAIN_POINTS = 4
MAX_GRID_POINTS = 5
MAX_SPACE_MEMBERS = 10_000

RationalLike = Union[Fraction, int]
SubsetLike = Union[int, Iterable[str]]


def _ranked(*tables: Sequence[RationalLike],
            ) -> tuple[list[RationalLike], list[list[int]]]:
    """The sorted distinct values of all the tables, and each table as
    ranks into them. Values are told apart by their (numerator,
    denominator) key, exact since ints and Fractions are kept in lowest
    terms, and cheaper than the Fraction hash (a modular inverse)."""
    key = operator.attrgetter("numerator", "denominator")
    keyed = [list(map(key, table)) for table in tables]
    distinct: dict[tuple[int, int], RationalLike] = {}
    for table, keys in zip(tables, keyed):
        distinct.update(zip(keys, table))
    order = sorted(distinct, key=distinct.__getitem__)
    rank = {k: r for r, k in enumerate(order)}
    return ([distinct[k] for k in order],
            [list(map(rank.__getitem__, keys)) for keys in keyed])


def _coerce_rational(value: RationalLike, context: str) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise TypeError(f"{context}: expected Fraction or int, got {type(value).__name__}")


class _Record:
    """Immutable record of the fields named in a subclass's `_fields`.

    Equal to records of the same class with equal fields, hashed as the
    tuple of its fields, and shown as `Cls(field=value, ...)`. Each
    subclass declares `__slots__` and sets them in `__init__` through
    `object.__setattr__`; any other assignment or deletion raises
    AttributeError. Copies and pickles are rebuilt through `__init__`
    from the fields, in order, which also refills the derived slots.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._astuple()


class Domain(_Record):
    """Ordered finite set of distinct labels; subsets are bitmasks over it."""

    __slots__ = ("labels", "_index")
    _fields = ("labels",)

    def __init__(self, labels: tuple[str, ...]):
        if not labels:
            raise ValueError("domain needs at least one label")
        if len(set(labels)) != len(labels):
            raise ValueError("domain labels must be distinct")
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                raise ValueError("domain labels must be nonempty strings")
            if "," in lab:
                raise ValueError(f"label {lab!r} may not contain ','")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {lab: k for k, lab in enumerate(labels)})

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << len(self.labels)) - 1

    @property
    def subset_count(self) -> int:
        return 1 << len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabel(f"label {label!r} not in domain {list(self.labels)}") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index_of(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        self.check_mask(mask)
        return tuple(lab for k, lab in enumerate(self.labels) if mask >> k & 1)

    def check_mask(self, mask: int) -> None:
        if not 0 <= mask <= self.full_mask:
            raise ValueError(f"mask {mask} out of range for {self.size}-point domain")

    def as_mask(self, subset: SubsetLike) -> int:
        if isinstance(subset, int) and not isinstance(subset, bool):
            self.check_mask(subset)
            return subset
        return self.mask_of(subset)


class CapacityBase:
    """Evaluation contract shared by dense tables and lazy tensor evaluators."""

    domain: Domain

    def value_mask(self, mask: int) -> Fraction:
        raise NotImplementedError

    def value(self, subset: SubsetLike) -> Fraction:
        return self.value_mask(self.domain.as_mask(subset))

    def is_vacuous(self) -> bool:
        """True iff every proper subset gets 0 (the bottom capacity).

        Monotonicity makes the co-singleton values decisive, so this
        needs just one evaluation per point.
        """
        full = self.domain.full_mask
        return all(self.value_mask(full ^ (1 << k)) == 0
                   for k in range(self.domain.size))


def _monotone_fill_order(domain: Domain) -> list[tuple[int, tuple[int, ...]]]:
    """Proper nonempty subsets in ascending (cardinality, bitmask) order,
    each with its lower covers (the subsets one point smaller).

    Filling in this order, a subset's only live monotonicity constraint
    is its floor: the max of the already-filled table over its covers.
    """
    order = sorted(range(1, domain.full_mask), key=lambda m: (m.bit_count(), m))
    return [(mask, tuple(mask ^ (1 << k) for k in range(domain.size) if mask >> k & 1))
            for mask in order]


def _grid_values(domain: Domain, grid: Iterable[RationalLike]) -> list[Fraction]:
    """The sorted distinct grid values, once the grid and the domain are
    checked against the exhaustive budget."""
    values, _ = _ranked([_coerce_rational(g, "grid value") for g in grid])
    for g in values:
        if g < 0 or g > 1:
            raise RangeError(f"grid value {g} outside [0, 1]")
    if Fraction(0) not in values or Fraction(1) not in values:
        raise ValueError("grid must contain 0 and 1")
    if domain.size > MAX_DOMAIN_POINTS:
        raise BudgetExceeded(
            f"domain has {domain.size} points, exhaustive budget stops at {MAX_DOMAIN_POINTS}"
        )
    if len(values) > MAX_GRID_POINTS:
        raise BudgetExceeded(
            f"grid has {len(values)} values, exhaustive budget stops at {MAX_GRID_POINTS}"
        )
    return values


def _grid_tables(domain: Domain,
                 values: Sequence[Fraction]) -> Iterator[list[int]]:
    """Dense rank table of every grid-valued capacity on the domain: the
    entry at each mask is a position in `values`, which is sorted and
    runs from 0 to 1 (build a member with `FiniteCapacity._from_ranks`).

    Subsets are filled in ascending cardinality order, so the only
    constraint live at each step is the maximum over the one-point-
    smaller subsets; every completion reaching the full set (forced to
    1) is monotone. Stops with BudgetExceeded before it would yield
    table MAX_SPACE_MEMBERS + 1.
    """
    full = domain.full_mask
    order = _monotone_fill_order(domain)
    table = {0: 0, full: len(values) - 1}

    def fill(pos: int) -> Iterator[list[int]]:
        if pos == len(order):
            yield [table[m] for m in range(full + 1)]
            return
        mask, covers = order[pos]
        for rank in range(max(table[c] for c in covers), len(values)):
            table[mask] = rank
            yield from fill(pos + 1)
        del table[mask]

    for count, dense in enumerate(fill(0)):
        if count == MAX_SPACE_MEMBERS:
            raise BudgetExceeded(
                f"{domain.size} points with {len(values)} grid values give "
                f"more than {MAX_SPACE_MEMBERS} capacities, the exhaustive budget")
        yield dense


def _check_domain_size(domain: Domain) -> None:
    if domain.size > DENSE_DOMAIN_CAP:
        raise DomainTooLarge(
            f"domain has {domain.size} points; dense tables stop at {DENSE_DOMAIN_CAP}"
        )


def _unit_ranks(levels: Sequence[Fraction]) -> range:
    """The ranks of the levels that lie in [0, 1]; the levels ascend, so
    these are one run."""
    return range(bisect_left(levels, 0), bisect_right(levels, 1))


def _check_ranks(domain: Domain, levels: Sequence[Fraction], unit: range,
                 ranks: Sequence[int]) -> None:
    """Validate the table values[mask] = levels[ranks[mask]] of strictly
    increasing levels, with `unit` = `_unit_ranks(levels)`, in this
    order: its length and rank bounds (ValueError), its range at the
    first mask outside [0, 1] (RangeError), 0 on the empty set and 1 on
    the full set (NormalizationError), then its cover pairs
    (MonotonicityError). Rank order is level order, so they compare ints."""
    if len(ranks) != domain.subset_count:
        raise ValueError(
            f"need {domain.subset_count} values for a {domain.size}-point domain, "
            f"got {len(ranks)}"
        )
    low, high = min(ranks), max(ranks)
    if low < 0 or high >= len(levels):
        raise ValueError(f"ranks must lie in range({len(levels)})")
    if low < unit.start or high >= unit.stop:
        mask = next(m for m, r in enumerate(ranks) if r not in unit)
        raise RangeError(f"value {levels[ranks[mask]]} on "
                         f"{set(domain.labels_of(mask)) or '{}'} outside [0, 1]")
    empty, full = levels[ranks[0]], levels[ranks[domain.full_mask]]
    if empty != 0:
        raise NormalizationError(f"empty set must get 0, got {empty}")
    if full != 1:
        raise NormalizationError(f"full set must get 1, got {full}")
    _check_cover_pairs(domain, ranks, levels)


@functools.cache
def _cover_masks(size: int, code: str) -> tuple[int, int, tuple[int, ...]]:
    """Field width in bits, and guard masks, of a rank table on `size`
    points packed into fields of the array typecode `code`: the guard
    (top) bit of every field, and for each point k the guard bits of the
    fields whose mask lacks k. One entry per (domain size, field width)
    pair, so at most 40; the largest, 20 points in 32-bit fields, holds
    21 ints of 4 MiB."""
    width = array(code).itemsize
    on = (1 << (8 * width - 1)).to_bytes(width, sys.byteorder)
    off = bytes(width)
    guard = int.from_bytes(on * (1 << size), sys.byteorder)
    # Point k's fields alternate in runs of 2^k: lacking k, then holding it.
    lacking = tuple(
        int.from_bytes((on * (1 << k) + off * (1 << k)) * (1 << (size - k - 1)),
                       sys.byteorder)
        for k in range(size))
    return 8 * width, guard, lacking


def _cover_pairs_hold(size: int, ranks: Sequence[int], level_count: int) -> bool:
    """Whether ranks[A] <= ranks[A + {x}] for every cover pair, decided
    on packed ints.

    Each rank fills one fixed-width field of a packed int, field A at
    mask A, and stays below the field's top (guard) bit: 16-bit fields
    while there are fewer than 2^15 levels, else 32-bit ones. For a
    point k, shifting right by 2^k fields puts ranks[A + 2^k] in field
    A; with the guard bits set, subtracting the packed ranks leaves each
    field's guard bit set iff its larger-set rank is at least its own,
    and no field borrows from the next. One AND with the mask of the
    fields lacking k then checks every cover pair along k at once.
    """
    code = "H" if level_count < 2**15 else "I"
    bits, guard, lacking = _cover_masks(size, code)
    packed = int.from_bytes(array(code, ranks).tobytes(), sys.byteorder)
    for k, mask in enumerate(lacking):
        if (((packed >> (bits << k)) | guard) - packed) & mask != mask:
            return False
    return True


def _check_cover_pairs(domain: Domain, ranks: Sequence[int],
                       levels: Sequence[Fraction]) -> None:
    """Raise MonotonicityError at the first cover pair (A, A + {x}), by
    mask of A and then by x, whose smaller set has the larger rank; the
    error reports the two levels.

    Cover pairs suffice: A <= A + {x} for every x outside A implies
    monotonicity for all nested pairs by transitivity. The table is
    first checked whole on packed ints (`_cover_pairs_hold`); the loop
    below runs only when that check fails, to name the first violating
    pair.
    """
    if _cover_pairs_hold(domain.size, ranks, len(levels)):
        return
    full = domain.full_mask
    for mask, r in enumerate(ranks):
        rest = full & ~mask
        while rest:
            bit = rest & -rest
            if r > ranks[mask | bit]:
                raise MonotonicityError(domain.labels_of(mask),
                                        domain.labels_of(mask | bit),
                                        levels[r], levels[ranks[mask | bit]])
            rest ^= bit


class FiniteCapacity(CapacityBase):
    """Dense, validated, immutable capacity on a domain of at most 20 points.

    `values` is the Fraction table, indexed by mask. Construction ranks
    it into its sorted distinct values (`_ranked`) and validates it on
    the ranks (`_check_ranks`).
    """

    __slots__ = ("domain", "values")

    def __init__(self, domain: Domain, values: Sequence[RationalLike]):
        _check_domain_size(domain)
        table = tuple(_coerce_rational(v, "capacity value") for v in values)
        levels, (ranks,) = _ranked(table)
        _check_ranks(domain, levels, _unit_ranks(levels), ranks)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", table)

    @classmethod
    def _from_ranks(cls, domain: Domain, levels: Sequence[RationalLike],
                    ranks: Sequence[int]) -> "FiniteCapacity":
        """Build from ranks into `levels`, a strictly increasing list:
        `_many_from_ranks` on one table. Constructors that know their
        table as ranks use it to skip `__init__`'s ranking of the values."""
        return cls._many_from_ranks(domain, levels, [ranks])[0]

    @classmethod
    def _many_from_ranks(cls, domain: Domain, levels: Sequence[RationalLike],
                         tables: Iterable[Sequence[int]]) -> list["FiniteCapacity"]:
        """Build one capacity per rank table into `levels`, a strictly
        increasing list; the domain and the levels are checked once.

        Each table is values[mask] = levels[ranks[mask]], validated by
        `_check_ranks` as in `__init__`, with the same exceptions and
        messages; only then is the Fraction table built. Levels that do
        not strictly increase, or ranks outside range(len(levels)),
        raise ValueError.
        """
        _check_domain_size(domain)
        levels = tuple(_coerce_rational(v, "capacity value") for v in levels)
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        unit = _unit_ranks(levels)
        caps = []
        for ranks in tables:
            _check_ranks(domain, levels, unit, ranks)
            cap = cls.__new__(cls)
            object.__setattr__(cap, "domain", domain)
            object.__setattr__(cap, "values", tuple(map(levels.__getitem__, ranks)))
            caps.append(cap)
        return caps

    def __setattr__(self, name, value):
        raise AttributeError("FiniteCapacity is immutable")

    def value_mask(self, mask: int) -> Fraction:
        return self.values[mask]

    @classmethod
    def from_table(cls, domain: Domain,
                   table: Mapping[frozenset, RationalLike] | Mapping[tuple, RationalLike],
                   ) -> "FiniteCapacity":
        """Build from a mapping keyed by label collections; every subset required."""
        by_mask: dict[int, Fraction] = {}
        for key, val in table.items():
            by_mask[domain.mask_of(key)] = _coerce_rational(val, "capacity value")
        values = []
        for mask in range(domain.subset_count):
            if mask not in by_mask:
                raise MissingSubset(domain.labels_of(mask))
            values.append(by_mask[mask])
        return cls(domain, values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteCapacity):
            return NotImplemented
        return self.domain.labels == other.domain.labels and self.values == other.values

    def __hash__(self) -> int:
        return hash((self.domain.labels, self.values))

    def __le__(self, other: "FiniteCapacity") -> bool:
        """Pointwise order over every subset."""
        _require_same_domain(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{set(self.domain.labels_of(m)) or '{}'}: {v}"
            for m, v in enumerate(self.values)
        )
        return f"FiniteCapacity({pairs})"


def _require_same_domain(a: CapacityBase, b: CapacityBase) -> None:
    if a.domain.labels != b.domain.labels:
        raise DomainMismatch(
            f"domains differ: {list(a.domain.labels)} vs {list(b.domain.labels)}"
        )


_ZERO_ONE = (Fraction(0), Fraction(1))


def top_capacity(domain: Domain) -> FiniteCapacity:
    """1 on every nonempty subset."""
    return FiniteCapacity._from_ranks(
        domain, _ZERO_ONE, [0] + [1] * (domain.subset_count - 1))


def bottom_capacity(domain: Domain) -> FiniteCapacity:
    """0 on every proper subset; the minimum of the pointwise order."""
    return FiniteCapacity._from_ranks(
        domain, _ZERO_ONE, [0] * domain.full_mask + [1])


def dirac_capacity(domain: Domain, label: str) -> FiniteCapacity:
    """Point mass: 1 exactly on subsets containing the label."""
    k = domain.index_of(label)
    return FiniteCapacity._from_ranks(
        domain, _ZERO_ONE, [mask >> k & 1 for mask in range(domain.subset_count)])


def possibility_capacity(domain: Domain, support: Iterable[str]) -> FiniteCapacity:
    """1 exactly on subsets meeting the support set."""
    smask = domain.mask_of(support)
    if smask == 0:
        raise EmptySupport("possibility capacity needs a nonempty support")
    return FiniteCapacity._from_ranks(
        domain, _ZERO_ONE,
        [1 if mask & smask else 0 for mask in range(domain.subset_count)])


def probability_capacity(domain: Domain,
                         weights: Mapping[str, RationalLike]) -> FiniteCapacity:
    """Additive capacity from point weights; weights must sum to exactly 1."""
    per_point = []
    for lab in domain.labels:
        if lab not in weights:
            raise UnknownLabel(f"no weight for label {lab!r}")
        w = _coerce_rational(weights[lab], "weight")
        if w < 0:
            raise RangeError(f"negative weight {w} for label {lab!r}")
        per_point.append(w)
    for lab in weights:
        domain.index_of(lab)
    total = sum(per_point, Fraction(0))
    if total != 1:
        raise WeightSumError(f"weights sum to {total}, need exactly 1")
    values = []
    for mask in range(domain.subset_count):
        acc = Fraction(0)
        m = mask
        while m:
            bit = m & -m
            acc += per_point[bit.bit_length() - 1]
            m ^= bit
        values.append(acc)
    return FiniteCapacity(domain, values)


def join(a: FiniteCapacity, b: FiniteCapacity) -> FiniteCapacity:
    """Pointwise maximum; the least upper bound in the capacity lattice."""
    _require_same_domain(a, b)
    return FiniteCapacity(a.domain, [max(x, y) for x, y in zip(a.values, b.values)])


def meet(a: FiniteCapacity, b: FiniteCapacity) -> FiniteCapacity:
    """Pointwise minimum; the greatest lower bound in the capacity lattice."""
    _require_same_domain(a, b)
    return FiniteCapacity(a.domain, [min(x, y) for x, y in zip(a.values, b.values)])


def pushforward(cap: FiniteCapacity, mapping: Mapping[str, str],
                codomain: Domain) -> FiniteCapacity:
    """Image capacity along a point map: value(A) = cap(preimage of A).

    The mapping must cover every point of cap's domain and land in the
    codomain. Boundary and monotonicity survive automatically but are
    re-validated on construction.
    """
    preimage_bits = []
    for k, lab in enumerate(cap.domain.labels):
        if lab not in mapping:
            raise UnknownLabel(f"map gives no image for label {lab!r}")
        target = mapping[lab]
        preimage_bits.append((1 << k, 1 << codomain.index_of(target)))
    values = []
    for mask in range(codomain.subset_count):
        pre = 0
        for src_bit, dst_bit in preimage_bits:
            if mask & dst_bit:
                pre |= src_bit
        values.append(cap.values[pre])
    return FiniteCapacity(codomain, values)


def vanishes_outside(cap: CapacityBase, subset: SubsetLike) -> bool:
    """True iff the capacity gives 0 to the complement of the subset.

    With monotonicity this pins every subset of the complement to 0, so
    the capacity is carried by the given set.
    """
    mask = cap.domain.as_mask(subset)
    return cap.value_mask(cap.domain.full_mask ^ mask) == 0
