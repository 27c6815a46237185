"""Finite labeled domains and exact monotone set functions on them.

A capacity assigns a rational in [0, 1] to every subset of a finite
domain, is 0 on the empty set, 1 on the full set, and is monotone under
inclusion. Nothing here assumes additivity. Subsets are bitmasks over
the domain's label order (bit k is labels[k]). A dense capacity stores
one table, its rank table: its sorted levels and, indexed by mask, the
rank of each subset's value among them, as bytes up to 256 levels
(`_rank_store`). Tables are validated on ranks (`_check_ranks`), and a
capacity's values are derived from its rank table. Every layer reads
values only through order, so `_ranked` is the one integer encoding of
them all, and a layer that reads a capacity's rank table ranks only its
few levels. The rank tables of every grid-valued capacity, which the
convexity scans and the grid equilibrium search both enumerate, are
filled here too, under an exhaustive budget; the grid search reads
them, and their members, from two bounded per-process memos.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

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


def _subset_text(labels: Sequence[str]) -> str:
    """A subset written as set text, its labels in domain order:
    {'a', 'b'}, and {} when empty. Unlike a set's repr, the order does not
    follow the string hash seed."""
    return "{" + ", ".join(map(repr, labels)) + "}"


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
            f"monotonicity violated: value {small_value} on {_subset_text(small)} "
            f"exceeds value {large_value} on {_subset_text(large)}"
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
        super().__init__(f"no value given for subset {_subset_text(labels)}")


class BudgetExceeded(Exception):
    """Requested scan is beyond the configured exhaustive budget."""


DENSE_DOMAIN_CAP = 20
# The members one exhaustive grid space may have, the only bound on its
# domain and grid (`_grid_tables`). The 4-point {0, 1/2, 1} space has
# 7,246 members and the 5-point {0, 1} space 7,579; the 4-point spaces
# on 4 or 5 grid values have 145,954 and 1,753,909.
MAX_SPACE_MEMBERS = 10_000
# The grid spaces kept for the process, in each of the two memos of rank
# tables (`_grid_space_tables`) and members (`_grid_space_members`). The
# largest space inside MAX_SPACE_MEMBERS, the 5-point {0, 1} space,
# holds 0.5 MiB of rank tables under tracemalloc, and 1.0 MiB with its
# members, which share those tables, so full memos retain about 4 MiB.
SPACE_MEMO_ENTRIES = 4

RationalLike = Union[Fraction, int]
SubsetLike = Union[int, Iterable[str]]


# The exact key of an int or Fraction: both are kept in lowest terms, and
# the key is cheaper to hash than a Fraction (a modular inverse).
_rational_key = operator.attrgetter("numerator", "denominator")


def _ranked(*tables: Sequence[RationalLike],
            ) -> tuple[list[RationalLike], list[list[int]]]:
    """The sorted distinct values of all the tables, and each table as
    ranks into them. Values are told apart by `_rational_key`."""
    keyed = [list(map(_rational_key, table)) for table in tables]
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

    def __init__(self, labels: Sequence[str]):
        labels = tuple(labels)
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

    __slots__ = ()
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


def _rank_store(level_count: int) -> type:
    """The type of a rank table into `level_count` levels: bytes, one
    byte a rank, up to 256 levels, else a tuple. Both are immutable and
    read the same way, and converting a table that has the type already
    returns it, shared."""
    return bytes if level_count <= 256 else tuple


def _grid_values(grid: Iterable[RationalLike]) -> tuple[Fraction, ...]:
    """The sorted distinct grid values, once checked to be rationals in
    [0, 1] that include 0 and 1; a tuple, so that it can key the space
    memos."""
    values, _ = _ranked([_coerce_rational(g, "grid value") for g in grid])
    for g in values:
        if g < 0 or g > 1:
            raise RangeError(f"grid value {g} outside [0, 1]")
    if Fraction(0) not in values or Fraction(1) not in values:
        raise ValueError("grid must contain 0 and 1")
    return tuple(values)


def _grid_tables(domain: Domain,
                 values: Sequence[Fraction]) -> list[list[int]]:
    """Dense rank table of every grid-valued capacity on the domain: the
    entry at each mask is a position in `values`, which is sorted and
    runs from 0 to 1 (build members with `FiniteCapacity._many_from_ranks`).

    The fill is breadth-first: every partial table grows by one subset
    at a time, in `_monotone_fill_order`, once for each rank from the
    subset's floor (the max over its lower covers, the only constraint
    live at that step) to the top; the full set is forced to 1. So the
    tables come in the lexicographic order of their ranks along the fill
    order, as a depth-first search would yield them. Each step counts
    its extensions before it builds them; the counts never fall from one
    step to the next, so BudgetExceeded is raised, before more than
    MAX_SPACE_MEMBERS partial tables are held, exactly when the space
    has more than MAX_SPACE_MEMBERS members. That is the only bound on a
    space. On 2 or more points the first steps give the singletons any
    grid values, len(values) ** size tables, so a space over the budget
    there is refused before the fill order is built; 1 point, 1 member.
    """
    too_large = BudgetExceeded(
        f"{domain.size} points with {len(values)} grid values give "
        f"more than {MAX_SPACE_MEMBERS} capacities, the exhaustive budget")
    if domain.size > 1 and len(values) ** domain.size > MAX_SPACE_MEMBERS:
        raise too_large
    full = domain.full_mask
    order = _monotone_fill_order(domain)
    # A partial table holds the ranks of the empty set, then of the
    # subsets filled so far, in fill order; the full set comes last.
    position = {0: 0, full: len(order) + 1}
    position.update((mask, p) for p, (mask, _) in enumerate(order, 1))
    ranks = [(r,) for r in range(len(values))]
    partial = [(0,)]
    for mask, covers in order:
        # The empty set's rank 0 joins every floor: it lowers no max, and
        # the getter returns a tuple even for a singleton's one cover.
        cover_ranks = operator.itemgetter(0, *map(position.__getitem__, covers))
        floors = [max(cover_ranks(t)) for t in partial]
        if len(values) * len(floors) - sum(floors) > MAX_SPACE_MEMBERS:
            raise too_large
        partial = [t + r for t, floor in zip(partial, floors) for r in ranks[floor:]]
    by_mask = operator.itemgetter(*map(position.__getitem__, range(full + 1)))
    return [list(by_mask(t + ranks[-1])) for t in partial]


@functools.lru_cache(maxsize=SPACE_MEMO_ENTRIES)
def _grid_space_tables(domain: Domain,
                       levels: tuple[Fraction, ...]) -> tuple[bytes | tuple[int, ...], ...]:
    """`_grid_tables` of the domain and the sorted grid `levels`, each
    table in the rank table type of the levels (`_rank_store`): no
    caller can change a shared table, and the members of
    `_grid_space_members` keep these tables as their own. A space depends
    only on its domain and grid, so the SPACE_MEMO_ENTRIES most recently
    used are kept for the process. A space over the budget raises every
    time: exceptions are not kept."""
    return tuple(map(_rank_store(len(levels)), _grid_tables(domain, levels)))


@functools.lru_cache(maxsize=SPACE_MEMO_ENTRIES)
def _grid_space_members(domain: Domain,
                        levels: tuple[Fraction, ...]) -> tuple["FiniteCapacity", ...]:
    """The members of `_grid_space_tables(domain, levels)`, in order,
    built and validated as one batch (`FiniteCapacity._many_from_ranks`)
    the first time and kept like the tables. Callers share the immutable
    members."""
    return tuple(FiniteCapacity._many_from_ranks(
        domain, levels, _grid_space_tables(domain, levels)))


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
                 tables: Sequence[Sequence[int]]) -> None:
    """Validate a batch of tables values[mask] = levels[ranks[mask]] of
    strictly increasing levels, with `unit` = `_unit_ranks(levels)`.

    The batch is checked whole first: every table's length; the least
    and greatest rank, against `unit` (which lies inside the rank
    bounds); the ranks at the empty and the full set, which must be the
    ranks of 0 and 1 (one Fraction compare per end for the batch); and
    the cover pairs of all tables at once (`_cover_violation`). Only if
    that fails are the tables checked one by one, in order, so the first
    bad table raises, in this order: its length and rank bounds
    (ValueError), its range at the first mask outside [0, 1]
    (RangeError), 0 on the empty set and 1 on the full set
    (NormalizationError), then the first violating cover pair that the
    same packed check names on the table alone (MonotonicityError).
    Rank order is level order, so they compare ints.
    """
    count, full = domain.subset_count, domain.full_mask
    if tables and all(map(count.__eq__, map(len, tables))):
        # The tables one after another; a single table needs no copy.
        flat = (tables[0] if len(tables) == 1
                else list(itertools.chain.from_iterable(tables)))
        distinct = set(flat)
        if (unit.start <= min(distinct) and max(distinct) < unit.stop
                and flat[::count].count(unit.start) == len(tables)
                and flat[full::count].count(unit.stop - 1) == len(tables)
                and levels[unit.start] == 0 and levels[unit.stop - 1] == 1
                and _cover_violation(domain.size, flat, len(levels)) is None):
            return
    for ranks in tables:
        if len(ranks) != count:
            raise ValueError(
                f"need {count} values for a {domain.size}-point domain, "
                f"got {len(ranks)}"
            )
        low, high = min(ranks), max(ranks)
        if low < 0 or high >= len(levels):
            raise ValueError(f"ranks must lie in range({len(levels)})")
        if low < unit.start or high >= unit.stop:
            mask = next(m for m, r in enumerate(ranks) if r not in unit)
            raise RangeError(f"value {levels[ranks[mask]]} on "
                             f"{_subset_text(domain.labels_of(mask))} outside [0, 1]")
        empty, whole = levels[ranks[0]], levels[ranks[full]]
        if empty != 0:
            raise NormalizationError(f"empty set must get 0, got {empty}")
        if whole != 1:
            raise NormalizationError(f"full set must get 1, got {whole}")
        violation = _cover_violation(domain.size, ranks, len(levels))
        if violation is not None:
            small, large = violation
            raise MonotonicityError(domain.labels_of(small), domain.labels_of(large),
                                    levels[ranks[small]], levels[ranks[large]])


def _field_code(level_count: int) -> str:
    """The typecode of fields that hold ranks below `level_count` under a
    clear top (guard) bit: 8 bits to 2^7 levels, 16 to 2^15, else 32."""
    return "B" if level_count <= 2**7 else "H" if level_count <= 2**15 else "I"


@functools.lru_cache(maxsize=128)
def _cover_masks(size: int, code: str, count: int) -> tuple[int, int, tuple[int, ...]]:
    """Field width in bits, and guard masks, of `count` rank tables on
    `size` points packed one after another into fields of the array
    typecode `code`: the guard (top) bit of every field, and for each
    point k the guard bits of the fields whose mask lacks k, repeated
    once per table. The 128 most recently used shapes are kept. Single
    tables give at most 60 (20 sizes, 3 widths), the largest, 20 points
    in 32-bit fields, holding 21 ints of 4 MiB. A grid space gives one
    per domain size and member count, the largest, the 5-point {0, 1}
    space's, 6 ints of 1.4 MiB; the corners of `convexity._halves` one
    per domain size; and a support scan's possibility capacities one
    per strategy domain size and number of supports its hits use, a
    count that only the scan bounds, hence the limit on entries."""
    width = array(code).itemsize
    on = (1 << (8 * width - 1)).to_bytes(width, sys.byteorder)
    off = bytes(width)
    fields = count << size
    guard = int.from_bytes(on * fields, sys.byteorder)
    # Point k's fields alternate in runs of 2^k: lacking k, then holding
    # it. The runs divide a table's 2^size fields, so they restart at
    # every table.
    lacking = tuple(
        int.from_bytes((on * (1 << k) + off * (1 << k)) * (fields >> (k + 1)),
                       sys.byteorder)
        for k in range(size))
    return 8 * width, guard, lacking


def _cover_violation(size: int, ranks: Sequence[int],
                     level_count: int) -> tuple[int, int] | None:
    """The first cover pair (A, A + {x}) with ranks[A] > ranks[A + {x}],
    by A and then by x, over a batch of rank tables on `size` points
    laid one after another (one table is a batch of one), decided on
    packed ints; None when every pair holds. A and A + {x} are indices
    into the batch, so for one table they are masks. Cover pairs
    suffice: they imply monotonicity for all nested pairs by
    transitivity.

    Each rank fills one fixed-width field of a packed int, field A of a
    table at its mask A, and stays below the field's top (guard) bit
    (`_field_code`). For a point k, shifting right by 2^k fields
    puts ranks[A + 2^k] in field A; for a mask A lacking k that field
    lies in A's own table, and the others are masked off, so no compare
    crosses a table. With the guard bits set, subtracting the packed
    ranks leaves each field's guard bit set iff its larger-set rank is
    at least its own, and no field borrows from the next. One AND with
    the mask of the fields lacking k then checks every cover pair along
    k at once, and the lowest guard bit it leaves clear is k's first
    failing field.
    """
    code = _field_code(level_count)
    bits, guard, lacking = _cover_masks(size, code, len(ranks) >> size)
    # bytes() converts a list of small ints about three times as fast. An
    # array is filled from a list: from a bytes table it would read the
    # bytes as raw fields.
    fields = bytes(ranks) if code == "B" else array(code, list(ranks)).tobytes()
    packed = int.from_bytes(fields, sys.byteorder)
    first = None
    for k, mask in enumerate(lacking):
        clear = mask ^ ((((packed >> (bits << k)) | guard) - packed) & mask)
        if clear:
            field = (clear & -clear).bit_length() // bits - 1
            if first is None or field < first[0]:
                first = field, field | 1 << k
    return first


class FiniteCapacity(CapacityBase, _Record):
    """Dense, validated, immutable capacity on a domain of at most 20 points.

    It stores one table, the rank table it was validated on
    (`_check_ranks`): `_levels`, a tuple strictly increasing from 0 to
    1, and `_ranks`, indexed by mask, the rank of each subset's value in
    `_levels`, bytes up to 256 levels and a tuple above (`_rank_store`).
    Grid spaces, the separation scan, tensor products and marginals
    read these and rank only the few levels. `values`, the Fraction
    table indexed by mask, is built from them on each read, so a loop
    binds it once. `__init__` ranks the values into their sorted
    distinct values (`_ranked`); `_many_from_ranks` keeps the caller's
    ranks and levels, so `_levels` may hold levels that no mask takes.
    A record of its domain and values (`_Record`): equality, hashing
    and repr read the values, not the rank table, and copies and
    pickles are rebuilt, and re-validated, by `__init__`.
    """

    __slots__ = ("domain", "_levels", "_ranks")
    _fields = ("domain", "values")

    def __init__(self, domain: Domain, values: Sequence[RationalLike]):
        _check_domain_size(domain)
        levels, (ranks,) = _ranked([_coerce_rational(v, "capacity value") for v in values])
        _check_ranks(domain, levels, _unit_ranks(levels), [ranks])
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "_levels", tuple(levels))
        object.__setattr__(self, "_ranks", _rank_store(len(levels))(ranks))

    @classmethod
    def _from_ranks(cls, domain: Domain, levels: Sequence[RationalLike],
                    ranks: Sequence[int]) -> "FiniteCapacity":
        """Build from ranks into `levels`, a strictly increasing list:
        `_many_from_ranks` on one table. Constructors that know their
        table as ranks use it to skip `__init__`'s ranking of the values."""
        return cls._many_from_ranks(domain, levels, [ranks])[0]

    @classmethod
    def _many_from_ranks(cls, domain: Domain, levels: Sequence[RationalLike],
                         tables: Sequence[Sequence[int]]) -> list["FiniteCapacity"]:
        """Build one capacity per rank table into `levels`, a strictly
        increasing list; the domain and the levels are checked once.

        Each table is values[mask] = levels[ranks[mask]]. The batch is
        validated at once by `_check_ranks`, and a bad table raises the
        exception and message `__init__` gives on its values, the first
        bad table in order winning; only then are the capacities built.
        Levels that do not strictly increase, or ranks outside
        range(len(levels)), raise ValueError.

        The capacities keep their rank tables: the levels, trimmed to
        those in [0, 1] (which every valid table stays in) and shared by
        the batch as one tuple, and each table as ranks into them in the
        type of the trimmed level count (`_rank_store`), shifted down
        past the trimmed levels below 0. A table of that type that needs
        no shift is shared, not copied, so the members of the grid space
        memo hold the memo's own tables; any other table is copied, and
        later changes to it change no capacity.
        """
        _check_domain_size(domain)
        levels = tuple(_coerce_rational(v, "capacity value") for v in levels)
        if any(a >= b for a, b in zip(levels, levels[1:])):
            raise ValueError("levels must be strictly increasing")
        unit = _unit_ranks(levels)
        _check_ranks(domain, levels, unit, tables)
        shift, levels = unit.start, levels[unit.start:unit.stop]
        store = _rank_store(len(levels))
        caps = []
        for ranks in tables:
            cap = cls.__new__(cls)
            object.__setattr__(cap, "domain", domain)
            object.__setattr__(cap, "_levels", levels)
            object.__setattr__(cap, "_ranks",
                               store(r - shift for r in ranks) if shift else store(ranks))
            caps.append(cap)
        return caps

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The value of every subset, indexed by mask, built from the rank
        table on each read."""
        return tuple(map(self._levels.__getitem__, self._ranks))

    def value_mask(self, mask: int) -> Fraction:
        if not 0 <= mask < len(self._ranks):
            self.domain.check_mask(mask)
        return self._levels[self._ranks[mask]]

    @classmethod
    def from_table(cls, domain: Domain,
                   table: Mapping[frozenset, RationalLike] | Mapping[tuple, RationalLike],
                   ) -> "FiniteCapacity":
        """Build from a mapping keyed by label collections; every subset
        required, each once."""
        by_mask: dict[int, Fraction] = {}
        for key, val in table.items():
            mask = domain.mask_of(key)
            if mask in by_mask:
                raise ValueError(f"subset {_subset_text(domain.labels_of(mask))} "
                                 f"given twice, the second time as {key!r}")
            by_mask[mask] = _coerce_rational(val, "capacity value")
        values = []
        for mask in range(domain.subset_count):
            if mask not in by_mask:
                raise MissingSubset(domain.labels_of(mask))
            values.append(by_mask[mask])
        return cls(domain, values)

    def __le__(self, other: "FiniteCapacity") -> bool:
        """Pointwise order over every subset."""
        _require_same_domain(self, other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{_subset_text(self.domain.labels_of(m))}: {v}"
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
    return _possibility(domain, domain.full_mask)


def bottom_capacity(domain: Domain) -> FiniteCapacity:
    """0 on every proper subset; the minimum of the pointwise order."""
    return FiniteCapacity._from_ranks(
        domain, _ZERO_ONE, [0] * domain.full_mask + [1])


def dirac_capacity(domain: Domain, label: str) -> FiniteCapacity:
    """Point mass: 1 exactly on subsets containing the label."""
    return _possibility(domain, 1 << domain.index_of(label))


def possibility_capacity(domain: Domain, support: Iterable[str]) -> FiniteCapacity:
    """1 exactly on subsets meeting the support set."""
    smask = domain.mask_of(support)
    if smask == 0:
        raise EmptySupport("possibility capacity needs a nonempty support")
    return _possibility(domain, smask)


def _possibility(domain: Domain, support: int) -> FiniteCapacity:
    """`possibility_capacity` on a nonempty support mask: `_possibilities`
    on one support."""
    return _possibilities(domain, [support])[0]


def _possibilities(domain: Domain, supports: Sequence[int]) -> list[FiniteCapacity]:
    """The {0, 1} capacity that is 1 exactly on the sets meeting each
    nonempty support mask, in order, built and validated as one batch
    (`FiniteCapacity._many_from_ranks`): the one constructor of these
    capacities, the top and Dirac capacities among them."""
    masks = range(domain.subset_count)
    return FiniteCapacity._many_from_ranks(
        domain, _ZERO_ONE,
        [[1 if mask & support else 0 for mask in masks] for support in supports])


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
    codomain. The image is built on cap's rank table: each subset takes
    the rank of its preimage (`FiniteCapacity._from_ranks`). Boundary
    and monotonicity survive automatically but are re-validated.
    """
    preimage_bits = []
    for k, lab in enumerate(cap.domain.labels):
        if lab not in mapping:
            raise UnknownLabel(f"map gives no image for label {lab!r}")
        target = mapping[lab]
        preimage_bits.append((1 << k, 1 << codomain.index_of(target)))
    ranks = []
    for mask in range(codomain.subset_count):
        pre = 0
        for src_bit, dst_bit in preimage_bits:
            if mask & dst_bit:
                pre |= src_bit
        ranks.append(cap._ranks[pre])
    return FiniteCapacity._from_ranks(codomain, cap._levels, ranks)


def vanishes_outside(cap: CapacityBase, subset: SubsetLike) -> bool:
    """True iff the capacity gives 0 to the complement of the subset.

    With monotonicity this pins every subset of the complement to 0, so
    the capacity is carried by the given set.
    """
    mask = cap.domain.as_mask(subset)
    return cap.value_mask(cap.domain.full_mask ^ mask) == 0
