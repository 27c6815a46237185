"""Tensor products of capacities over product domains.

The two-factor product evaluates, for each product subset B, the
classical Sugeno integral of the section map x -> mu2(B_x) against mu1:

    (mu1 (x) mu2)(B) = sup { t in [0,1] : mu1({x : mu2(B_x) >= t}) >= t }

The sup is attained at a section value, which is what the classical
integral's level-set form computes; a brute-force t-scan over candidate
levels re-validates this in the test suite. Equivalently, the value is
the max over sets A of first-factor points of min(mu1(A), min over x in
A of mu2(B_x)). Splitting that max on whether A holds the first point
builds the dense table from two tables on one first-factor point fewer
(see `tensor2`). The formula uses only min, max and order, so
the dense product runs on ranks: only the factors' levels are ranked
into one sorted list, each factor's rank table is mapped into it, the
table and its capacity validation compare ints, and the ranks become
Fractions only in the returned table. Factors with equal levels, every
possibility capacity among them, skip both steps: their levels are the
list and their ranks are read as they are. The dense table is built in
its capacity's rank table type (bytes up to 256 levels), validated and
kept with no copy. The lazy evaluator runs the
level-set loop on ranks the same way and maps each rank it returns back
to its value. Products of
three or more factors are the left-associated fold of the two-factor
product; associativity is never assumed (a probe reports bracketing
differences).

Flat product domains index tuples row-major in ascending factor order
and label them by joining the factor labels with "|". The structure
(factor list, index maps) is carried by ProductDomain; labels are never
re-parsed. `product_domain` keeps a bounded per-process memo of them, so
equal factor tuples share one product domain.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Callable, Sequence

from .capacity import (
    CapacityBase,
    CapacityError,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    DENSE_DOMAIN_CAP,
    _ZERO_ONE,
    _Record,
    _rank_store,
    _ranked,
    _vacuous_ranks,
    pushforward,
)
from .sugeno import _level_set_max, _level_sets

__all__ = [
    "ProductTooLarge",
    "ProductDomain",
    "product_domain",
    "tensor2",
    "tensor_many",
    "marginal",
    "LazyTensorCapacity",
    "lazy_tensor",
    "materialize",
    "associativity_probe",
]


class ProductTooLarge(CapacityError):
    """Dense product table would exceed the dense domain cap."""


def _row_major_strides(sizes: Sequence[int]) -> tuple[int, ...]:
    """Flat-index step of each axis, the last axis varying fastest."""
    strides = [1] * len(sizes)
    for k in range(len(sizes) - 1, 0, -1):
        strides[k - 1] = strides[k] * sizes[k]
    return tuple(strides)


class ProductDomain(_Record):
    """Ordered factor domains with a flat, row-major indexed label domain.

    `flat` is derived from the factors."""

    __slots__ = ("factors", "flat", "_sizes", "_strides")
    _fields = ("factors",)

    def __init__(self, factors: tuple[Domain, ...]):
        object.__setattr__(self, "factors", factors)
        # Called through self, so that perfbench's tracer, which patches
        # the method on the class, counts every build.
        self.__post_init__()

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        sizes = tuple(d.size for d in self.factors)
        # itertools.product varies the last factor fastest: row-major.
        labels = tuple("|".join(point) for point in
                       itertools.product(*(d.labels for d in self.factors)))
        try:
            flat = Domain(labels)
        except ValueError:
            # Factor labels may contain "|": name two points that join
            # to one label.
            seen: dict[str, tuple[str, ...]] = {}
            for point in itertools.product(*(d.labels for d in self.factors)):
                label = "|".join(point)
                if label in seen:
                    raise ValueError(
                        f"factor points {seen[label]} and {point} join to the "
                        f"same product label {label!r}") from None
                seen[label] = point
            raise
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_strides", _row_major_strides(sizes))
        object.__setattr__(self, "flat", flat)

    @property
    def sizes(self) -> tuple[int, ...]:
        return self._sizes

    @property
    def size(self) -> int:
        return self.flat.size

    def index_of(self, point: Sequence[str]) -> int:
        if len(point) != len(self.factors):
            raise ValueError(f"point needs {len(self.factors)} coordinates")
        idx = 0
        for lab, d, stride in zip(point, self.factors, self._strides):
            idx += d.index_of(lab) * stride
        return idx

    def point_at(self, index: int) -> tuple[str, ...]:
        if not 0 <= index < self.size:
            raise ValueError(f"index {index} out of range")
        return tuple(
            d.labels[(index // stride) % d.size]
            for d, stride in zip(self.factors, self._strides)
        )

    def mask_of_box(self, coordinate_masks: Sequence[int]) -> int:
        """Flat mask of a product-of-subsets box, one mask per factor.

        Row-major order puts the last factor's points in the low bits, so
        the box is the last factor's mask, repeated for each earlier
        factor at the stride of every point its mask holds."""
        if len(coordinate_masks) != len(self.factors):
            raise ValueError("one coordinate mask per factor required")
        for d, cmask in zip(self.factors, coordinate_masks):
            d.check_mask(cmask)
        box = 1
        for stride, cmask in zip(reversed(self._strides), reversed(coordinate_masks)):
            row = 0
            while cmask:
                low = cmask & -cmask
                row |= box << (stride * (low.bit_length() - 1))
                cmask ^= low
            box = row
        return box


# The product domains kept for the process (`product_domain`). A pass of
# dense-beliefs uses 9 factor tuples, and a support scan one per player of
# each game's strategy domains.
PRODUCT_MEMO_ENTRIES = 64


def product_domain(factors: Sequence[Domain]) -> ProductDomain:
    """The product of the factor domains, in order.

    A product domain is an immutable record of its factors, so the
    PRODUCT_MEMO_ENTRIES most recently used are kept for the process,
    keyed by the factor tuple (`_product_domain`): equal factor tuples
    give the same object, built once, and `tensor2` shares its
    caller's. A factor tuple that cannot form a product raises every
    time: exceptions are not kept."""
    return _product_domain(tuple(factors))


@functools.lru_cache(maxsize=PRODUCT_MEMO_ENTRIES)
def _product_domain(factors: tuple[Domain, ...]) -> ProductDomain:
    return ProductDomain(factors)


def _table(cap: CapacityBase) -> Sequence[Fraction]:
    """Dense value table of any capacity, indexed by mask, read mask by
    mask: for `materialize`, and for capacities that keep no rank table."""
    return [cap.value_mask(mask) for mask in range(cap.domain.subset_count)]


def _factor_levels(factors: Sequence[CapacityBase],
                   ) -> tuple[Sequence[Fraction], list[list[int] | None]]:
    """The sorted distinct levels of the factors, with 0 and 1, and the
    rank in them of each factor's levels, None for a factor whose own
    ranks are ranks into them.

    When every factor keeps a rank table (a FiniteCapacity or a lazy
    product) and all their `_levels` are equal, those are the levels and
    every factor's ranks are its own: nothing is ranked. Every
    possibility capacity has levels (0, 1), so every support-scan belief
    is built so. Otherwise the levels are ranked (`_ranked` on the
    levels only): a FiniteCapacity's `_levels`, a lazy product's
    `_levels`, and the whole value table of any other capacity, each
    entry its own level."""
    if all(isinstance(f, (FiniteCapacity, LazyTensorCapacity)) for f in factors):
        levels = factors[0]._levels
        # Tuples of unequal length compare item by item first.
        if all(len(f._levels) == len(levels) and f._levels == levels for f in factors[1:]):
            return levels, [None] * len(factors)
    levels, (_, *level_ranks) = _ranked(_ZERO_ONE, *(
        f._levels if isinstance(f, (FiniteCapacity, LazyTensorCapacity)) else _table(f)
        for f in factors))
    return tuple(levels), level_ranks


def _dense_ranks(cap: CapacityBase, level_ranks: list[int] | None,
                 store: type) -> Sequence[int]:
    """A factor's ranks by mask into the levels of `_factor_levels`,
    given its `level_ranks` there, in `store`, the rank table type of
    those levels (`_rank_store`): a FiniteCapacity's own `_ranks`,
    shared, when `level_ranks` is None (its levels are those levels, so
    its table has that type already), and a lazy product's read mask by
    mask through `_rank`."""
    if isinstance(cap, FiniteCapacity):
        ranks = cap._ranks
    elif isinstance(cap, LazyTensorCapacity):
        ranks = map(cap._rank, range(cap.domain.subset_count))
    else:
        # Its levels are its value table, so their ranks are its ranks.
        return store(level_ranks)
    return store(ranks if level_ranks is None else map(level_ranks.__getitem__, ranks))


def tensor2(left: CapacityBase, right: CapacityBase) -> FiniteCapacity:
    """Dense tensor product of two capacities.

    Refuses products beyond the dense cap; use lazy_tensor there. The
    product uses only min, max and order, so it runs on ranks: the
    levels of both factors, with 0 and 1, form one sorted list `levels`,
    and each factor's rank table is mapped into it (`_factor_levels`,
    `_dense_ranks`), unless both factors have the same levels and their
    ranks are read as they are. The value at B is max over sets A of
    left points of min(left(A), min over x in A of right(B_x));
    splitting on whether A holds the first left point gives

        rank(B) = max(P0[B >> k], min(R[B & (2^k - 1)], P1[B >> k]))

    with R the right factor's ranks and P0, P1 the same table on the
    other m - 1 rows, against the left ranks of the sets without and
    with the first point (`_peel_rows`). No mask runs the level-set
    loop. Both factors' ranks, and so the table, are built in the rank
    table type of `levels` (`_rank_store`), which the capacity keeps: the
    table is validated as a capacity on the ranks and kept as it is,
    with no copy, and its values are the levels at those ranks. The
    product domain is `product_domain`'s, shared with any caller that
    asks for the same factors.
    """
    m, k = left.domain.size, right.domain.size
    if m * k > DENSE_DOMAIN_CAP:
        raise ProductTooLarge(
            f"product has {m * k} points, dense cap is {DENSE_DOMAIN_CAP}; "
            "use lazy_tensor"
        )
    pd = product_domain([left.domain, right.domain])
    levels, (to_left, to_right) = _factor_levels((left, right))
    store = _rank_store(len(levels))
    return FiniteCapacity._from_ranks(pd.flat, levels, _peel_rows(
        _dense_ranks(left, to_left, store), _ClampRows(_dense_ranks(right, to_right, store))))


class _ClampRows(dict):
    """The rows of `_peel_rows`: the right factor's ranks clamped to
    [p0, p1], keyed by (p0, p1), each built once, on its first read, in
    the rank table type of the right factor's ranks."""

    __slots__ = ("right",)

    def __init__(self, right: Sequence[int]):
        super().__init__()
        self.right = right

    def __missing__(self, key: tuple[int, int]) -> Sequence[int]:
        p0, p1 = key
        row = self[key] = type(self.right)([p0 if r <= p0 else r if r < p1 else p1
                                            for r in self.right])
        return row


def _peel_rows(left: Sequence[int], rows: _ClampRows) -> Sequence[int]:
    """Ranks, by product mask B, of max over row sets A of min(left[A],
    min over x in A of right[B_x]), for a table `left` on m rows (2^m
    entries, not necessarily 0 at the empty set) and `right` =
    `rows.right` on k points, both in one rank table type (`_rank_store`),
    which the result has too.

    The A without row 0 give P0 = the same on rows 1..m-1 against
    left[0::2]; the A with it give min(right[r0], P1), with P1 against
    left[1::2]. So B = h << k | r0 has max(P0[h], min(right[r0], P1[h])),
    the row of (P0[h], P1[h]) in `rows` at r0: a clamp, since P0[h] <=
    P1[h] (left[1::2] bounds left[0::2], a capacity being monotone, and
    the table grows with `left`). The table is those rows joined once.
    On 0 rows only A = {} is left: the one-entry table is its own answer.
    """
    if len(left) == 1:
        return left
    out = map(rows.__getitem__, zip(_peel_rows(left[0::2], rows),
                                    _peel_rows(left[1::2], rows)))
    if type(rows.right) is bytes:
        return b"".join(out)
    return tuple(itertools.chain.from_iterable(out))


def tensor_many(caps: Sequence[CapacityBase]) -> CapacityBase:
    """Left-associated fold of tensor2 in the given factor order.

    A single factor is returned as-is. The flat domain of the fold
    coincides with the flat product domain of all factors because
    row-major indexing and "|" label joins compose.
    """
    if not caps:
        raise ValueError("tensor of zero factors is undefined")
    acc = caps[0]
    for nxt in caps[1:]:
        acc = tensor2(acc, nxt)
    return acc


def marginal(cap: CapacityBase, product: ProductDomain, axis: int) -> FiniteCapacity:
    """Pushforward along the coordinate projection onto one factor."""
    if not 0 <= axis < len(product.factors):
        raise ValueError(f"axis {axis} out of range")
    if cap.domain.labels != product.flat.labels:
        raise DomainMismatch("capacity does not live on the given product domain")
    if not isinstance(cap, FiniteCapacity):
        cap = materialize(cap)
    target = product.factors[axis]
    stride, size = product._strides[axis], target.size
    mapping = {
        label: target.labels[(idx // stride) % size]
        for idx, label in enumerate(product.flat.labels)
    }
    return pushforward(cap, mapping, target)


class LazyTensorCapacity(CapacityBase, _Record):
    """On-demand left-fold tensor evaluation, no dense table.

    Evaluates the recursive section formula: the product of the first
    d + 1 factors at B integrates factor d's section values against the
    product of the first d factors. Like `tensor2` it runs on ranks:
    construction ranks the factors' levels once (`_factor_levels`, with
    0 and 1), each fold depth memoizes its ranks by mask, and
    `value_mask` maps the rank of the whole product back to its level.
    `_memo` is the whole product's memo. A lazy factor is ranked on
    demand, through its own levels; a dense factor's rank table is
    mapped into the levels once (`_dense_ranks`). When all factors have
    equal levels, those are the product's, shared, and every factor is
    read on its own ranks: nothing is ranked or mapped. `_rank` and
    `is_vacuous` read ranks, with rank 0 exactly level 0 and the last
    rank level 1.
    A record of its factors (`_Record`), immutable apart from the memos;
    copies and pickles are rebuilt from the factors, with empty memos.
    """

    __slots__ = ("domain", "factors", "product", "_levels", "_rank", "_memo")
    _fields = ("factors",)

    def __init__(self, factors: Sequence[CapacityBase],
                 _product: ProductDomain | None = None):
        # `_product`, when given, is the product of the factors' domains
        # already built by the caller.
        if not factors:
            raise ValueError("tensor of zero factors is undefined")
        fs = tuple(factors)
        pd = _product if _product is not None else product_domain([f.domain for f in fs])
        levels, level_ranks = _factor_levels(fs)
        store = _rank_store(len(levels))
        # A lazy factor ranks its own levels on demand.
        ranks = [(f._rank if to is None else _composed(to, f._rank))
                 if isinstance(f, LazyTensorCapacity)
                 else _dense_ranks(f, to, store).__getitem__
                 for f, to in zip(fs, level_ranks)]
        rank, memo = ranks[0], {}
        prefix_size = fs[0].domain.size
        for f, last_rank in zip(fs[1:], ranks[1:]):
            memo = {}
            rank = _fold_rank(rank, prefix_size, last_rank, f.domain.size,
                              len(levels) - 1, memo)
            prefix_size *= f.domain.size
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "product", pd)
        object.__setattr__(self, "domain", pd.flat)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_rank", rank)
        object.__setattr__(self, "_memo", memo)

    def value_mask(self, mask: int) -> Fraction:
        self.domain.check_mask(mask)
        return self._levels[self._rank(mask)]

    def is_vacuous(self) -> bool:
        return _vacuous_ranks(self.domain, self._rank)


def _composed(outer: Sequence[int], inner: Callable[[int], int]) -> Callable[[int], int]:
    return lambda mask: outer[inner(mask)]


def _fold_rank(prefix_rank: Callable[[int], int], prefix_size: int,
               last_rank: Callable[[int], int], last_size: int, top: int,
               memo: dict[int, int]) -> Callable[[int], int]:
    """Rank, by mask, of the product of a prefix on `prefix_size` points
    and a last factor on `last_size` points, each ranked by mask: the
    level-set loop over the row sections' ranks, memoized in `memo`."""
    row = (1 << last_size) - 1
    rows = range(prefix_size)

    def rank(mask: int) -> int:
        r = memo.get(mask)
        if r is None:
            sections = [last_rank((mask >> (z * last_size)) & row) for z in rows]
            r = memo[mask] = _level_set_max(_level_sets(sections), prefix_rank, top=top)
        return r

    return rank


def lazy_tensor(factors: Sequence[CapacityBase]) -> CapacityBase:
    """Lazy tensor evaluator; a single factor is returned unchanged."""
    fs = tuple(factors)
    if len(fs) == 1:
        return fs[0]
    return LazyTensorCapacity(fs)


def materialize(cap: CapacityBase) -> FiniteCapacity:
    """Dense copy of any capacity within the dense cap."""
    if isinstance(cap, FiniteCapacity):
        return cap
    if cap.domain.size > DENSE_DOMAIN_CAP:
        raise ProductTooLarge(
            f"cannot materialize {cap.domain.size}-point capacity densely"
        )
    return FiniteCapacity(cap.domain, _table(cap))


def associativity_probe(caps: Sequence[CapacityBase]) -> list[int]:
    """Masks where the left fold and right fold of tensor2 disagree.

    Bracketing is a diagnostic question, not an assumed law; callers get
    the raw disagreement list and decide what to make of it.
    """
    fs = tuple(caps)
    if len(fs) < 3:
        return []
    left = tensor_many(fs)

    def right_fold(rest: tuple[CapacityBase, ...]) -> CapacityBase:
        if len(rest) == 1:
            return rest[0]
        return tensor2(rest[0], right_fold(rest[1:]))

    right = right_fold(fs)
    if left.domain.size != right.domain.size:
        raise AssertionError("folds landed on different product sizes")
    return [
        mask for mask in range(left.domain.subset_count)
        if left.value_mask(mask) != right.value_mask(mask)
    ]
