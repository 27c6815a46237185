"""Tensor products of capacities over product domains.

The two-factor product evaluates, for each product subset B, the
classical Sugeno integral of the section map x -> mu2(B_x) against mu1:

    (mu1 (x) mu2)(B) = sup { t in [0,1] : mu1({x : mu2(B_x) >= t}) >= t }

The sup is attained at a section value, which is what the classical
integral's level-set form computes; a brute-force t-scan over candidate
levels re-validates this in the test suite. The formula uses only min,
max and order, so the dense product runs on ranks: each value is
replaced by its position in one sorted list of both factors' values,
the level-set loop and the capacity validation of the output compare
ints, and the ranks become Fractions only in the returned table.
Products of three or more factors are the left-associated fold of the
two-factor product; associativity is never assumed (a probe reports
bracketing differences).

Flat product domains index tuples row-major in ascending factor order
and label them by joining the factor labels with "|". The structure
(factor list, index maps) is carried by ProductDomain; labels are never
re-parsed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

from .capacity import (
    CapacityBase,
    CapacityError,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    DENSE_DOMAIN_CAP,
    _ZERO_ONE,
    _Record,
    _ranked,
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

    `flat` is always built from the factors; the argument is ignored."""

    __slots__ = ("factors", "flat", "_sizes", "_strides")
    _fields = ("factors", "flat")

    def __init__(self, factors: tuple[Domain, ...], flat: Domain | None = None):
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
        object.__setattr__(self, "_sizes", sizes)
        object.__setattr__(self, "_strides", _row_major_strides(sizes))
        object.__setattr__(self, "flat", Domain(labels))

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
        """Flat mask of a product-of-subsets box, one mask per factor."""
        if len(coordinate_masks) != len(self.factors):
            raise ValueError("one coordinate mask per factor required")
        mask = 0
        for idx in range(self.size):
            keep = True
            for d, stride, cmask in zip(self.factors, self._strides, coordinate_masks):
                if not (cmask >> ((idx // stride) % d.size)) & 1:
                    keep = False
                    break
            if keep:
                mask |= 1 << idx
        return mask


def product_domain(factors: Sequence[Domain]) -> ProductDomain:
    return ProductDomain(tuple(factors))


def _section_values(mask: int, prefix_size: int, last_size: int,
                    last: CapacityBase) -> list[Fraction]:
    """mu_last of each row section of a flat product mask."""
    row = (1 << last_size) - 1
    return [last.value_mask((mask >> (z * last_size)) & row)
            for z in range(prefix_size)]


def _table(cap: CapacityBase) -> Sequence[Fraction]:
    """Dense value table of any capacity, indexed by mask."""
    if isinstance(cap, FiniteCapacity):
        return cap.values
    return [cap.value_mask(mask) for mask in range(cap.domain.subset_count)]


def tensor2(left: CapacityBase, right: CapacityBase) -> FiniteCapacity:
    """Dense tensor product of two capacities.

    Refuses products beyond the dense cap; use lazy_tensor there. The
    product uses only min, max and order, so it runs on ranks: the
    values of both factors, with 0 and 1, form one sorted list `levels`,
    and each factor's table becomes a table of positions in it
    (`_ranked`). Masks come in row-major order from `itertools.product`
    over the right factor's ranks (one tuple of section ranks per mask,
    last row first), and each distinct tuple goes through the level-set
    loop once. The output is validated as a capacity on the ranks and only
    then mapped back to the levels.
    """
    m, k = left.domain.size, right.domain.size
    if m * k > DENSE_DOMAIN_CAP:
        raise ProductTooLarge(
            f"product has {m * k} points, dense cap is {DENSE_DOMAIN_CAP}; "
            "use lazy_tensor"
        )
    pd = product_domain([left.domain, right.domain])
    levels, (_, left_ranks, right_ranks) = _ranked(_ZERO_ONE, _table(left), _table(right))
    top = len(levels) - 1
    memo: dict[tuple[int, ...], int] = {}
    ranks = []
    # product varies its last slot fastest, as masks vary their lowest
    # row: each tuple holds the section ranks of the rows, last row first.
    for sections in itertools.product(right_ranks, repeat=m):
        r = memo.get(sections)
        if r is None:
            r = memo[sections] = _level_set_max(
                _level_sets(sections[::-1]), left_ranks.__getitem__, top=top)
        ranks.append(r)
    return FiniteCapacity._from_ranks(pd.flat, levels, ranks)


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
    mapping = {
        product.flat.labels[idx]: product.point_at(idx)[axis]
        for idx in range(product.size)
    }
    return pushforward(cap, mapping, product.factors[axis])


class LazyTensorCapacity(CapacityBase):
    """On-demand left-fold tensor evaluation, no dense table.

    Evaluates the recursive section formula: the product of n factors at
    B integrates the last factor's section values against the product of
    the first n-1 factors. Results are memoized per instance; instances
    are immutable apart from the cache.
    """

    __slots__ = ("domain", "factors", "product", "_last", "_prefix",
                 "_prefix_size", "_memo")

    def __init__(self, factors: Sequence[CapacityBase]):
        if not factors:
            raise ValueError("tensor of zero factors is undefined")
        fs = tuple(factors)
        pd = product_domain([f.domain for f in fs])
        object.__setattr__(self, "factors", fs)
        object.__setattr__(self, "product", pd)
        object.__setattr__(self, "domain", pd.flat)
        if len(fs) == 1:
            object.__setattr__(self, "_prefix", None)
            object.__setattr__(self, "_last", fs[0])
            object.__setattr__(self, "_prefix_size", 1)
        else:
            prefix = fs[0] if len(fs) == 2 else LazyTensorCapacity(fs[:-1])
            object.__setattr__(self, "_prefix", prefix)
            object.__setattr__(self, "_last", fs[-1])
            object.__setattr__(self, "_prefix_size", prefix.domain.size)
        object.__setattr__(self, "_memo", {})

    def __setattr__(self, name, value):
        raise AttributeError("LazyTensorCapacity is immutable")

    def value_mask(self, mask: int) -> Fraction:
        memo = self._memo
        hit = memo.get(mask)
        if hit is not None:
            return hit
        if self._prefix is None:
            out = self._last.value_mask(mask)
        else:
            sections = _section_values(
                mask, self._prefix_size, self._last.domain.size, self._last
            )
            out = _level_set_max(_level_sets(sections), self._prefix.value_mask)
        memo[mask] = out
        return out


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
