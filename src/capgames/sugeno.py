"""Sugeno-style expectations of rational payoffs against capacities.

The corrected integral generalizes the classical Sugeno integral to
payoffs outside [0, 1]: a strictly increasing correction map carries
capacity levels in (0, 1) onto the whole real line, with 0 and 1 sent
to -inf / +inf. The integral of f against capacity mu is

    sup { t : mu(f >= t) >= inverse-correction(t) }

which on a finite domain is attained and equals the maximum over the
distinct payoff values v of min(v, correction(mu(f >= v))).

An independent oracle re-derives the value straight from the defining
inequality by scanning a t-grid, deciding each comparison with exact
rational bisection of the correction map. It shares no code with the
closed form beyond capacity evaluation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import groupby
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .capacity import (
    CapacityBase,
    Domain,
    DomainMismatch,
    RangeError,
    _Record,
    _coerce_rational,
)
from .rational import NEG_INF, POS_INF, ExtendedValue

__all__ = [
    "BadResolution",
    "CorrectionMap",
    "default_correction",
    "logit_correction",
    "PayoffFunction",
    "sugeno_integral",
    "classical_sugeno",
    "sugeno_oracle",
]


class BadResolution(ValueError):
    """Oracle resolution must be a positive rational."""


class CorrectionMap(_Record):
    """Strictly increasing bijection (0,1) -> R with signed-infinity endpoints.

    `name` identifies the map in certificates and reports. The callable
    receives interior rationals only and must return an exact Fraction.
    """

    __slots__ = _fields = ("name", "_interior")

    def __init__(self, name: str, _interior: Callable[[Fraction], Fraction]):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_interior", _interior)

    def evaluate(self, level: Fraction) -> ExtendedValue:
        if level < 0 or level > 1:
            raise RangeError(f"correction map argument {level} outside [0, 1]")
        if level == 0:
            return NEG_INF
        if level == 1:
            return POS_INF
        return self._interior(level)


def default_correction() -> CorrectionMap:
    """The exact-rational correction (2u - 1) / (u (1 - u)).

    Strictly increasing on (0, 1): the derivative's numerator is
    2u^2 - 2u + 1, which has no real roots and is positive.
    """
    def interior(u: Fraction) -> Fraction:
        return (2 * u - 1) / (u * (1 - u))

    return CorrectionMap("rational-default", interior)


def logit_correction(scale: Fraction | int = 1) -> CorrectionMap:
    """Float-backed scale * ln(u / (1 - u)), snapshotted to an exact Fraction.

    The float is converted exactly (binary expansion), so downstream
    comparisons stay deterministic even though the map itself is only
    float-accurate. A ratio u / (1 - u) = p / (q - p) beyond the float
    range takes its log from the integers instead: ln p - ln(q - p). A
    scale whose float is 0 or infinite, or whose float product with the
    log overflows, multiplies the log exactly: scale * Fraction(log).
    """
    s = Fraction(scale)
    if s <= 0:
        raise ValueError("logit correction needs a positive scale")
    try:
        s_float = float(s)
    except OverflowError:
        s_float = math.inf

    def interior(u: Fraction) -> Fraction:
        ratio = u / (1 - u)
        try:
            as_float = float(ratio)
        except OverflowError:
            as_float = math.inf
        if as_float == 0 or math.isinf(as_float):
            log = math.log(ratio.numerator) - math.log(ratio.denominator)
        else:
            log = math.log(as_float)
        product = s_float * log
        if s_float == 0 or not math.isfinite(product):
            return s * Fraction(log)
        return Fraction(product)

    return CorrectionMap(f"logit-{s}", interior)


class PayoffFunction(_Record):
    """Rational-valued function on a finite domain, stored by label index."""

    __slots__ = _fields = ("domain", "values")

    def __init__(self, domain: Domain, values: tuple[Fraction, ...]):
        if len(values) != domain.size:
            raise ValueError(f"need {domain.size} values, got {len(values)}")
        object.__setattr__(self, "domain", domain)
        object.__setattr__(
            self, "values", tuple(_coerce_rational(v, "payoff value") for v in values))

    @classmethod
    def from_mapping(cls, domain: Domain,
                     mapping: Mapping[str, Fraction | int]) -> "PayoffFunction":
        missing = [lab for lab in domain.labels if lab not in mapping]
        if missing:
            raise ValueError(f"no payoff for labels {missing}")
        return cls(domain, tuple(Fraction(mapping[lab]) for lab in domain.labels))

    def value_of(self, label: str) -> Fraction:
        return self.values[self.domain.index_of(label)]

    @property
    def minimum(self) -> Fraction:
        return min(self.values)

    @property
    def maximum(self) -> Fraction:
        return max(self.values)

    def level_mask(self, threshold: Fraction) -> int:
        """Bitmask of the points with value >= threshold."""
        mask = 0
        for k, v in enumerate(self.values):
            if v >= threshold:
                mask |= 1 << k
        return mask

    def descending_levels(self) -> list[tuple[Fraction, int]]:
        """Distinct values in descending order, each with its level-set mask.

        The mask at a value v covers every point with payoff >= v, so the
        masks grow along the list.
        """
        return list(_level_sets(self.values))


def _level_sets(values: Sequence[Fraction]) -> Iterator[tuple[Fraction, int]]:
    """Yield each distinct value v, descending, with the mask of points >= v.

    One sort of the point indices; equal values form one group, whose
    points all join the mask before it is yielded.
    """
    order = sorted(range(len(values)), key=values.__getitem__, reverse=True)
    mask = 0
    for v, points in groupby(order, key=values.__getitem__):
        for k in points:
            mask |= 1 << k
        yield v, mask


def _identity(level: Fraction) -> Fraction:
    return level


def _level_set_max(level_sets: Iterable[tuple[Fraction, int]],
                   level_of: Callable[[int], Fraction],
                   lift: Callable[[Fraction], ExtendedValue] = _identity,
                   top: Fraction | int = 1) -> Fraction:
    """max over (v, mask) of min(v, lift(level_of(mask))), for the level
    sets of a function as `_level_sets` yields them: values descending,
    each with the mask of the points at or above it.

    The one level-set loop behind the corrected integral (lift = the
    correction map), the classical integral and the tensor product
    (lift = identity). `level_of` maps a point mask to its level, a
    capacity's `value_mask`. Two callers run it on ranks, where values,
    levels and the result are ints, 0 is the rank of level 0 and `top`
    the rank of level 1: the tensor kernel, whose values and levels are
    ranks in one sorted list, and the grid equilibrium search, whose
    level sets are computed once per payoff slice, whose levels are
    ranks in the grid and whose lift maps a grid rank to the rank of
    its correction in one sorted chain with the payoff values.
    A level at `top` ends the scan, since later values are strictly
    smaller and cannot beat it; a level 0 lifts to the bottom of the
    range and never wins, so it is skipped.
    """
    best: Fraction | None = None
    for v, mask in level_sets:
        level = level_of(mask)
        if level == top:
            return v if best is None or v > best else best
        if level == 0:
            continue
        lifted = lift(level)
        candidate = v if lifted >= v else lifted  # min(v, lifted)
        if best is None or candidate > best:
            best = candidate
    raise AssertionError("unreachable: full-domain level set has capacity 1")


def _check_domains(func: PayoffFunction, cap: CapacityBase) -> None:
    if func.domain.labels != cap.domain.labels:
        raise DomainMismatch(
            f"payoff domain {list(func.domain.labels)} differs from capacity "
            f"domain {list(cap.domain.labels)}"
        )


def sugeno_integral(func: PayoffFunction, cap: CapacityBase,
                    correction: CorrectionMap) -> Fraction:
    """Corrected Sugeno integral via the level-set closed form.

    Returns max over distinct payoff values v of min(v, correction(mu(f >= v))).
    The result always lands in [min f, max f]: the smallest value's level
    set is the whole domain, whose capacity is 1.
    """
    _check_domains(func, cap)
    return _level_set_max(_level_sets(func.values), cap.value_mask,
                          correction.evaluate)


def classical_sugeno(func: PayoffFunction, cap: CapacityBase) -> Fraction:
    """Classical Sugeno integral for [0, 1]-valued functions.

    max over distinct values v of min(v, mu(f >= v)). Raises RangeError
    if any value leaves [0, 1].
    """
    _check_domains(func, cap)
    for v in func.values:
        if v < 0 or v > 1:
            raise RangeError(f"classical integral needs values in [0, 1], got {v}")
    return _level_set_max(_level_sets(func.values), cap.value_mask)


def _satisfies_defining_inequality(t: Fraction, level: Fraction,
                                   correction: CorrectionMap) -> bool:
    """Decide level >= inverse-correction(t) by exact monotone bisection.

    The bracket (lo, hi) always contains the inverse image of t. Once it
    excludes `level` the comparison is settled. The bracket can fail to
    exclude `level` only if they coincide, which the exact pre-check
    correction(level) == t catches, so the loop terminates.
    """
    if level == 1:
        return True
    if level == 0:
        return False
    if correction.evaluate(level) == t:
        return True
    lo, hi = Fraction(0), Fraction(1)
    for _ in range(2000):
        if level <= lo:
            return False
        if level >= hi:
            return True
        mid = (lo + hi) / 2
        c = correction.evaluate(mid)
        if c == t:
            return level >= mid
        if c < t:
            lo = mid
        else:
            hi = mid
    raise AssertionError("bisection failed to separate; correction map not increasing?")


def sugeno_oracle(func: PayoffFunction, cap: CapacityBase,
                  correction: CorrectionMap, resolution: Fraction) -> Fraction:
    """Grid-scan re-derivation of the corrected integral from its definition.

    Scans t over an arithmetic grid of the given resolution spanning
    [min f - 1, max f + 1], together with the exact payoff values, and
    returns the largest scanned t satisfying mu(f >= t) >= inverse-
    correction(t). Each comparison is decided exactly (see
    `_satisfies_defining_inequality`), so the answer matches the closed
    form within one resolution step.

    The satisfying set is downward closed: the level capacity is
    non-increasing in t while the inverse correction strictly increases,
    so the scan binary-searches the grid.
    """
    resolution = Fraction(resolution)
    if resolution <= 0:
        raise BadResolution(f"resolution must be positive, got {resolution}")
    _check_domains(func, cap)

    low = func.minimum - 1
    high = func.maximum + 1
    steps = math.ceil((high - low) / resolution)

    def ok(t: Fraction) -> bool:
        return _satisfies_defining_inequality(
            t, cap.value_mask(func.level_mask(t)), correction
        )

    # Binary search for the largest satisfying grid index; k = 0 always
    # satisfies because the level set there is the full domain.
    lo_k, hi_k = 0, steps
    if ok(low + hi_k * resolution):
        best = low + hi_k * resolution
    else:
        while hi_k - lo_k > 1:
            mid = (lo_k + hi_k) // 2
            if ok(low + mid * resolution):
                lo_k = mid
            else:
                hi_k = mid
        best = low + lo_k * resolution
    for v in set(func.values):
        if v > best and ok(v):
            best = v
    return best
