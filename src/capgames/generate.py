"""Seeded instance generation with a fixed, documented 64-bit PRNG.

The generator is SplitMix64: state advances by the odd constant
0x9E3779B97F4A7C15 and each output is finalized with two xor-shift
multiplies (0xBF58476D1CE4E5B9 after a 30-bit shift, 0x94D049BB133111EB
after 27, final shift 31), all modulo 2^64. Bounded draws take the raw
output modulo n; the tiny modulo bias is irrelevant here because the
purpose is cross-run and cross-language reproducibility, not statistical
quality. Anyone can replay an instance stream from the seed alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .capacity import Domain, FiniteCapacity, _monotone_fill_order, _ranked
from .sugeno import PayoffFunction

if TYPE_CHECKING:
    from .game import GameSpec

__all__ = [
    "SplitMix64",
    "DEFAULT_PAYOFF_VALUES",
    "random_capacity",
    "random_payoff_function",
    "random_game",
]

_MASK64 = (1 << 64) - 1
DEFAULT_PAYOFF_VALUES: tuple[Fraction, ...] = tuple(
    Fraction(v) for v in (-2, -1, 0, 1, 2))


class SplitMix64:
    """SplitMix64 stream; identical output for identical seeds."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.next_u64() % n

    def choice(self, seq: Sequence):
        return seq[self.below(len(seq))]


def random_capacity(domain: Domain, rng: SplitMix64,
                    denominator: int = 8) -> FiniteCapacity:
    """Monotone completion with values on the grid k/denominator.

    Subsets are filled in ascending (cardinality, bitmask) order; each
    value is drawn uniformly from the grid points between the maximum
    over the one-element-smaller subsets and 1. Boundary values fixed.
    The fill runs on the numerators k, and the capacity is built on
    their ranks into the values k/denominator it takes
    (`FiniteCapacity._from_ranks`).
    """
    if denominator < 1:
        raise ValueError("denominator must be at least 1")
    full = domain.full_mask
    # The numerators k of the values k/denominator, by mask.
    table = [0] * full + [denominator]
    for mask, covers in _monotone_fill_order(domain):
        start = max(table[c] for c in covers)
        table[mask] = start + rng.below(denominator - start + 1)
    numerators, (ranks,) = _ranked(table)
    return FiniteCapacity._from_ranks(
        domain, [Fraction(k, denominator) for k in numerators], ranks)


def random_payoff_function(domain: Domain, rng: SplitMix64,
                           values: Sequence[Fraction] = DEFAULT_PAYOFF_VALUES,
                           ) -> PayoffFunction:
    return PayoffFunction(domain,
                          tuple(rng.choice(values) for _ in domain.labels))


def _letters(count: int) -> tuple[str, ...]:
    return tuple(chr(ord("a") + k) for k in range(count))


def random_game(rng: SplitMix64, sizes: Sequence[int],
                values: Sequence[Fraction] = DEFAULT_PAYOFF_VALUES) -> GameSpec:
    """Random finite game with the given strategy counts, payoffs drawn
    uniformly from a fixed rational set so ties stay common."""
    from .game import GameSpec  # only games need the game module

    domains = tuple(Domain(_letters(s)) for s in sizes)
    count = 1
    for s in sizes:
        count *= s
    payoffs = tuple(
        tuple(rng.choice(values) for _ in range(count))
        for _ in range(len(sizes))
    )
    return GameSpec(domains, payoffs)
