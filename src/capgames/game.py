"""Finite normal-form games with exact rational payoffs.

Payoff tensors are stored flat, row-major over the full strategy
product in ascending player order. A player's expected payoff under a
capacity belief about the others is the corrected Sugeno integral of
the payoff slice for their own strategy, taken over the flat product of
the opponents' strategy domains (ascending player order, skipping the
player).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from .capacity import CapacityBase, Domain, DomainMismatch, _Record, _coerce_rational
from .sugeno import CorrectionMap, PayoffFunction, sugeno_integral
from .tensor import ProductDomain, _row_major_strides, product_domain

__all__ = [
    "GameSpec",
    "opponent_domain",
    "payoff_slice",
    "expected_payoff",
    "best_response",
]


class GameSpec(_Record):
    """Players in ascending index order, a strategy domain and a payoff
    tensor per player."""

    __slots__ = ("strategy_domains", "payoffs", "_strides", "_opp_cache", "_slice_cache")
    _fields = ("strategy_domains", "payoffs")

    def __init__(self, strategy_domains: tuple[Domain, ...],
                 payoffs: tuple[tuple[Fraction, ...], ...]):
        if len(strategy_domains) < 2:
            raise ValueError("a game needs at least two players")
        object.__setattr__(self, "strategy_domains", strategy_domains)
        count = self.profile_count
        if len(payoffs) != len(strategy_domains):
            raise ValueError("one payoff tensor per player required")
        coerced = []
        for i, tensor in enumerate(payoffs):
            if len(tensor) != count:
                raise ValueError(
                    f"player {i} payoff tensor has {len(tensor)} entries, "
                    f"needs {count}"
                )
            coerced.append(tuple(_coerce_rational(v, "payoff") for v in tensor))
        object.__setattr__(self, "payoffs", tuple(coerced))
        object.__setattr__(self, "_strides", _row_major_strides(self.sizes))
        object.__setattr__(self, "_opp_cache", {})
        object.__setattr__(self, "_slice_cache", {})

    @property
    def n_players(self) -> int:
        return len(self.strategy_domains)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(d.size for d in self.strategy_domains)

    @property
    def profile_count(self) -> int:
        return math.prod(self.sizes)

    def strides(self) -> tuple[int, ...]:
        return self._strides

    def flat_index(self, profile: Sequence[int]) -> int:
        return sum(i * s for i, s in zip(profile, self._strides))

    def payoff(self, player: int, profile: Sequence[int]) -> Fraction:
        return self.payoffs[player][self.flat_index(profile)]

    @classmethod
    def from_nested(cls, domains: Sequence[Domain],
                    nested: Sequence) -> "GameSpec":
        """Build from one nested payoff array per player, axis k indexed
        by player k's strategy order."""
        doms = tuple(domains)
        sizes = [d.size for d in doms]
        flats = []
        for i, arr in enumerate(nested):
            flat = []
            for profile in itertools.product(*(range(s) for s in sizes)):
                node = arr
                for idx in profile:
                    node = node[idx]
                flat.append(node)
            flats.append(tuple(flat))
        return cls(doms, tuple(flats))


def opponent_domain(game: GameSpec, player: int) -> ProductDomain:
    """Flat product of everyone else's strategy domains, ascending order."""
    _check_player(game, player)
    cache = game._opp_cache
    if player not in cache:
        others = [d for j, d in enumerate(game.strategy_domains) if j != player]
        cache[player] = product_domain(others)
    return cache[player]


def _check_player(game: GameSpec, player: int) -> None:
    if not 0 <= player < game.n_players:
        raise ValueError(f"player {player} out of range for {game.n_players} players")


def payoff_slice(game: GameSpec, player: int, strategy: str) -> PayoffFunction:
    """The player's payoff as a function of the opponents' joint choice,
    with their own strategy pinned."""
    _check_player(game, player)
    cache = game._slice_cache
    key = (player, strategy)
    if key not in cache:
        own = game.strategy_domains[player].index_of(strategy)
        opp = opponent_domain(game, player)
        other_ranges = [range(d.size) for j, d in enumerate(game.strategy_domains)
                        if j != player]
        values = []
        for combo in itertools.product(*other_ranges):
            profile = list(combo)
            profile.insert(player, own)
            values.append(game.payoff(player, profile))
        cache[key] = PayoffFunction(opp.flat, tuple(values))
    return cache[key]


def expected_payoff(game: GameSpec, player: int, strategy: str,
                    belief: CapacityBase, correction: CorrectionMap) -> Fraction:
    """Corrected Sugeno integral of the strategy's payoff slice against
    the belief capacity on the opponents' flat product domain."""
    opp = opponent_domain(game, player)
    if belief.domain.labels != opp.flat.labels:
        raise DomainMismatch(
            f"belief domain {list(belief.domain.labels)} does not match the "
            f"opponent product {list(opp.flat.labels)}"
        )
    return sugeno_integral(payoff_slice(game, player, strategy), belief, correction)


def best_response(game: GameSpec, player: int, belief: CapacityBase,
                  correction: CorrectionMap) -> tuple[str, ...]:
    """All own strategies attaining the exact maximum expected payoff,
    in the player's strategy order."""
    _check_player(game, player)
    labels = game.strategy_domains[player].labels
    scores = [expected_payoff(game, player, lab, belief, correction)
              for lab in labels]
    top = max(scores)
    return tuple(lab for lab, s in zip(labels, scores) if s == top)
