"""Finite normal-form games with exact rational payoffs.

Payoff tensors are stored flat, row-major over the full strategy
product in ascending player order. A player's expected payoff under a
capacity belief about the others is the corrected Sugeno integral of
the payoff slice for their own strategy, taken over the flat product of
the opponents' strategy domains (ascending player order, skipping the
player).

The integral uses only min, max and order, so a best response is
decided on ranks. Each player's payoff level sets are kept once per
game as (payoff rank, mask) pairs (`_response_table`). A belief level
of 0 or 1 needs no correction; the correction of every interior level
is ranked exactly into one chain with the payoff values (`_lifted`),
and the level-set loop `_level_set_max` then runs on ints. The grid
equilibrium search shares the table and the lift.
`expected_payoff`, through `sugeno_integral`, stays the Fraction
reference that the tests hold the ranks to.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Callable, Sequence

from .capacity import (
    CapacityBase,
    Domain,
    DomainMismatch,
    _Record,
    _coerce_rational,
    _ranked,
)
from .sugeno import (
    CorrectionMap,
    PayoffFunction,
    _level_set_max,
    _level_sets,
    sugeno_integral,
)
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

    __slots__ = ("strategy_domains", "payoffs", "_strides", "_opp_cache", "_slice_cache",
                 "_ranked", "_response_tables", "_belief_cache")
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
        object.__setattr__(self, "_ranked", None)
        object.__setattr__(self, "_response_tables", {})
        # The memo of a running support scan (`equilibrium._SupportMemo`),
        # None outside one.
        object.__setattr__(self, "_belief_cache", None)

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


def _payoff_ranked(game: GameSpec) -> tuple[list[Fraction], list[list[int]]]:
    """The sorted distinct payoffs of all players, and each player's
    payoff tensor as ranks into them (`_ranked`), built once per game."""
    if game._ranked is None:
        object.__setattr__(game, "_ranked", _ranked(*game.payoffs))
    return game._ranked


def _payoff_ranks(game: GameSpec) -> list[list[int]]:
    """Each player's payoff tensor as ranks into the sorted distinct
    payoffs of all players. Payoffs compare as their ranks do."""
    return _payoff_ranked(game)[1]


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
        payoffs = game.payoffs[player]
        values = tuple(payoffs[k] for k in _slice_indices(game, player, own))
        cache[key] = PayoffFunction(opponent_domain(game, player).flat, values)
    return cache[key]


def _slice_indices(game: GameSpec, player: int, own: int) -> list[int]:
    """Flat payoff indices of the profiles where the player plays their
    strategy `own`, row-major over the opponent profiles."""
    # Each opponent's own flat-index steps; their sums, in product
    # order, run row-major over the opponent profiles.
    steps = [range(0, d.size * stride, stride)
             for j, (d, stride) in enumerate(zip(game.strategy_domains, game._strides))
             if j != player]
    base = own * game._strides[player]
    return [base + sum(offsets) for offsets in itertools.product(*steps)]


def _check_belief(game: GameSpec, player: int, belief: CapacityBase) -> None:
    opp = opponent_domain(game, player)
    if belief.domain.labels != opp.flat.labels:
        raise DomainMismatch(
            f"belief domain {list(belief.domain.labels)} does not match the "
            f"opponent product {list(opp.flat.labels)}"
        )


def expected_payoff(game: GameSpec, player: int, strategy: str,
                    belief: CapacityBase, correction: CorrectionMap) -> Fraction:
    """Corrected Sugeno integral of the strategy's payoff slice against
    the belief capacity on the opponents' flat product domain."""
    _check_belief(game, player, belief)
    return sugeno_integral(payoff_slice(game, player, strategy), belief, correction)


def best_response(game: GameSpec, player: int, belief: CapacityBase,
                  correction: CorrectionMap) -> tuple[str, ...]:
    """All own strategies attaining the exact maximum expected payoff,
    in the player's strategy order.

    Decided on ranks (`_response_mask`); the scores are those of
    `expected_payoff`, compared exactly."""
    _check_player(game, player)
    _check_belief(game, player, belief)
    mask = _response_mask(game, player, belief, correction)
    return game.strategy_domains[player].labels_of(mask)


def _response_table(game: GameSpec, player: int) -> list[list[tuple[int, int]]]:
    """The player's payoff level sets, for each own strategy as
    `_level_sets` yields them but with payoff ranks (`_payoff_ranks`)
    for values; built once per player by int sorts and cached on the
    game."""
    table = game._response_tables.get(player)
    if table is None:
        ranks = _payoff_ranks(game)[player]
        table = game._response_tables[player] = [
            list(_level_sets([ranks[k] for k in _slice_indices(game, player, own)]))
            for own in range(game.strategy_domains[player].size)]
    return table


def _lifted(game: GameSpec, sets: list[list[tuple[int, int]]],
            corrected: Sequence[Fraction]) -> tuple[list[list[tuple[int, int]]], list[int]]:
    """Corrected levels ranked exactly into one chain with the payoff
    values: the level sets with their payoff ranks scaled into the
    chain, and each corrected level's chain key.

    With s = 1 + the number of distinct corrected levels, payoff rank r
    becomes r * s, a corrected level equal to payoff r gets r * s too,
    and those strictly between payoffs r - 1 and r get (r - 1) * s + 1,
    (r - 1) * s + 2, ... in ascending order, so the keys compare as the
    values do, and equal values get equal keys. Without corrected levels
    the sets are returned as they are."""
    if not corrected:
        return sets, []
    payoffs = _payoff_ranked(game)[0]
    distinct, (ranks,) = _ranked(corrected)
    stride = len(distinct) + 1
    keys, gap, within = [], None, 0
    for c in distinct:
        r = bisect_left(payoffs, c)
        if r < len(payoffs) and payoffs[r] == c:
            keys.append(r * stride)
        else:
            within = within + 1 if r == gap else 1
            gap = r
            keys.append((r - 1) * stride + within)
    scaled = [[(v * stride, mask) for v, mask in level_sets] for level_sets in sets]
    return scaled, [keys[r] for r in ranks]


def _argmax_mask(sets: list[list[tuple[int, int]]], level_of: Callable[[int], int],
                 lift: Callable[[int], int], top: int) -> int:
    """Mask of the own strategies whose `_level_set_max` score, on ints,
    is largest."""
    scores = [_level_set_max(level_sets, level_of, lift, top) for level_sets in sets]
    best = max(scores)
    return sum(1 << s for s, v in enumerate(scores) if v == best)


def _response_mask(game: GameSpec, player: int, belief: CapacityBase,
                   correction: CorrectionMap) -> int:
    """The player's best-response mask against the belief, decided on
    ranks. Each level-set mask the loop reads gets a level index: 0 for
    level 0, 1 for level 1 (the top), and 2, 3, ... for the distinct
    interior levels. Only interior levels are corrected: if the loop
    read any, their corrections are lifted into the payoff chain
    (`_lifted`) and the loop runs again on the lifted keys. It reads the
    same masks, since which ones it reads depends on the indices alone."""
    sets = _response_table(game, player)
    index: dict[int, int] = {}
    interior: dict[tuple[int, int], int] = {}
    levels = []

    def level_of(mask: int) -> int:
        k = index.get(mask)
        if k is None:
            level = belief.value_mask(mask)
            num, den = level.numerator, level.denominator
            if num == 0:
                k = 0
            elif num == den:
                k = 1
            else:
                k = interior.get((num, den))
                if k is None:
                    k = interior[num, den] = len(levels) + 2
                    levels.append(level)
            index[mask] = k
        return k

    mask = _argmax_mask(sets, level_of, _unlifted, 1)
    if not levels:
        return mask
    sets, keys = _lifted(game, sets, [correction.evaluate(v) for v in levels])
    return _argmax_mask(sets, index.__getitem__, [0, 0, *keys].__getitem__, 1)


def _unlifted(k: int) -> int:
    """The lift of the first pass of `_response_mask`. Its scores are
    kept only when the pass read no interior level, that is when this
    lift was never called."""
    return 0
