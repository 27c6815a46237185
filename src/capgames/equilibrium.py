"""Equilibrium checking and search for games with capacity beliefs.

A belief system gives every player a capacity over the joint choices of
the others. It is an equilibrium when each player's belief puts exactly
zero weight outside the box of everyone else's best responses. The
search side restricts candidates to beliefs built from support profiles:
each player's strategy set carries a possibility capacity on a nonempty
support, and player i's belief is the tensor product of the others'
possibility capacities in ascending player order. That candidate space
is finite, so the scan is exhaustive under a budget.

The tensor of possibility capacities is {0,1}-valued: 1 exactly on the
sets that meet the support box. Its corrected Sugeno integral of a
payoff slice is therefore the slice's maximum over the box, whatever
the correction map, and a profile passes iff every player's support
sits inside the set of strategies attaining the largest box maximum.
The scan decides every profile by that set inclusion, from box-max
tables built once per player with the subset-max recurrence on payoff
ranks; for each choice of the other players' supports it visits only
the last player's supports inside their response. The measure path
(`check_support_profile`) then certifies each hit, so every reported
equilibrium carries a certificate computed from the beliefs themselves;
within one scan, the hits share each possibility capacity and belief.

The grid search covers every belief system whose capacities take
values in a finite grid. It is decoupled: player i's best response
depends on player i's belief alone, so the members of a player's grid
space are grouped by response. The corrected integral only compares
payoff values with corrected levels, so every member's response is
decided on its rank table, in one sorted chain of the player's payoff
values and the corrections of the interior grid levels; `best_response`
stays the reference the tests hold this to. A tuple of realised
responses then fixes every player's box, and the hits for it are the
product of each player's group members that vanish (rank 0) outside
their box. The space sizes are counted, and the product checked against
the budget, before any member is built.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .capacity import (
    BudgetExceeded,
    CapacityBase,
    Domain,
    DomainMismatch,
    EmptySupport,
    FiniteCapacity,
    _grid_tables,
    _grid_values,
    _ranked,
    _Record,
    possibility_capacity,
)
from .game import GameSpec, _payoff_ranks, best_response, opponent_domain, payoff_slice
from .rational import format_rational
from .sugeno import CorrectionMap, _level_set_max, _level_sets, default_correction
from .tensor import LazyTensorCapacity, _row_major_strides

__all__ = [
    "DEFAULT_PROFILE_BUDGET",
    "SupportProfile",
    "BeliefSystem",
    "EquilibriumCertificate",
    "is_equilibrium",
    "check_support_profile",
    "support_profile_count",
    "find_equilibria_supports",
    "find_equilibria_grid",
    "pure_nash",
]

DEFAULT_PROFILE_BUDGET = 1 << 24


class SupportProfile(_Record):
    """One nonempty strategy subset per player, as bitmask plus labels."""

    __slots__ = _fields = ("masks", "labels")

    def __init__(self, masks: tuple[int, ...], labels: tuple[tuple[str, ...], ...]):
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "labels", labels)

    @classmethod
    def from_masks(cls, game: GameSpec, masks: Sequence[int]) -> "SupportProfile":
        if len(masks) != game.n_players:
            raise ValueError("one support per player required")
        labels = []
        for j, mask in enumerate(masks):
            dom = game.strategy_domains[j]
            dom.check_mask(mask)
            if mask == 0:
                raise EmptySupport(f"player {j} support is empty")
            labels.append(dom.labels_of(mask))
        return cls(tuple(int(m) for m in masks), tuple(labels))

    @classmethod
    def from_labels(cls, game: GameSpec,
                    groups: Sequence[Iterable[str]]) -> "SupportProfile":
        if len(groups) != game.n_players:
            raise ValueError("one support per player required")
        masks = [game.strategy_domains[j].as_mask(g) for j, g in enumerate(groups)]
        return cls.from_masks(game, masks)

    @classmethod
    def full(cls, game: GameSpec) -> "SupportProfile":
        return cls.from_masks(game, [d.full_mask for d in game.strategy_domains])


class BeliefSystem(_Record):
    """One capacity per player over the flat product of the others'
    strategies."""

    __slots__ = _fields = ("beliefs",)

    def __init__(self, beliefs: tuple[CapacityBase, ...]):
        object.__setattr__(self, "beliefs", beliefs)

    @classmethod
    def for_game(cls, game: GameSpec,
                 beliefs: Sequence[CapacityBase]) -> "BeliefSystem":
        system = cls(tuple(beliefs))
        _validate_system(game, system)
        return system


def _validate_system(game: GameSpec, system: BeliefSystem) -> None:
    if len(system.beliefs) != game.n_players:
        raise DomainMismatch("one belief per player required")
    for i, belief in enumerate(system.beliefs):
        expected = opponent_domain(game, i).flat.labels
        if belief.domain.labels != expected:
            raise DomainMismatch(
                f"player {i} belief lives on {list(belief.domain.labels)}, "
                f"opponent product is {list(expected)}"
            )


class EquilibriumCertificate(_Record):
    """Verification record: best responses, per-player belief mass outside
    the best-response box (all exactly zero iff equilibrium), and the
    correction map used."""

    __slots__ = _fields = ("beliefs", "best_responses", "residuals", "correction_name",
                           "degenerate_players", "supports", "supports_within_responses")

    def __init__(self, beliefs: BeliefSystem,
                 best_responses: tuple[tuple[str, ...], ...],
                 residuals: tuple[Fraction, ...],
                 correction_name: str,
                 degenerate_players: tuple[int, ...],
                 supports: SupportProfile | None = None,
                 supports_within_responses: bool | None = None):
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "best_responses", best_responses)
        object.__setattr__(self, "residuals", residuals)
        object.__setattr__(self, "correction_name", correction_name)
        object.__setattr__(self, "degenerate_players", degenerate_players)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "supports_within_responses", supports_within_responses)

    @property
    def holds(self) -> bool:
        return all(r == 0 for r in self.residuals)

    def to_dict(self) -> dict:
        out = {
            "equilibrium": self.holds,
            "correction": self.correction_name,
            "best_responses": [list(r) for r in self.best_responses],
            "residuals": [format_rational(r) for r in self.residuals],
            "degenerate_players": list(self.degenerate_players),
        }
        if self.supports is not None:
            out["supports"] = [list(s) for s in self.supports.labels]
            out["supports_within_responses"] = self.supports_within_responses
        return out


def is_equilibrium(game: GameSpec,
                   beliefs: Union[BeliefSystem, Sequence[CapacityBase]],
                   correction: CorrectionMap | None = None,
                   ) -> EquilibriumCertificate:
    """Evaluate each belief on the complement of the others' joint
    best-response box; the equilibrium flag is the conjunction of exact
    zero tests. Vacuous beliefs (zero on every proper subset) pass by
    construction and are flagged, not filtered."""
    corr = correction if correction is not None else default_correction()
    system = beliefs if isinstance(beliefs, BeliefSystem) else BeliefSystem(
        tuple(beliefs))
    _validate_system(game, system)

    responses = tuple(best_response(game, i, system.beliefs[i], corr)
                      for i in range(game.n_players))
    masks = [d.as_mask(r) for d, r in zip(game.strategy_domains, responses)]
    residuals = [belief.value_mask(_outside_box(game, i, masks))
                 for i, belief in enumerate(system.beliefs)]
    degenerate = tuple(i for i in range(game.n_players)
                       if system.beliefs[i].is_vacuous())
    return EquilibriumCertificate(
        beliefs=system,
        best_responses=responses,
        residuals=tuple(residuals),
        correction_name=corr.name,
        degenerate_players=degenerate,
    )


def _outside_box(game: GameSpec, player: int, responses: Sequence[int]) -> int:
    """Mask of the opponent profiles outside the box of the others' best
    responses (`responses` holds one own-strategy mask per player; the
    player's own is not read). The player's equilibrium condition is
    that their belief is exactly 0 on it."""
    opp = opponent_domain(game, player)
    box = opp.mask_of_box([m for j, m in enumerate(responses) if j != player])
    return opp.flat.full_mask & ~box


def _profile_beliefs(game: GameSpec, profile: SupportProfile) -> BeliefSystem:
    """Player i believes the tensor of the others' possibility capacities
    on their supports; with one opponent, that opponent's capacity itself.
    A lazy tensor is built on the game's opponent domain.

    During a support scan the game holds a cache, so that the scan
    builds each capacity, keyed (player, mask), and each belief, keyed
    (player, the others' masks), once."""
    cache = game._belief_cache
    if cache is None:
        cache = {}
    masks = profile.masks
    caps = []
    for j, (domain, labels) in enumerate(zip(game.strategy_domains, profile.labels)):
        cap = cache.get((j, masks[j]))
        if cap is None:
            cap = cache[j, masks[j]] = possibility_capacity(domain, labels)
        caps.append(cap)
    beliefs = []
    for i in range(game.n_players):
        key = (i, masks[:i] + masks[i + 1:])
        belief = cache.get(key)
        if belief is None:
            factors = caps[:i] + caps[i + 1:]
            belief = cache[key] = factors[0] if len(factors) == 1 else (
                LazyTensorCapacity(factors, _product=opponent_domain(game, i)))
        beliefs.append(belief)
    return BeliefSystem(tuple(beliefs))


def check_support_profile(game: GameSpec, profile: SupportProfile,
                          correction: CorrectionMap | None = None,
                          ) -> EquilibriumCertificate:
    """Check the belief system induced by a support profile: player i
    believes the tensor product of the others' possibility capacities.
    Also reports whether each support sits inside its own best-response
    set, the combinatorial form of the same condition."""
    if len(profile.masks) != game.n_players:
        raise ValueError("profile does not match the player count")
    for j, mask in enumerate(profile.masks):
        game.strategy_domains[j].check_mask(mask)
        if mask == 0:
            raise EmptySupport(f"player {j} support is empty")

    cert = is_equilibrium(game, _profile_beliefs(game, profile), correction)
    within = all(
        profile.masks[j] & ~game.strategy_domains[j].as_mask(cert.best_responses[j])
        == 0
        for j in range(game.n_players)
    )
    return EquilibriumCertificate(cert.beliefs, cert.best_responses, cert.residuals,
                                  cert.correction_name, cert.degenerate_players,
                                  supports=profile, supports_within_responses=within)


def support_profile_count(game: GameSpec) -> int:
    """Number of support profiles: the product of 2^k - 1 over players."""
    return math.prod((1 << d.size) - 1 for d in game.strategy_domains)


def _subset_max_axis(table: list[int], dims: list[int], axis: int) -> list[int]:
    """Replace one axis of a row-major table, indexed by the k strategies
    of a player, by that player's 2^k - 1 nonempty masks (mask m at
    position m - 1), each entry the maximum over the mask's strategies.

    Singleton masks are read straight from the table; any other mask m
    takes max(M(lowbit(m)), M(m ^ lowbit(m))), both computed before it.
    """
    k = dims[axis]
    inner = math.prod(dims[axis + 1:])
    out: list[int] = []
    for o in range(math.prod(dims[:axis])):
        base = o * k * inner
        by_mask: list[list[int]] = [[]]
        for m in range(1, 1 << k):
            low = m & -m
            if m == low:
                t = low.bit_length() - 1
                row = table[base + t * inner:base + (t + 1) * inner]
            else:
                row = list(map(max, by_mask[low], by_mask[m ^ low]))
            by_mask.append(row)
            out.extend(row)
    return out


def _best_response_masks(game: GameSpec, player: int) -> list[int]:
    """Player's best-response mask against every box of opponent
    supports, row-major over the opponents' masks (mask m at m - 1) in
    ascending player order: the own strategies whose payoff maximum over
    the box is largest, compared as payoff ranks (`_payoff_ranks`)."""
    dims = list(game.sizes)
    table = list(_payoff_ranks(game)[player])
    for axis in range(game.n_players):
        if axis != player:
            table = _subset_max_axis(table, dims, axis)
            dims[axis] = (1 << dims[axis]) - 1
    k = dims[player]
    inner = math.prod(dims[player + 1:])
    masks = []
    for o in range(math.prod(dims[:player])):
        base = o * k * inner
        for r in range(base, base + inner):
            scores = table[r:r + k * inner:inner]
            top = max(scores)
            masks.append(sum(1 << s for s, v in enumerate(scores) if v == top))
    return masks


def find_equilibria_supports(game: GameSpec,
                             correction: CorrectionMap | None = None,
                             budget: int = DEFAULT_PROFILE_BUDGET,
                             ) -> list[tuple[SupportProfile, EquilibriumCertificate]]:
    """Exhaustive scan over all support profiles in ascending-bitmask
    order (player 0 slowest), returning every profile that passes.

    Each profile is decided by box-max inclusion: it passes iff every
    player's support lies inside their best-response mask against the
    others' support box. For each choice of the other players' masks,
    only the last player's nonempty submasks of their response are
    visited, in ascending order; the others are then tested. Every hit
    is certified by the measure path, `check_support_profile` with the
    given correction, which must agree (AssertionError otherwise).
    """
    total = support_profile_count(game)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate profiles exceed the budget {budget}")
    n = game.n_players
    widths = [(1 << d.size) - 1 for d in game.strategy_domains]
    responses = [_best_response_masks(game, i) for i in range(n)]
    # weights[i][j]: step of player j's mask in player i's response
    # table; 0 for j == i, whose own mask does not index it.
    weights = []
    for i in range(n):
        strides = list(_row_major_strides(widths[:i] + widths[i + 1:]))
        strides.insert(i, 0)
        weights.append(strides)
    last = n - 1
    hits: list[tuple[SupportProfile, EquilibriumCertificate]] = []
    # The hits share their beliefs through a cache that the game holds
    # for this scan only: kept past it, it would hold memory for nothing.
    object.__setattr__(game, "_belief_cache", {})
    try:
        for head in itertools.product(*(range(1, w + 1) for w in widths[:last])):
            coords = [m - 1 for m in head]
            # Each player's response index from the masks in `head`; the
            # last player's mask m adds m - 1 to the others' (their last
            # opponent, so of step 1), and nothing to their own.
            bases = [sum(c * w for c, w in zip(coords, wts)) for wts in weights]
            allowed = responses[last][bases[last]]
            sub = 0
            while True:
                sub = (sub - allowed) & allowed  # the next submask, ascending
                if not sub:
                    break
                if any(mask & ~resp[base + sub - 1]
                       for mask, resp, base in zip(head, responses, bases)):
                    continue
                profile = SupportProfile.from_masks(game, head + (sub,))
                cert = check_support_profile(game, profile, correction)
                if not (cert.holds and cert.supports_within_responses):
                    raise AssertionError(
                        f"support profile {profile.labels} passed the box-max "
                        f"test but failed its certificate")
                hits.append((profile, cert))
    finally:
        object.__setattr__(game, "_belief_cache", None)
    return hits


def _grid_response_masks(game: GameSpec, player: int,
                         levels: Sequence[Fraction],
                         tables: Iterable[Sequence[int]],
                         correction: CorrectionMap) -> list[int]:
    """The player's best-response mask against each belief given as a
    rank table into `levels`, the sorted grid from 0 to 1.

    The corrected integral compares payoff values with corrected levels
    only, so it runs on ranks in one sorted chain of the player's payoff
    values and the correction of every interior grid level. Each
    strategy's level sets are computed once, as (chain rank, mask)
    pairs, and each table goes through the level-set loop with its grid
    ranks as levels: grid rank 0 is level 0, the last is level 1, and
    the lift of any other is its correction's chain rank.
    """
    labels = game.strategy_domains[player].labels
    slices = [payoff_slice(game, player, lab).values for lab in labels]
    corrected = [correction.evaluate(g) for g in levels[1:-1]]
    _, (lifted, *slice_ranks) = _ranked(corrected, *slices)
    # Indexed by grid rank; the two ends are never lifted.
    lift = [None, *lifted, None]
    level_sets = [list(_level_sets(ranks)) for ranks in slice_ranks]
    top = len(levels) - 1
    masks = []
    for ranks in tables:
        scores = [_level_set_max(sets, ranks.__getitem__, lift.__getitem__, top)
                  for sets in level_sets]
        best = max(scores)
        masks.append(sum(1 << s for s, v in enumerate(scores) if v == best))
    return masks


def find_equilibria_grid(game: GameSpec, grid: Iterable[Fraction | int],
                         correction: CorrectionMap | None = None,
                         budget: int = DEFAULT_PROFILE_BUDGET,
                         ) -> list[BeliefSystem]:
    """Every belief system whose capacities take values in the grid and
    pass `is_equilibrium`, in `itertools.product` order over the players'
    grid spaces (player 0 slowest).

    The search is decoupled: a player's best response depends on their
    own belief only. Each player's space is grouped by the best-response
    mask of its members, all decided on their rank tables in one pass
    (`_grid_response_masks`). For every tuple r of realised masks,
    player i accepts the members of group r_i whose rank outside the
    box of r_-i is 0, the rank of value 0: the residual rule of
    `is_equilibrium`. The hits for r are the product of the accepted
    lists. The budget bounds the product of the space sizes: each space
    is filled once as rank tables, and the tables are counted before
    any member is built from them.
    """
    corr = correction if correction is not None else default_correction()
    grid = tuple(grid)
    domains = [opponent_domain(game, i).flat for i in range(game.n_players)]
    # Players whose opponents have equal labels share one space.
    tables: dict[Domain, list[list[int]]] = {}
    for d in domains:
        if d not in tables:
            levels = _grid_values(d, grid)  # the sorted grid, for every d
            tables[d] = _grid_tables(d, levels)
    total = math.prod(len(tables[d]) for d in domains)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate belief systems exceed the budget {budget}")
    built = {d: FiniteCapacity._many_from_ranks(d, levels, ts)
             for d, ts in tables.items()}
    # groups[i]: best-response mask -> indices of player i's members.
    groups: list[dict[int, list[int]]] = []
    for i, d in enumerate(domains):
        by_mask: dict[int, list[int]] = {}
        masks = _grid_response_masks(game, i, levels, tables[d], corr)
        for k, mask in enumerate(masks):
            by_mask.setdefault(mask, []).append(k)
        groups.append(by_mask)
    hits: list[tuple[int, ...]] = []
    for responses in itertools.product(*groups):
        accepted = []
        for i, (d, by_mask) in enumerate(zip(domains, groups)):
            outside = _outside_box(game, i, responses)
            space = tables[d]
            accepted.append([k for k in by_mask[responses[i]]
                             if space[k][outside] == 0])
        hits.extend(itertools.product(*accepted))
    hits.sort()
    spaces = [built[d] for d in domains]
    return [BeliefSystem(tuple(space[k] for space, k in zip(spaces, combo)))
            for combo in hits]


def pure_nash(game: GameSpec) -> list[tuple[str, ...]]:
    """Classical exhaustive pure Nash scan by payoff comparison,
    profiles in ascending strategy-index order: a profile is kept when
    no player has a strictly better deviation. Payoffs compare as their
    ranks (`_payoff_ranks`)."""
    domains, strides = game.strategy_domains, game.strides()
    ranks = _payoff_ranks(game)
    hits: list[tuple[str, ...]] = []
    # Row-major flat indices count up in itertools.product order.
    for flat, combo in enumerate(itertools.product(*(range(d.size) for d in domains))):
        for table, own, stride, d in zip(ranks, combo, strides, domains):
            # The player's deviations: the entries along their axis.
            start = flat - own * stride
            if table[flat] != max(table[start:start + d.size * stride:stride]):
                break
        else:
            hits.append(tuple(d.labels[k] for d, k in zip(domains, combo)))
    return hits
