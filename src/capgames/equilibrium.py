"""Equilibrium checking and search for games with capacity beliefs.

A belief system gives every player a capacity over the joint choices of
the others. It is an equilibrium when each player's belief puts exactly
zero weight outside the box of everyone else's best responses.
`is_equilibrium` decides each best response as a mask with the rank
kernel of `game._response_mask` and reads each belief outside the box
of the others' masks. The
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
the last player's supports inside their response. Once every hit is
found, the measure path (`check_support_profile`) certifies each, so
every reported equilibrium carries a certificate computed from the
beliefs themselves. The certificates share their work (`_SupportMemo`):
the possibility capacities of the supports that the hits use, built and
validated as one batch per strategy domain before the first
certificate; each belief with its verdict (best-response labels and
mask, and vacuity), decided once per player and choice of the others'
supports; and each outside-box mask, once per player and choice of the
others' responses.

The grid search covers every belief system whose capacities take
values in a finite grid. It is decoupled: player i's best response
depends on player i's belief alone, so the members of a player's grid
space are grouped by response. Every member's response is decided on
its rank table by the same rank kernel, with the corrections of the
interior grid levels lifted once for the whole space; the tests hold
it to `best_response`, and that to the Fraction argmax of
`expected_payoff`. A tuple of realised
responses then fixes every player's box, and the hits for it are the
product of each player's group members that vanish (rank 0) outside
their box. The space sizes are counted, and the product checked against
the budget, before any member is built. A space depends only on the
opponents' domain and the grid, so it is filled and built once per
process, in two bounded memos (`capacity._grid_space_tables` and
`capacity._grid_space_members`): systems from different searches share
their immutable members.
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
    _grid_space_members,
    _grid_space_tables,
    _grid_values,
    _possibilities,
    _Record,
)
from .game import (
    GameSpec,
    _argmax_mask,
    _lifted,
    _payoff_ranked,
    _response_mask,
    _response_table,
    opponent_domain,
)
from .rational import format_rational
from .sugeno import CorrectionMap, default_correction
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
        _check_supports(game, masks)
        return cls(tuple(int(m) for m in masks),
                   tuple(d.labels_of(m) for d, m in zip(game.strategy_domains, masks)))

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
    verdicts = [_verdict(game, i, belief, corr)
                for i, belief in enumerate(system.beliefs)]
    return _certificate(game, system, verdicts, corr, {})


def _verdict(game: GameSpec, player: int, belief: CapacityBase,
             corr: CorrectionMap) -> tuple[tuple[str, ...], int, bool]:
    """The player's best response to the belief, as labels and as a mask
    (`_response_mask`), and whether the belief is vacuous."""
    mask = _response_mask(game, player, belief, corr)
    return game.strategy_domains[player].labels_of(mask), mask, belief.is_vacuous()


def _certificate(game: GameSpec, system: BeliefSystem,
                 verdicts: Sequence[tuple[tuple[str, ...], int, bool]],
                 corr: CorrectionMap, outside: dict,
                 profile: SupportProfile | None = None) -> EquilibriumCertificate:
    """The certificate of a belief system from each player's verdict
    (`_verdict`): each belief's value outside the box of the others'
    responses. `outside` memoizes those masks by (player, the others'
    response masks). With the support profile that induced the system,
    it also records whether each support lies inside its response."""
    masks = tuple(mask for _, mask, _ in verdicts)
    residuals = []
    for i, belief in enumerate(system.beliefs):
        key = (i, masks[:i] + masks[i + 1:])
        mask = outside.get(key)
        if mask is None:
            mask = outside[key] = _outside_box(game, i, masks)
        residuals.append(belief.value_mask(mask))
    return EquilibriumCertificate(
        beliefs=system,
        best_responses=tuple(labels for labels, _, _ in verdicts),
        residuals=tuple(residuals),
        correction_name=corr.name,
        degenerate_players=tuple(i for i, (_, _, vacuous) in enumerate(verdicts)
                                 if vacuous),
        supports=profile,
        supports_within_responses=None if profile is None else all(
            mask & ~response == 0 for mask, (_, response, _) in zip(profile.masks, verdicts)),
    )


def _outside_box(game: GameSpec, player: int, responses: Sequence[int]) -> int:
    """Mask of the opponent profiles outside the box of the others' best
    responses (`responses` holds one own-strategy mask per player; the
    player's own is not read). The player's equilibrium condition is
    that their belief is exactly 0 on it."""
    opp = opponent_domain(game, player)
    box = opp.mask_of_box([m for j, m in enumerate(responses) if j != player])
    return opp.flat.full_mask & ~box


def _check_supports(game: GameSpec, masks: Sequence[int]) -> None:
    for j, mask in enumerate(masks):
        game.strategy_domains[j].check_mask(mask)
        if mask == 0:
            raise EmptySupport(f"player {j} support is empty")


class _SupportMemo:
    """The work that the certificates of a list of support profiles
    under one correction share: the possibility capacity of each
    (strategy domain, support mask) that the profiles use, built on
    construction as one batch per domain (`_possibilities`), which
    players with equal domains share; each player's belief and verdict
    (`_verdict`) by (player, the others' masks); and the outside-box
    masks of `_certificate`. A support scan builds one from its hits and
    holds it on the game while it certifies them; any other check builds
    one from its own profile."""

    __slots__ = ("correction", "capacities", "players", "outside")

    def __init__(self, game: GameSpec, correction: CorrectionMap,
                 profiles: Sequence[SupportProfile]):
        self.correction = correction
        # Only the supports that some profile uses, in first use.
        supports: dict[Domain, dict[int, None]] = {}
        for j, domain in enumerate(game.strategy_domains):
            supports.setdefault(domain, {}).update(dict.fromkeys(p.masks[j] for p in profiles))
        self.capacities: dict[tuple[Domain, int], FiniteCapacity] = {
            (domain, mask): cap for domain, masks in supports.items() if masks
            for mask, cap in zip(masks, _possibilities(domain, list(masks)))}
        self.players: dict[tuple[int, tuple[int, ...]], tuple] = {}
        self.outside: dict[tuple[int, tuple[int, ...]], int] = {}

    def player(self, game: GameSpec, key: tuple[int, tuple[int, ...]],
               ) -> tuple[CapacityBase, tuple[tuple[str, ...], int, bool]]:
        """Player i's belief and verdict, for `key` = (i, the others'
        masks). The belief is the tensor of the others' possibility
        capacities on their supports; with one opponent, that opponent's
        capacity itself. A lazy tensor is built on the game's opponent
        domain."""
        entry = self.players.get(key)
        if entry is None:
            i, others = key
            domains = game.strategy_domains[:i] + game.strategy_domains[i + 1:]
            factors = list(map(self.capacities.__getitem__, zip(domains, others)))
            belief = factors[0] if len(factors) == 1 else (
                LazyTensorCapacity(factors, _product=opponent_domain(game, i)))
            entry = self.players[key] = (belief,
                                         _verdict(game, i, belief, self.correction))
        return entry


def check_support_profile(game: GameSpec, profile: SupportProfile,
                          correction: CorrectionMap | None = None,
                          ) -> EquilibriumCertificate:
    """Check the belief system induced by a support profile: player i
    believes the tensor product of the others' possibility capacities.
    Also reports whether each support sits inside its own best-response
    set, the combinatorial form of the same condition."""
    if len(profile.masks) != game.n_players:
        raise ValueError("profile does not match the player count")
    _check_supports(game, profile.masks)
    corr = correction if correction is not None else default_correction()
    memo = game._belief_cache
    if memo is None or memo.correction is not corr:
        memo = _SupportMemo(game, corr, [profile])
    masks = profile.masks
    beliefs, verdicts = zip(*(memo.player(game, (i, masks[:i] + masks[i + 1:]))
                              for i in range(game.n_players)))
    return _certificate(game, BeliefSystem(beliefs), verdicts, corr, memo.outside,
                        profile)


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
    the box is largest, compared as payoff ranks (`_payoff_ranked`)."""
    dims = list(game.sizes)
    table = list(_payoff_ranked(game)[1][player])
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
    visited, in ascending order; the others are then tested. Once all
    hits are found, the possibility capacities of the supports they use
    are built, one batch per strategy domain (`_SupportMemo`), and every
    hit, in order, is certified by the measure path,
    `check_support_profile` with the given correction, which must agree
    (AssertionError otherwise).
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
    domains = game.strategy_domains
    profiles: list[SupportProfile] = []
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
            masks = head + (sub,)
            # check_support_profile validates the masks.
            profiles.append(SupportProfile(masks, tuple(map(Domain.labels_of, domains, masks))))
    corr = correction if correction is not None else default_correction()
    hits: list[tuple[SupportProfile, EquilibriumCertificate]] = []
    # The hits share their beliefs and verdicts through a memo that the
    # game holds for this scan only: kept past it, it would hold memory
    # for nothing.
    object.__setattr__(game, "_belief_cache", _SupportMemo(game, corr, profiles))
    try:
        for profile in profiles:
            cert = check_support_profile(game, profile, corr)
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

    The same rank kernel as `best_response` (`game._response_mask`), with
    the grid ranks as level indices: each table goes through the
    level-set loop on the player's payoff level sets (`_response_table`),
    grid rank 0 is level 0, the last is level 1, and the lift of any
    other is the chain rank of its correction (`_lifted`), evaluated
    once for all tables.
    """
    sets = _response_table(game, player)
    sets, keys = _lifted(game, sets, [correction.evaluate(g) for g in levels[1:-1]])
    # Indexed by grid rank; the two ends are never lifted.
    lift = [0, *keys, 0].__getitem__
    top = len(levels) - 1
    return [_argmax_mask(sets, ranks.__getitem__, lift, top) for ranks in tables]


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
    lists. The grid is checked once. Each space is filled as rank
    tables, bounded only by its member count (MAX_SPACE_MEMBERS, not the
    opponents' domain size or the grid length), and the budget bounds
    the product of the space sizes, counted before any member is built
    or validated. Tables and members are kept per process, a bounded
    memo each keyed by (domain, grid), so a space is filled and built
    once for every search that uses it while it stays in the memo, and
    systems from different calls share their members.
    """
    corr = correction if correction is not None else default_correction()
    levels = _grid_values(grid)
    domains = [opponent_domain(game, i).flat for i in range(game.n_players)]
    # Players whose opponents have equal labels share one space.
    tables = {d: _grid_space_tables(d, levels) for d in dict.fromkeys(domains)}
    total = math.prod(len(tables[d]) for d in domains)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate belief systems exceed the budget {budget}")
    built = {d: _grid_space_members(d, levels) for d in tables}
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
    ranks (`_payoff_ranked`)."""
    domains, strides = game.strategy_domains, game.strides()
    ranks = _payoff_ranked(game)[1]
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
