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
tables built once per player with the subset-max recurrence; the
measure path (`check_support_profile`) then certifies each hit, so
every reported equilibrium carries a certificate computed from the
beliefs themselves.

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
from .game import GameSpec, best_response, opponent_domain, payoff_slice
from .rational import format_rational
from .sugeno import CorrectionMap, _level_set_max, _level_sets, default_correction
from .tensor import _row_major_strides, lazy_tensor

__all__ = [
    "DEFAULT_PROFILE_BUDGET",
    "SupportProfile",
    "BeliefSystem",
    "EquilibriumCertificate",
    "CycleReport",
    "is_equilibrium",
    "check_support_profile",
    "support_profile_count",
    "find_equilibria_supports",
    "iterate_best_response_supports",
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
    caps = [possibility_capacity(game.strategy_domains[j], profile.labels[j])
            for j in range(game.n_players)]
    beliefs = []
    for i in range(game.n_players):
        factors = [caps[j] for j in range(game.n_players) if j != i]
        beliefs.append(lazy_tensor(factors))
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


def _subset_max_axis(table: list[Fraction], dims: list[int],
                     axis: int) -> list[Fraction]:
    """Replace one axis of a row-major table, indexed by the k strategies
    of a player, by that player's 2^k - 1 nonempty masks (mask m at
    position m - 1), each entry the maximum over the mask's strategies.

    Singleton masks are read straight from the table; any other mask m
    takes max(M(lowbit(m)), M(m ^ lowbit(m))), both computed before it.
    """
    k = dims[axis]
    inner = math.prod(dims[axis + 1:])
    out: list[Fraction] = []
    for o in range(math.prod(dims[:axis])):
        base = o * k * inner
        by_mask: list[list[Fraction]] = [[]]
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
    the box is largest."""
    dims = list(game.sizes)
    table = list(game.payoffs[player])
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
    others' support box. Every hit is then certified by the measure
    path, `check_support_profile` with the given correction, which must
    agree (AssertionError otherwise).
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
    hits: list[tuple[SupportProfile, EquilibriumCertificate]] = []
    for masks in itertools.product(*(range(1, w + 1) for w in widths)):
        coords = [m - 1 for m in masks]
        if any(mask & ~resp[sum(c * w for c, w in zip(coords, wts))]
               for mask, resp, wts in zip(masks, responses, weights)):
            continue
        profile = SupportProfile.from_masks(game, masks)
        cert = check_support_profile(game, profile, correction)
        if not (cert.holds and cert.supports_within_responses):
            raise AssertionError(
                f"support profile {profile.labels} passed the box-max test "
                f"but failed its certificate")
        hits.append((profile, cert))
    return hits


class CycleReport(_Record):
    """Best-response support iteration that failed to stabilize.

    `trajectory` lists the visited profiles in order; `cycle_start` is
    the index the final update returned to, or None when the iteration
    budget ran out before any repeat."""

    __slots__ = _fields = ("trajectory", "cycle_start")

    def __init__(self, trajectory: tuple[SupportProfile, ...], cycle_start: int | None):
        object.__setattr__(self, "trajectory", trajectory)
        object.__setattr__(self, "cycle_start", cycle_start)

    @property
    def cycle(self) -> tuple[SupportProfile, ...]:
        if self.cycle_start is None:
            return ()
        return self.trajectory[self.cycle_start:]


def iterate_best_response_supports(game: GameSpec,
                                   correction: CorrectionMap | None = None,
                                   max_iters: int = 64,
                                   ) -> Union[SupportProfile, CycleReport]:
    """Iterate S <- best responses against the beliefs built from S,
    starting from full supports. Returns the first stable profile
    (its stability check doubles as verification) or a cycle report."""
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    current = SupportProfile.full(game)
    seen = {current.masks: 0}
    trajectory = [current]
    for _ in range(max_iters):
        cert = check_support_profile(game, current, correction)
        nxt = tuple(game.strategy_domains[j].as_mask(cert.best_responses[j])
                    for j in range(game.n_players))
        if nxt == current.masks:
            if not cert.holds:
                raise AssertionError("stable support profile failed verification")
            return current
        if nxt in seen:
            return CycleReport(tuple(trajectory), seen[nxt])
        current = SupportProfile.from_masks(game, nxt)
        seen[current.masks] = len(trajectory)
        trajectory.append(current)
    return CycleReport(tuple(trajectory), None)


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
            tables[d] = list(_grid_tables(d, levels))
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
    profiles in ascending strategy-index order."""
    hits: list[tuple[str, ...]] = []
    for combo in itertools.product(*(range(d.size) for d in game.strategy_domains)):
        stable = True
        for i in range(game.n_players):
            base = game.payoff(i, combo)
            for alt in range(game.strategy_domains[i].size):
                if alt == combo[i]:
                    continue
                deviated = list(combo)
                deviated[i] = alt
                if game.payoff(i, deviated) > base:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            hits.append(tuple(d.labels[k]
                              for d, k in zip(game.strategy_domains, combo)))
    return hits
