"""Shared builders and independent oracles used across the test modules.

The oracles re-derive results straight from definitions through code
paths disjoint from the library internals, so agreement is evidence,
not tautology.
"""

import contextlib
import itertools
import json
import math
import time

import numpy as np
from fractions import Fraction

from capgames import (
    DENSE_DOMAIN_CAP,
    BeliefSystem,
    BudgetExceeded,
    CapacityBase,
    CapacityError,
    CorrectionMap,
    Domain,
    DomainTooLarge,
    FiniteCapacity,
    GameSpec,
    MonotonicityError,
    NormalizationError,
    PayoffFunction,
    RangeError,
    SplitMix64,
    SupportProfile,
    best_response,
    check_support_profile,
    classical_sugeno,
    default_correction,
    enumerate_capacities,
    expected_payoff,
    format_rational,
    is_equilibrium,
    opponent_domain,
    product_domain,
    random_capacity,
    separating_halves,
)
from capgames import capacity, convexity, io, sugeno, tensor
from capgames.convexity import BinarityReport, FULL_FAMILY_CAP, SeparationReport

FRACTION_COMPARISONS = ("__eq__", "__lt__", "__le__", "__gt__", "__ge__")


def letters(count: int) -> Domain:
    return Domain(tuple(chr(ord("a") + k) for k in range(count)))


def coordination_game() -> GameSpec:
    return GameSpec.from_nested(
        [Domain(("A", "B")), Domain(("A", "B"))],
        [[[1, 0], [0, 1]], [[1, 0], [0, 1]]],
    )


def matching_pennies() -> GameSpec:
    return GameSpec.from_nested(
        [Domain(("H", "T")), Domain(("H", "T"))],
        [[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]],
    )


def dominant_game() -> GameSpec:
    # strategy "a" strictly dominates for both players
    return GameSpec.from_nested(
        [Domain(("a", "b")), Domain(("a", "b"))],
        [[[3, 3], [0, 0]], [[3, 0], [3, 0]]],
    )


def one_strategy_game() -> GameSpec:
    return GameSpec.from_nested(
        [Domain(("only",)), Domain(("sole",))],
        [[[1]], [[2]]],
    )


def no_support_equilibrium_game() -> GameSpec:
    """2x2 game with no support-profile equilibrium (exhaustively found)."""
    return GameSpec.from_nested(
        [Domain(("a", "b")), Domain(("a", "b"))],
        [[[-2, -1], [-1, -2]], [[-1, -2], [-2, 0]]],
    )


def measure_support_scan(game: GameSpec, corr: CorrectionMap | None = None):
    """Reference support scan through the measure path: every profile in
    ascending-bitmask order (player 0 slowest) goes through
    check_support_profile, and the ones whose certificate holds are
    kept."""
    hits = []
    for masks in itertools.product(
            *(range(1, 1 << d.size) for d in game.strategy_domains)):
        profile = SupportProfile.from_masks(game, masks)
        cert = check_support_profile(game, profile, corr)
        if cert.holds:
            hits.append((profile, cert))
    return hits


def product_grid_scan(game: GameSpec, grid, corr: CorrectionMap | None = None,
                      budget: int = 1 << 24):
    """Reference grid search: every belief system of the product of the
    players' grid spaces, in itertools.product order, goes through
    is_equilibrium, and the ones whose certificate holds are kept."""
    grid = tuple(grid)
    spaces = [enumerate_capacities(opponent_domain(game, i).flat, grid)
              for i in range(game.n_players)]
    total = 1
    for s in spaces:
        total *= len(s)
    if total > budget:
        raise BudgetExceeded(
            f"{total} candidate belief systems exceed the budget {budget}")
    out = []
    for combo in itertools.product(*(s.capacities for s in spaces)):
        cert = is_equilibrium(game, combo, corr)
        if cert.holds:
            out.append(cert.beliefs)
    return out


def best_response_grid_search(game: GameSpec, grid,
                              corr: CorrectionMap | None = None,
                              budget: int = 1 << 24):
    """Reference decoupled grid search, one best_response per member:
    each player's grid space is grouped by the member's best-response
    mask; for every tuple of realised masks, each player accepts the
    members of their group that are exactly 0 outside the box of the
    others' masks, and the hits are the product of the accepted lists,
    in itertools.product order over the spaces (player 0 slowest)."""
    corr = corr if corr is not None else default_correction()
    grid = tuple(grid)
    spaces = [enumerate_capacities(opponent_domain(game, i).flat, grid).capacities
              for i in range(game.n_players)]
    if math.prod(map(len, spaces)) > budget:
        raise BudgetExceeded(
            f"{math.prod(map(len, spaces))} candidate belief systems exceed "
            f"the budget {budget}")
    groups = []
    for i, space in enumerate(spaces):
        own = game.strategy_domains[i]
        by_mask: dict[int, list[int]] = {}
        for k, cap in enumerate(space):
            mask = own.mask_of(best_response(game, i, cap, corr))
            by_mask.setdefault(mask, []).append(k)
        groups.append(by_mask)
    hits = []
    for responses in itertools.product(*groups):
        accepted = []
        for i, (space, by_mask) in enumerate(zip(spaces, groups)):
            opp = opponent_domain(game, i)
            box = opp.mask_of_box([m for j, m in enumerate(responses) if j != i])
            outside = opp.flat.full_mask & ~box
            accepted.append([k for k in by_mask[responses[i]]
                             if space[k].value_mask(outside) == 0])
        hits.extend(itertools.product(*accepted))
    hits.sort()
    return [BeliefSystem(tuple(space[k] for space, k in zip(spaces, combo)))
            for combo in hits]


def satisfies_defining_inequality(t: Fraction, level: Fraction,
                                  corr: CorrectionMap) -> bool:
    """level >= inverse-correction(t), decided through the forward map:
    level 1 always passes, level 0 never does, otherwise compare
    correction(level) against t."""
    if level == 1:
        return True
    if level == 0:
        return False
    return corr.evaluate(level) >= t


def linear_sugeno_oracle(func: PayoffFunction, cap: CapacityBase,
                         corr: CorrectionMap, resolution: Fraction) -> Fraction:
    """Reference for sugeno_oracle's binary search: the same grid of t
    (step `resolution` over [min f - 1, max f + 1], plus the payoff
    values) walked top-down, returning the first t that satisfies the
    defining inequality, decided by the library's exact bisection."""
    low = func.minimum - 1
    steps = math.ceil((func.maximum + 1 - low) / resolution)
    points = sorted({low + k * resolution for k in range(steps + 1)} | set(func.values),
                    reverse=True)
    for t in points:
        level = cap.value_mask(func.level_mask(t))
        if sugeno._satisfies_defining_inequality(t, level, corr):
            return t
    raise AssertionError("unreachable: the grid floor sits below min f")


def dumb_corrected_sugeno(func: PayoffFunction, cap: CapacityBase,
                          corr: CorrectionMap) -> Fraction:
    """Definition-first integral: collect every payoff value and every
    finite corrected level as a candidate threshold, keep the largest
    satisfying one."""
    candidates = set(func.values)
    for v in set(func.values):
        level = cap.value_mask(func.level_mask(v))
        if level != 0 and level != 1:
            candidates.add(corr.evaluate(level))
    best = None
    for t in sorted(candidates):
        level = cap.value_mask(func.level_mask(t))
        if satisfies_defining_inequality(t, level, corr):
            best = t
    assert best is not None
    return best


def dumb_tensor_value(first: FiniteCapacity, second: FiniteCapacity,
                      product_mask: int) -> Fraction:
    """Defining sup for one product subset by descending t-scan over the
    jump points of both step functions."""
    n2 = second.domain.size
    row = second.domain.full_mask
    sections = []
    for x in range(first.domain.size):
        sections.append(second.value_mask((product_mask >> (x * n2)) & row))
    candidates = sorted(set(sections) | set(first.values), reverse=True)
    for t in candidates:
        holders = sum(1 << x for x, s in enumerate(sections) if s >= t)
        if first.value_mask(holders) >= t:
            return t
    return Fraction(0)


def fraction_tensor2(left: CapacityBase, right: CapacityBase) -> FiniteCapacity:
    """Reference dense tensor product on Fractions: every product mask's
    section values go through the classical integral against the left
    factor, and the table through FiniteCapacity's own validation."""
    m, k = left.domain.size, right.domain.size
    flat = product_domain([left.domain, right.domain]).flat
    row = right.domain.full_mask
    values = []
    for mask in range(flat.subset_count):
        sections = tuple(right.value_mask((mask >> (x * k)) & row)
                         for x in range(m))
        values.append(classical_sugeno(PayoffFunction(left.domain, sections), left))
    return FiniteCapacity(flat, values)


def level_set_tensor2(left: CapacityBase, right: CapacityBase) -> FiniteCapacity:
    """Reference dense tensor product on ranks: every product mask's
    section ranks go through the classical integral's level-set loop
    against the left factor's ranks, one distinct section tuple once."""
    m = left.domain.size
    levels, (_, left_ranks, right_ranks) = capacity._ranked(
        capacity._ZERO_ONE, tensor._table(left), tensor._table(right))
    memo = {}
    ranks = []
    # product varies its last slot fastest, as masks vary their lowest
    # row: each tuple holds the section ranks of the rows, last row first.
    for sections in itertools.product(right_ranks, repeat=m):
        if sections not in memo:
            memo[sections] = sugeno._level_set_max(
                sugeno._level_sets(sections[::-1]), left_ranks.__getitem__,
                top=len(levels) - 1)
        ranks.append(memo[sections])
    flat = product_domain([left.domain, right.domain]).flat
    return FiniteCapacity._from_ranks(flat, levels, ranks)


def fraction_tensor_many(caps) -> CapacityBase:
    """Left-associated fold of fraction_tensor2."""
    acc = caps[0]
    for nxt in caps[1:]:
        acc = fraction_tensor2(acc, nxt)
    return acc


class FractionLazyTensor(CapacityBase):
    """Reference lazy left fold on Fractions: the value at B is the
    classical integral of the last factor's section values against the
    fold of the earlier factors, itself a FractionLazyTensor, memoized
    per instance."""

    def __init__(self, factors):
        fs = self.factors = tuple(factors)
        self.domain = product_domain([f.domain for f in fs]).flat
        if len(fs) == 1:
            self._prefix = None
        elif len(fs) == 2:
            self._prefix = fs[0]
        else:
            self._prefix = FractionLazyTensor(fs[:-1])
        self._memo = {}

    def value_mask(self, mask: int) -> Fraction:
        if mask not in self._memo:
            last = self.factors[-1]
            if self._prefix is None:
                value = last.value_mask(mask)
            else:
                k, row = last.domain.size, last.domain.full_mask
                sections = tuple(last.value_mask((mask >> (z * k)) & row)
                                 for z in range(self._prefix.domain.size))
                value = classical_sugeno(
                    PayoffFunction(self._prefix.domain, sections), self._prefix)
            self._memo[mask] = value
        return self._memo[mask]


def fraction_best_response(game: GameSpec, player: int, belief: CapacityBase,
                           corr: CorrectionMap) -> tuple[str, ...]:
    """Reference best response on Fractions: the own strategies whose
    `expected_payoff` (the corrected Sugeno integral) is largest, in
    strategy order."""
    labels = game.strategy_domains[player].labels
    scores = [expected_payoff(game, player, lab, belief, corr) for lab in labels]
    top = max(scores)
    return tuple(lab for lab, s in zip(labels, scores) if s == top)


def loop_mask_of_box(product, coordinate_masks) -> int:
    """Reference box mask of a ProductDomain: every flat point is kept
    when each coordinate lies in its factor's mask."""
    mask = 0
    for idx in range(product.size):
        keep = True
        for d, stride, cmask in zip(product.factors, product._strides, coordinate_masks):
            if not (cmask >> ((idx // stride) % d.size)) & 1:
                keep = False
                break
        if keep:
            mask |= 1 << idx
    return mask


def fraction_box_responses(game: GameSpec, masks) -> list[int]:
    """Each player's best-response mask against the others' support box,
    on Fractions: the own strategies whose payoff maximum over the box
    is largest."""
    boxes = [[k for k in range(d.size) if m >> k & 1]
             for d, m in zip(game.strategy_domains, masks)]
    responses = []
    for i, d in enumerate(game.strategy_domains):
        scores = [max(game.payoff(i, profile) for profile in
                      itertools.product(*boxes[:i], [s], *boxes[i + 1:]))
                  for s in range(d.size)]
        top = max(scores)
        responses.append(sum(1 << s for s, v in enumerate(scores) if v == top))
    return responses


def full_product_support_scan(game: GameSpec, corr: CorrectionMap | None = None):
    """Reference support scan: every profile of the full product, in
    ascending-bitmask order (player 0 slowest), decided by box-max
    inclusion on Fractions (`fraction_box_responses`), each hit
    certified by check_support_profile."""
    hits = []
    for masks in itertools.product(
            *(range(1, 1 << d.size) for d in game.strategy_domains)):
        responses = fraction_box_responses(game, masks)
        if all(m & ~r == 0 for m, r in zip(masks, responses)):
            profile = SupportProfile.from_masks(game, masks)
            cert = check_support_profile(game, profile, corr)
            assert cert.holds and cert.supports_within_responses
            hits.append((profile, cert))
    return hits


def fraction_pure_nash(game: GameSpec) -> list[tuple[str, ...]]:
    """Reference pure Nash scan on Fractions: a profile is kept when no
    player has a strictly better deviation; ascending strategy-index
    order."""
    hits = []
    for combo in itertools.product(*(range(d.size) for d in game.strategy_domains)):
        stable = all(
            game.payoff(i, combo[:i] + (alt,) + combo[i + 1:]) <= game.payoff(i, combo)
            for i, d in enumerate(game.strategy_domains) for alt in range(d.size))
        if stable:
            hits.append(tuple(d.labels[k] for d, k in zip(game.strategy_domains, combo)))
    return hits


@contextlib.contextmanager
def counted_fraction_compares():
    """Count Fraction comparisons (==, <, <=, >, >=) inside the block, as
    the benchmark tracer does, by patching the Fraction methods; yields a
    one-element list holding the count."""
    count = [0]
    originals = {op: getattr(Fraction, op) for op in FRACTION_COMPARISONS}

    def counting(op):
        def counted(a, b):
            count[0] += 1
            return op(a, b)
        return counted

    try:
        for name, op in originals.items():
            setattr(Fraction, name, counting(op))
        yield count
    finally:
        for name, op in originals.items():
            setattr(Fraction, name, op)


def is_possibility(cap: CapacityBase) -> bool:
    """True when every value equals the max over member singletons."""
    dom = cap.domain
    singles = [cap.value_mask(1 << k) for k in range(dom.size)]
    for mask in range(1, dom.subset_count):
        expect = max(singles[k] for k in range(dom.size) if mask >> k & 1)
        if cap.value_mask(mask) != expect:
            return False
    return True


def fraction_capacity_table(domain: Domain, values) -> tuple[Fraction, ...]:
    """Reference capacity validation on the Fraction table, independent
    of the rank checks: the domain size, the table length, each entry's
    range in mask order, normalisation, then the cover pairs (A, A + {x})
    by mask of A and then by x. Returns the table, or raises the error
    FiniteCapacity must raise, with the same message."""
    if domain.size > DENSE_DOMAIN_CAP:
        raise DomainTooLarge(f"domain has {domain.size} points; dense tables "
                             f"stop at {DENSE_DOMAIN_CAP}")
    table = tuple(Fraction(v) for v in values)
    if len(table) != domain.subset_count:
        raise ValueError(f"need {domain.subset_count} values for a "
                         f"{domain.size}-point domain, got {len(table)}")
    for mask, v in enumerate(table):
        if v < 0 or v > 1:
            subset = ", ".join(repr(lab) for lab in domain.labels_of(mask))
            raise RangeError(f"value {v} on {{{subset}}} outside [0, 1]")
    if table[0] != 0:
        raise NormalizationError(f"empty set must get 0, got {table[0]}")
    if table[-1] != 1:
        raise NormalizationError(f"full set must get 1, got {table[-1]}")
    for mask, v in enumerate(table):
        for k in range(domain.size):
            large = mask | 1 << k
            if large != mask and v > table[large]:
                raise MonotonicityError(domain.labels_of(mask), domain.labels_of(large),
                                        v, table[large])
    return table


def one_by_one_from_ranks(domain: Domain, levels, tables) -> list[tuple[Fraction, ...]]:
    """Reference for FiniteCapacity._many_from_ranks: the levels checked
    once, then every table on its own, in order, with no packed ints:
    its length and rank bounds, then `fraction_capacity_table` on its
    values. Returns the value tables, or raises the first bad table's
    error with the library's message."""
    if domain.size > DENSE_DOMAIN_CAP:
        raise DomainTooLarge(f"domain has {domain.size} points; dense tables "
                             f"stop at {DENSE_DOMAIN_CAP}")
    levels = tuple(Fraction(v) for v in levels)
    if any(a >= b for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be strictly increasing")
    built = []
    for ranks in tables:
        if len(ranks) != domain.subset_count:
            raise ValueError(f"need {domain.subset_count} values for a "
                             f"{domain.size}-point domain, got {len(ranks)}")
        if any(not 0 <= r < len(levels) for r in ranks):
            raise ValueError(f"ranks must lie in range({len(levels)})")
        built.append(fraction_capacity_table(domain, [levels[r] for r in ranks]))
    return built


def depth_first_grid_tables(domain: Domain, values):
    """Reference for capacity._grid_tables: the recursive fill, yielding
    each rank table as it completes. Subsets are filled in
    `_monotone_fill_order`, each from its floor (the max over its lower
    covers) up to the top rank; the full set is forced to the top.
    Raises BudgetExceeded when table MAX_SPACE_MEMBERS + 1 would be
    yielded."""
    full = domain.full_mask
    order = capacity._monotone_fill_order(domain)
    table = {0: 0, full: len(values) - 1}

    def fill(pos):
        if pos == len(order):
            yield [table[m] for m in range(full + 1)]
            return
        mask, covers = order[pos]
        for rank in range(max(table[c] for c in covers), len(values)):
            table[mask] = rank
            yield from fill(pos + 1)
        del table[mask]

    for count, dense in enumerate(fill(0)):
        if count == capacity.MAX_SPACE_MEMBERS:
            raise BudgetExceeded(
                f"{domain.size} points with {len(values)} grid values give "
                f"more than {capacity.MAX_SPACE_MEMBERS} capacities, the exhaustive budget")
        yield dense


def fraction_random_capacity(domain: Domain, rng: SplitMix64,
                             denominator: int = 8) -> FiniteCapacity:
    """Reference for random_capacity: the same draws on a Fraction table.
    Each subset, in `_monotone_fill_order`, takes a grid value k/denominator
    drawn uniformly from the least one at or above its floor (the max
    over its lower covers) up to 1; the table goes through __init__."""
    full = domain.full_mask
    table = {0: Fraction(0), full: Fraction(1)}
    for mask, covers in capacity._monotone_fill_order(domain):
        floor = max(table[c] for c in covers)
        start = math.ceil(floor * denominator)
        table[mask] = Fraction(start + rng.below(denominator - start + 1), denominator)
    return FiniteCapacity(domain, [table[m] for m in range(full + 1)])


def seeded_capacity(seed: int, size: int, denominator: int = 8) -> FiniteCapacity:
    return random_capacity(letters(size), SplitMix64(seed), denominator)


def _scale_of(values) -> int:
    """Twice the lcm of the values' denominators, so that the values and
    the midpoints of any two of them scale to integers."""
    denom = 1
    for v in values:
        denom = math.lcm(denom, v.denominator)
    return 2 * denom


def _scaled_matrix(caps, scale: int) -> np.ndarray:
    """One row of value * scale per capacity; each product must be an integer."""
    rows = []
    for cap in caps:
        row = []
        for v in cap.values:
            q, r = divmod(v.numerator * scale, v.denominator)
            if r:
                raise AssertionError("scaled capacity value left the integers")
            row.append(q)
        rows.append(row)
    return np.array(rows, dtype=np.int64)


def ranked_reference(*tables):
    """Reference for capacity._ranked: the sorted set of all the values,
    and each table through a Fraction-keyed rank dict."""
    levels = sorted(set(itertools.chain.from_iterable(tables)))
    rank = {Fraction(v): r for r, v in enumerate(levels)}
    return levels, [[rank[Fraction(v)] for v in table] for table in tables]


def value_ranked_space(grid, capacities):
    """Reference for GridCapacitySpace's rows, ranked on values: the grid
    and every member's values ranked together (`ranked_reference`).
    Returns the sorted distinct grid, each member's row of ranks, and
    the first position of each row, a row bytes up to 256 levels and a
    tuple above; or raises the ValueError that names the first member,
    and its first value by mask, off the grid."""
    levels, (grid_ranks, *rows) = ranked_reference(grid, *(c.values for c in capacities))
    on_grid = set(grid_ranks)
    for k, (cap, row) in enumerate(zip(capacities, rows)):
        for v, r in zip(cap.values, row):
            if r not in on_grid:
                raise ValueError(f"member {k} has value {v}, which is off the grid")
    rows = tuple(map(bytes if len(levels) <= 256 else tuple, rows))
    pos = {}
    for k, row in enumerate(rows):
        pos.setdefault(row, k)
    return levels, rows, pos


def value_ranked_index(domain: Domain, levels, pos, cap) -> int | None:
    """Reference for GridCapacitySpace.index_of on `value_ranked_space`'s
    levels and positions: the capacity's values ranked with the levels,
    a member iff that adds no level and gives a member's row; None for
    a capacity that is not a member."""
    if cap.domain.labels != domain.labels:
        return None
    merged, (_, row) = ranked_reference(levels, cap.values)
    if len(merged) != len(levels):
        return None
    return pos.get(bytes(row) if len(levels) <= 256 else tuple(row))


# Levels that `with_foreign_levels` adds and no mask takes: two outside
# [0, 1], which the rank constructor trims, and one inside, which it keeps.
FOREIGN_LEVELS = (Fraction(-1), Fraction(1, 97), Fraction(2))


def with_foreign_levels(cap: FiniteCapacity) -> FiniteCapacity:
    """The same capacity, rebuilt by `FiniteCapacity._from_ranks` on its
    values and FOREIGN_LEVELS: equal to `cap`, with the unused level
    1/97 in its `_levels`."""
    levels = sorted(set(cap.values).union(FOREIGN_LEVELS))
    rank = {v: r for r, v in enumerate(levels)}
    return FiniteCapacity._from_ranks(cap.domain, levels, [rank[v] for v in cap.values])


def on_levels(cap: FiniteCapacity, levels) -> FiniteCapacity:
    """The same capacity, rebuilt by `FiniteCapacity._from_ranks` on
    `levels`, a sorted list from 0 to 1 that holds all its values:
    capacities rebuilt on equal lists have equal `_levels`."""
    rank = {v: r for r, v in enumerate(levels)}
    return FiniteCapacity._from_ranks(cap.domain, levels, [rank[v] for v in cap.values])


class ValuesOnly(CapacityBase):
    """A capacity read through its `value_mask` only: the same values as
    the wrapped capacity, with no rank table for a fast path to read."""

    def __init__(self, cap: CapacityBase):
        self.cap, self.domain = cap, cap.domain

    def value_mask(self, mask: int) -> Fraction:
        return self.cap.value_mask(mask)


def groupby_level_sets(values) -> list[tuple[Fraction, int]]:
    """Reference level sets: each distinct value, descending, with the
    mask of the points at or above it, grouped by `itertools.groupby`
    over the points sorted by value."""
    order = sorted(range(len(values)), key=lambda k: values[k], reverse=True)
    sets, mask = [], 0
    for v, points in itertools.groupby(order, key=lambda k: values[k]):
        for k in points:
            mask |= 1 << k
        sets.append((v, mask))
    return sets


def pairwise_t2_scan(space) -> SeparationReport:
    """Reference separation scan: for every distinct pair, build the halves
    through separating_halves and verify the cover and the two
    exclusions against the whole space, on values scaled by twice the
    lcm of the grid denominators (not on the library's grid ranks)."""
    start = time.perf_counter()
    scale = _scale_of(space.grid)
    mat = _scaled_matrix(space.capacities, scale)
    n = len(space.capacities)
    pairs = 0
    failures: list[tuple[int, int, str]] = []

    for p in range(n):
        for q in range(p + 1, n):
            pairs += 1
            cap_p, cap_q = space.capacities[p], space.capacities[q]
            half_hi, half_lo = separating_halves(cap_p, cap_q)
            w = next(mask for mask in range(space.domain.subset_count)
                     if cap_p.values[mask] != cap_q.values[mask])
            smaller, larger = (p, q) if cap_p.values[w] < cap_q.values[w] else (q, p)

            hi_lower, hi_upper, lo_lower, lo_upper = _scaled_matrix(
                (half_hi.lower, half_hi.upper, half_lo.lower, half_lo.upper), scale)
            in_hi = (mat >= hi_lower).all(axis=1) & (mat <= hi_upper).all(axis=1)
            in_lo = (mat >= lo_lower).all(axis=1) & (mat <= lo_upper).all(axis=1)
            if not bool((in_hi | in_lo).all()):
                failures.append((p, q, "halves do not cover the space"))
            if bool(in_hi[smaller]):
                failures.append((p, q, "smaller endpoint not excluded from upper half"))
            if bool(in_lo[larger]):
                failures.append((p, q, "larger endpoint not excluded from lower half"))
    return SeparationReport(
        capacity_count=n,
        pairs_checked=pairs,
        failures=tuple(failures),
        seconds=time.perf_counter() - start,
    )


def _pack_bool(bools: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(bools.astype(np.uint8), bitorder="little").tobytes(), "little"
    )


# Failures the reference binarity scan lists; it stops recording there.
FAILURE_CAP = 16


def bigint_binarity_scan(space, full_family: bool = False) -> BinarityReport:
    """Reference binarity scan: the intervals' link rows as Python
    big-integer bitsets, every linked pair (i, j) and its triples walked
    one pair at a time, each failing triple or family listed up to
    FAILURE_CAP. The join and meet tables come from a dict of its own
    from each member row tuple to its index. Only the budgets come from
    the library: FULL_FAMILY_CAP, and convexity.INTERVAL_BUDGET, read at
    each call so that a test can budget both scans alike. The members
    are compared as values scaled by twice the lcm of the grid
    denominators, not as the library's grid ranks."""
    start = time.perf_counter()
    mat = np.unique(_scaled_matrix(space.capacities, _scale_of(space.grid)), axis=0)
    n = len(mat)
    # Row by row, so that a space far over budget stops before n x n tables.
    below_rows = []
    m = 0
    for row in mat:
        below_rows.append((row <= mat).all(axis=1))
        m += int(below_rows[-1].sum())
        if m > convexity.INTERVAL_BUDGET:
            raise BudgetExceeded(
                f"binarity scan: at least {m} distinct intervals exceed "
                f"budget {convexity.INTERVAL_BUDGET}")
    below = np.array(below_rows)
    lows, highs = np.nonzero(below)
    if full_family and m > FULL_FAMILY_CAP:
        raise BudgetExceeded(
            f"binarity scan: full-family scan capped at {FULL_FAMILY_CAP} "
            f"intervals, have {m}"
        )

    index = {row: k for k, row in enumerate(map(tuple, mat.tolist()))}

    def member_table(op) -> np.ndarray:
        table = [[index.get(tuple(found)) for found in op(row, mat).tolist()]
                 for row in mat]
        if any(None in found for found in table):
            raise AssertionError(
                f"pointwise {op.__name__} of two members left the space; closure broken")
        return np.array(table, dtype=np.intp)

    join_of, meet_of = member_table(np.maximum), member_table(np.minimum)
    interval_of = np.full((n, n), -1, dtype=np.intp)
    interval_of[lows, highs] = np.arange(m)

    def intersections(i: int) -> np.ndarray:
        # Index of i ∩ j for every interval j; -1 where they are not linked.
        return interval_of[join_of[lows[i], lows], meet_of[highs[i], highs]]

    rows = [_pack_bool(intersections(i) >= 0) for i in range(m)]

    linked_pairs = 0
    triples_checked = 0
    failures: list[tuple[int, int, int]] = []

    for i in range(m):
        rest = rows[i] & (~0 << (i + 1))
        inside = intersections(i).tolist()
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            linked_pairs += 1
            cand = rows[i] & rows[j] & (~0 << (j + 1))
            if not cand:
                continue
            triples_checked += cand.bit_count()
            bad = cand & ~rows[inside[j]] if len(failures) < FAILURE_CAP else 0
            while bad:
                lowb = bad & -bad
                k = lowb.bit_length() - 1
                bad ^= lowb
                failures.append((i, j, k))
                if len(failures) == FAILURE_CAP:
                    bad = 0

    full_family_sets = None
    if full_family:
        full_family_sets = 0
        all_mask = (1 << m) - 1

        def grow(members: list[int], candidates: int, box_lo, box_hi) -> None:
            nonlocal full_family_sets
            rest = candidates
            while rest:
                low = rest & -rest
                k = low.bit_length() - 1
                rest ^= low
                nlo = join_of[box_lo, lows[k]]
                nhi = meet_of[box_hi, highs[k]]
                nm = members + [k]
                if len(nm) >= 2:
                    full_family_sets += 1
                    if not below[nlo, nhi] and len(failures) < FAILURE_CAP:
                        failures.append(tuple(nm[:3]))
                grow(nm, rest & rows[k], nlo, nhi)

        for i in range(m):
            grow([i], rows[i] & (all_mask << (i + 1)), lows[i], highs[i])

    return BinarityReport(
        capacity_count=len(space.capacities),
        interval_count=m,
        linked_pairs=linked_pairs,
        triples_checked=triples_checked,
        failures=tuple(failures),
        full_family_sets=full_family_sets,
        seconds=time.perf_counter() - start,
    )


def init_loads_capacity(text: str, allow_decimal: bool = False,
                        where: str = "capacity") -> FiniteCapacity:
    """Reference capacity-file loader: every value parsed where it
    stands, the capacity built and validated by FiniteCapacity.__init__
    on the Fraction table. Shares only the JSON and rational helpers of
    capgames.io."""
    data = io._expect_dict(io._loads(text, allow_decimal, where), where)
    if "domain" not in data or "values" not in data:
        raise io.ValidationError(f"{where}: needs 'domain' and 'values'")
    domain = io._domain_from(data["domain"], where)
    values = io._expect_dict(data["values"], f"{where}: 'values'")

    table: dict[int, Fraction] = {}
    for key, raw in values.items():
        labels = [] if key == "" else key.split(",")
        try:
            mask = domain.as_mask(labels)
        except CapacityError as exc:
            raise io.ValidationError(f"{where}: subset key {key!r}: {exc}") from None
        if mask in table:
            raise io.ValidationError(
                f"{where}: subset key {key!r} repeats an earlier subset")
        table[mask] = io._as_rational(raw, f"{where}: value for {key!r}")

    missing = [m for m in range(domain.subset_count) if m not in table]
    if missing:
        shown = ",".join(domain.labels_of(missing[0])) or "<empty set>"
        raise io.ValidationError(
            f"{where}: missing {len(missing)} subset value(s), first is "
            f"{shown!r}")
    try:
        return FiniteCapacity(domain, [table[m] for m in range(domain.subset_count)])
    except CapacityError as exc:
        raise io.ValidationError(f"{where}: {exc}") from None


def subset_key_serialize_capacity(cap: FiniteCapacity, indent: int | None = 2) -> str:
    """Reference capacity-file writer: each subset key sorted on its own,
    each value formatted where it stands."""
    def key(mask: int) -> str:
        return ",".join(sorted(cap.domain.labels_of(mask)))

    body = {
        "domain": list(cap.domain.labels),
        "values": {key(m): format_rational(cap.values[m])
                   for m in range(cap.domain.subset_count)},
    }
    return json.dumps(body, indent=indent)
