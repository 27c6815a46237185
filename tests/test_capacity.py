import copy
import itertools
import pickle
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capgames import (
    DENSE_DOMAIN_CAP,
    CapacityError,
    Domain,
    DomainMismatch,
    DomainTooLarge,
    EmptySupport,
    FiniteCapacity,
    MissingSubset,
    MonotonicityError,
    NormalizationError,
    RangeError,
    UnknownLabel,
    WeightSumError,
    bottom_capacity,
    dirac_capacity,
    join,
    meet,
    marginal,
    possibility_capacity,
    probability_capacity,
    product_domain,
    pushforward,
    tensor2,
    top_capacity,
    vanishes_outside,
)
from capgames.capacity import (
    MAX_SPACE_MEMBERS,
    BudgetExceeded,
    _cover_violation,
    _grid_space_members,
    _grid_space_tables,
    _grid_tables,
    _grid_values,
    _possibilities,
    _ranked,
)
from capgames.generate import SplitMix64, random_capacity

from helpers import (
    depth_first_grid_tables,
    fraction_capacity_table,
    fraction_random_capacity,
    letters,
    one_by_one_from_ranks,
    ranked_reference,
    with_foreign_levels,
)

AB = Domain(("a", "b"))
ABC = Domain(("a", "b", "c"))

F = Fraction


class TestDomain:
    def test_masks_and_labels(self):
        assert AB.size == 2
        assert AB.full_mask == 3
        assert AB.subset_count == 4
        assert AB.as_mask(["a"]) == 1
        assert AB.as_mask(["b", "a"]) == 3
        assert AB.as_mask(3) == 3
        assert AB.labels_of(2) == ("b",)

    def test_rejects_bad_labels(self):
        with pytest.raises(ValueError):
            Domain(())
        with pytest.raises(ValueError):
            Domain(("a", "a"))
        with pytest.raises(ValueError):
            Domain(("",))
        with pytest.raises(ValueError):
            Domain(("x,y",))

    def test_labels_are_stored_as_a_tuple(self):
        listed = Domain(["a", "b"])
        assert listed.labels == ("a", "b")
        assert listed == AB and hash(listed) == hash(AB)

    def test_unknown_label(self):
        with pytest.raises(UnknownLabel):
            AB.as_mask(["z"])

    def test_mask_out_of_range(self):
        with pytest.raises(ValueError):
            AB.check_mask(4)
        with pytest.raises(ValueError):
            AB.check_mask(-1)


class TestConstruction:
    def test_uniform_additive_is_valid(self):
        cap = FiniteCapacity(AB, [F(0), F(1, 2), F(1, 2), F(1)])
        assert cap.value(["a"]) == F(1, 2)

    def test_monotonicity_violation_names_a_cover_pair(self):
        # values: {} 0, {a} 3/4, {b} 0, {a,b} 1/2, {c} 0, {a,c} 3/4,
        # {b,c} 1/2, X 1 -- {a} > {a,b} breaks monotonicity
        with pytest.raises(MonotonicityError) as err:
            FiniteCapacity(ABC, [F(0), F(3, 4), F(0), F(1, 2),
                                 F(0), F(3, 4), F(1, 2), F(1)])
        assert err.value.small == ("a",)
        assert err.value.large == ("a", "b")

    def test_bad_empty_set_value(self):
        with pytest.raises(NormalizationError):
            FiniteCapacity(AB, [F(1, 10), F(1, 2), F(1, 2), F(1)])

    def test_bad_full_set_value(self):
        with pytest.raises(NormalizationError):
            FiniteCapacity(AB, [F(0), F(1, 2), F(1, 2), F(1, 2)])

    def test_range_violations(self):
        with pytest.raises(RangeError):
            FiniteCapacity(AB, [F(0), F(3, 2), F(1, 2), F(1)])
        with pytest.raises(RangeError):
            FiniteCapacity(AB, [F(0), F(-1, 10), F(1, 2), F(1)])

    def test_from_table_missing_subset(self):
        with pytest.raises(MissingSubset):
            FiniteCapacity.from_table(AB, {(): 0, ("a",): 1, ("a", "b"): 1})

    def test_from_table_refuses_a_repeated_subset(self):
        table = {(): 0, ("a",): F(1, 2), ("b",): F(1, 2), ("a", "b"): 1, ("b", "a"): 2}
        with pytest.raises(ValueError,
                           match=r"subset \{'a', 'b'\} given twice, the second time as \('b', 'a'\)"):
            FiniteCapacity.from_table(AB, table)

    def test_domain_cap(self):
        big = Domain(tuple(f"p{k}" for k in range(DENSE_DOMAIN_CAP + 1)))
        with pytest.raises(DomainTooLarge):
            FiniteCapacity(big, [])

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            FiniteCapacity(AB, [0, 0.5, 0.5, 1])

    def test_immutable(self):
        cap = top_capacity(AB)
        with pytest.raises(AttributeError):
            cap.values = ()

    def test_value_mask_is_range_checked(self):
        cap = FiniteCapacity(AB, [F(0), F(1, 3), F(1, 2), F(1)])
        assert [cap.value_mask(m) for m in range(4)] == list(cap.values)
        for mask in (-1, -4, 4, 1 << 20):
            with pytest.raises(ValueError, match=f"mask {mask} out of range "
                                                 "for 2-point domain"):
                cap.value_mask(mask)

    def test_rejects_exactly_invalid_tables(self):
        grid = [F(0), F(1, 2), F(1)]
        for combo in itertools.product(grid, repeat=4):
            def valid(vals):
                if vals[0] != 0 or vals[3] != 1:
                    return False
                return all(vals[a] <= vals[b]
                           for a in range(4) for b in range(4)
                           if a & b == a)
            try:
                FiniteCapacity(AB, list(combo))
                built = True
            except (NormalizationError, MonotonicityError, RangeError):
                built = False
            assert built == valid(combo), combo


class TestSpecialCapacities:
    def test_dirac(self):
        assert dirac_capacity(AB, "a").value(["a"]) == 1
        assert dirac_capacity(AB, "a").value(["b"]) == 0
        assert dirac_capacity(ABC, "c").value(["a", "c"]) == 1
        with pytest.raises(UnknownLabel):
            dirac_capacity(AB, "z")

    def test_possibility(self):
        assert possibility_capacity(AB, ["a", "b"]) == top_capacity(AB)
        assert possibility_capacity(AB, ["a"]) == dirac_capacity(AB, "a")
        p = possibility_capacity(ABC, ["a", "b"])
        assert p.value(["c"]) == 0
        assert p.value(["b", "c"]) == 1
        with pytest.raises(EmptySupport):
            possibility_capacity(AB, [])

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_possibility_batch_matches_the_fraction_tables(self, size):
        domain = letters(size)
        # Every support, once in descending order and once repeated.
        supports = [*range(domain.full_mask, 0, -1), 1]
        built = _possibilities(domain, supports)
        assert built == [FiniteCapacity(domain, [int(bool(mask & support))
                                                 for mask in range(domain.subset_count)])
                         for support in supports]
        assert built[:-1] == [possibility_capacity(domain, domain.labels_of(s))
                              for s in supports[:-1]]
        assert _possibilities(domain, []) == []

    def test_top_and_bottom(self):
        top = top_capacity(ABC)
        bot = bottom_capacity(ABC)
        for mask in range(1, ABC.subset_count):
            assert top.value_mask(mask) == 1
        for mask in range(ABC.subset_count - 1):
            assert bot.value_mask(mask) == 0
        assert meet(top, bot) == bot
        assert join(top, bot) == top

    def test_probability(self):
        uni = probability_capacity(AB, {"a": F(1, 2), "b": F(1, 2)})
        assert uni.value(["a"]) == F(1, 2)
        assert probability_capacity(AB, {"a": 1, "b": 0}) == dirac_capacity(AB, "a")
        third = probability_capacity(ABC, {"a": F(1, 3), "b": F(1, 3),
                                           "c": F(1, 3)})
        for pair in (["a", "b"], ["a", "c"], ["b", "c"]):
            assert third.value(pair) == F(2, 3)

    def test_probability_errors(self):
        with pytest.raises(WeightSumError):
            probability_capacity(AB, {"a": F(1, 2), "b": F(1, 4)})
        with pytest.raises(RangeError):
            probability_capacity(AB, {"a": F(3, 2), "b": F(-1, 2)})
        with pytest.raises(UnknownLabel):
            probability_capacity(AB, {"a": 1})
        with pytest.raises(UnknownLabel):
            probability_capacity(AB, {"a": 1, "b": 0, "z": 0})

    def test_probability_is_additive(self):
        p = probability_capacity(ABC, {"a": F(1, 6), "b": F(1, 3), "c": F(1, 2)})
        for s in range(ABC.subset_count):
            for t in range(ABC.subset_count):
                assert (p.value_mask(s | t) + p.value_mask(s & t)
                        == p.value_mask(s) + p.value_mask(t))


class TestLattice:
    def test_join_of_diracs_is_possibility(self):
        assert join(dirac_capacity(AB, "a"), dirac_capacity(AB, "b")) \
            == possibility_capacity(AB, ["a", "b"])

    def test_meet_idempotent(self):
        u = probability_capacity(AB, {"a": F(1, 3), "b": F(2, 3)})
        assert meet(u, u) == u

    def test_meet_of_diracs(self):
        m = meet(dirac_capacity(AB, "a"), dirac_capacity(AB, "b"))
        assert m.value(["a"]) == 0
        assert m.value(["a", "b"]) == 1

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            join(top_capacity(AB), top_capacity(ABC))

    @given(st.integers(0, 2**32), st.integers(0, 2**32), st.integers(0, 2**32))
    def test_lattice_laws(self, s1, s2, s3):
        rng1, rng2, rng3 = SplitMix64(s1), SplitMix64(s2), SplitMix64(s3)
        x = random_capacity(ABC, rng1)
        y = random_capacity(ABC, rng2)
        z = random_capacity(ABC, rng3)
        assert join(x, x) == x and meet(x, x) == x
        assert join(x, y) == join(y, x) and meet(x, y) == meet(y, x)
        assert join(x, join(y, z)) == join(join(x, y), z)
        assert meet(x, meet(y, z)) == meet(meet(x, y), z)
        assert join(x, meet(x, y)) == x and meet(x, join(x, y)) == x

    @given(st.integers(0, 2**32), st.integers(0, 2**32))
    def test_pointwise_order(self, s1, s2):
        x = random_capacity(ABC, SplitMix64(s1))
        y = random_capacity(ABC, SplitMix64(s2))
        assert meet(x, y) <= x <= join(x, y)


class TestPushforwardAndVanishing:
    def test_pushforward_dirac(self):
        fwd = pushforward(dirac_capacity(AB, "a"), {"a": "y", "b": "x"},
                          Domain(("x", "y")))
        assert fwd == dirac_capacity(Domain(("x", "y")), "y")

    def test_pushforward_identity(self):
        u = probability_capacity(AB, {"a": F(1, 3), "b": F(2, 3)})
        assert pushforward(u, {"a": "a", "b": "b"}, AB) == u

    def test_pushforward_constant_map(self):
        uni = probability_capacity(AB, {"a": F(1, 2), "b": F(1, 2)})
        tgt = Domain(("z", "w"))
        assert pushforward(uni, {"a": "z", "b": "z"}, tgt) \
            == dirac_capacity(tgt, "z")

    @given(st.integers(0, 2**32), st.integers(0, 7))
    def test_pushforward_always_valid(self, seed, pattern):
        src = random_capacity(ABC, SplitMix64(seed))
        tgt = Domain(("x", "y"))
        mapping = {lab: ("x" if pattern >> k & 1 else "y")
                   for k, lab in enumerate(ABC.labels)}
        fwd = pushforward(src, mapping, tgt)
        assert isinstance(fwd, FiniteCapacity)

    def test_vanishes_outside(self):
        p = possibility_capacity(ABC, ["a", "b"])
        assert vanishes_outside(p, ["a", "b"])
        assert vanishes_outside(p, ["a", "b", "c"])
        assert not vanishes_outside(p, ["a"])
        top = top_capacity(ABC)
        assert vanishes_outside(top, ["a", "b", "c"])
        assert not vanishes_outside(top, ["a", "b"])
        d = dirac_capacity(ABC, "a")
        assert vanishes_outside(d, ["a"])
        assert vanishes_outside(d, ["a", "c"])
        assert not vanishes_outside(d, ["b", "c"])

    def test_vacuous_flag(self):
        assert bottom_capacity(AB).is_vacuous()
        assert not top_capacity(AB).is_vacuous()
        assert not dirac_capacity(AB, "a").is_vacuous()


@given(st.integers(0, 2**32), st.integers(2, 5))
def test_random_capacities_fully_monotone(seed, size):
    cap = random_capacity(letters(size), SplitMix64(seed))
    n = cap.domain.subset_count
    for small in range(n):
        for large in range(n):
            if small & large == small:
                assert cap.value_mask(small) <= cap.value_mask(large)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_random_capacity_matches_the_fraction_fill(size):
    domain = letters(size)
    for denominator, seed in itertools.product(range(1, 9), range(6)):
        rng, reference_rng = SplitMix64(seed), SplitMix64(seed)
        cap = random_capacity(domain, rng, denominator)
        assert cap == fraction_random_capacity(domain, reference_rng, denominator)
        assert rng.state == reference_rng.state  # the same draws
        assert {type(v) for v in cap.values} == {Fraction}


def ranks_of(cap: FiniteCapacity) -> tuple[list[Fraction], list[int]]:
    """Sorted distinct values of a capacity and its table as ranks into them."""
    levels = sorted(set(cap.values))
    rank = {v: r for r, v in enumerate(levels)}
    return levels, [rank[v] for v in cap.values]


def first_cover_violation(domain: Domain, values) -> tuple[int, int] | None:
    """(A, A + {x}) with value(A) > value(A + {x}), the first by mask of A
    and then by x, or None for a monotone table."""
    for mask in range(domain.subset_count):
        for k in range(domain.size):
            bit = 1 << k
            if not mask & bit and values[mask] > values[mask | bit]:
                return mask, mask | bit
    return None


def outcome(build):
    """The values built (a capacity's table, or a table itself), as a
    list, or the error's type, message and named pair, as a tuple."""
    try:
        built = build()
    except (CapacityError, ValueError) as exc:
        return (type(exc), str(exc), getattr(exc, "small", None),
                getattr(exc, "large", None))
    return list(getattr(built, "values", built))


def assert_rank_build_matches(domain: Domain, levels, ranks):
    """The rank constructor, and __init__ on the equal Fraction table,
    give the values or the error of the Fraction reference checks."""
    values = [levels[r] for r in ranks]
    got = outcome(lambda: fraction_capacity_table(domain, values))
    assert outcome(lambda: FiniteCapacity._from_ranks(domain, levels, ranks)) == got
    assert outcome(lambda: FiniteCapacity(domain, values)) == got
    return got


class TestRankConstructor:
    # On two points a single proper entry breaks no cover pair: its only
    # covers are the empty and the full set.
    @pytest.mark.parametrize("size", [3, 4])
    def test_every_single_entry_corruption(self, size):
        domain = letters(size)
        levels, base = ranks_of(random_capacity(domain, SplitMix64(size), 8))
        errors = 0
        for mask in range(1, domain.full_mask):
            for rank in range(len(levels)):
                ranks = list(base)
                ranks[mask] = rank
                got = assert_rank_build_matches(domain, levels, ranks)
                violation = first_cover_violation(domain, [levels[r] for r in ranks])
                assert isinstance(got, tuple) == (violation is not None)
                errors += isinstance(got, tuple)
        assert errors > 0

    def test_cover_pair_out_of_order(self):
        levels = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        # {a} 3/4 over {a, b} 1/2, as in the Fraction test above.
        got = assert_rank_build_matches(ABC, levels, [0, 3, 0, 2, 0, 3, 2, 4])
        assert got[0] is MonotonicityError
        assert got[2:] == (("a",), ("a", "b"))

    @pytest.mark.parametrize("mask, rank", [(0, 1), (3, 2)])
    def test_empty_set_not_0_or_full_set_not_1(self, mask, rank):
        levels = [F(0), F(1, 2), F(3, 4), F(1)]
        ranks = [0, 1, 1, 3]
        ranks[mask] = rank
        got = assert_rank_build_matches(AB, levels, ranks)
        assert got[0] is NormalizationError

    def test_level_outside_the_unit_interval(self):
        levels = [F(-1, 2), F(0), F(1, 2), F(1), F(3, 2)]
        assert assert_rank_build_matches(AB, levels, [1, 2, 2, 3]) == [
            F(0), F(1, 2), F(1, 2), F(1)]
        for ranks in ([1, 4, 2, 3], [1, 2, 0, 3], [1, 4, 0, 3], [0, 2, 2, 4]):
            got = assert_rank_build_matches(AB, levels, ranks)
            assert got[0] is RangeError

    @given(seed=st.integers(0, 2**32), size=st.integers(1, 4),
           denominator=st.sampled_from((2, 3, 6, 8)),
           outer=st.sampled_from(((), (F(-1, 4),), (F(5, 4),), (F(-1), F(2)))),
           corruptions=st.lists(st.tuples(st.integers(0, 15), st.integers(0, 12)),
                                max_size=3))
    def test_random_corruptions(self, seed, size, denominator, outer, corruptions):
        domain = letters(size)
        cap = random_capacity(domain, SplitMix64(seed), denominator)
        levels = sorted(set(cap.values) | set(outer))
        rank = {v: r for r, v in enumerate(levels)}
        ranks = [rank[v] for v in cap.values]
        for mask, r in corruptions:
            ranks[mask % domain.subset_count] = r % len(levels)
        assert_rank_build_matches(domain, levels, ranks)

    def test_malformed_rank_input(self):
        with pytest.raises(ValueError):
            FiniteCapacity._from_ranks(AB, [F(0), F(1)], [0, 1, 1])
        with pytest.raises(ValueError, match="strictly increasing"):
            FiniteCapacity._from_ranks(AB, [F(0), F(1), F(1, 2)], [0, 2, 2, 1])
        with pytest.raises(ValueError, match="range"):
            FiniteCapacity._from_ranks(AB, [F(0), F(1)], [0, 1, 2, 1])
        with pytest.raises(ValueError, match="range"):
            FiniteCapacity._from_ranks(AB, [F(0), F(1)], [0, -1, 1, 1])
        big = Domain(tuple(f"p{k}" for k in range(DENSE_DOMAIN_CAP + 1)))
        with pytest.raises(DomainTooLarge):
            FiniteCapacity._from_ranks(big, [F(0), F(1)], [])


# Values of any sign, as ints and Fractions, with 1 also written F(2, 2).
RANKED_VALUES = st.one_of(st.integers(-3, 3),
                          st.builds(F, st.integers(-6, 6), st.integers(1, 4)),
                          st.sampled_from((1, F(2, 2))))


class TestRanked:
    def test_one_value_written_two_ways_gets_one_rank(self):
        levels, ranks = _ranked([1, F(2, 2), 0], [F(-1, 2), 1])
        assert levels == [F(-1, 2), 0, 1]
        assert ranks == [[2, 2, 1], [0, 2]]

    @given(st.lists(st.lists(RANKED_VALUES, max_size=8), min_size=1, max_size=4))
    def test_matches_the_fraction_dict_reference(self, tables):
        levels, ranks = _ranked(*tables)
        assert (levels, ranks) == ranked_reference(*tables)
        assert all(a < b for a, b in zip(levels, levels[1:]))
        for table, table_ranks in zip(tables, ranks):
            assert [levels[r] for r in table_ranks] == table


# Corruptions of a capacity table: entries moved outside [0, 1], off 0
# or 1 at the ends, or out of order, and tables one entry short or long.
INT_ENTRIES = st.integers(-1, 2)
FRACTION_ENTRIES = st.builds(F, st.integers(-4, 12), st.just(8))


@given(seed=st.integers(0, 2**32),
       ints=st.booleans(), data=st.data(),
       length_change=st.sampled_from((0, 0, 0, -1, 1)))
def test_constructor_matches_the_fraction_checks(seed, ints, data, length_change):
    # Every example runs every size: the suite's derandomised 40 examples
    # draw a size range unevenly, and may miss its largest value.
    for size in range(1, 6):
        domain = letters(size)
        cap = random_capacity(domain, SplitMix64(seed), 1 if ints else 8)
        values = [int(v) for v in cap.values] if ints else list(cap.values)
        # Per point x, swap the values of some S and S + x such that the
        # table breaks monotonicity along x alone: v(S) < v(S + x), the
        # other upper covers of S are at least v(S + x) and the other lower
        # covers of S + x at most v(S). Neither set is empty or full.
        bits = [1 << k for k in range(size)]
        for bit in bits:
            swaps = [m for m in range(1, domain.full_mask - bit)
                     if not m & bit and values[m] < values[m | bit]
                     and all(values[m | b] >= values[m | bit] for b in bits
                             if b != bit and not m & b)
                     and all(values[m ^ b | bit] <= values[m] for b in bits if m & b)]
            if swaps:
                small = data.draw(st.sampled_from(swaps))
                swapped = list(values)
                swapped[small], swapped[small | bit] = values[small | bit], values[small]
                assert (outcome(lambda: FiniteCapacity(domain, swapped))
                        == outcome(lambda: fraction_capacity_table(domain, swapped)))
        entries = INT_ENTRIES if ints else FRACTION_ENTRIES
        for mask, v in data.draw(st.lists(st.tuples(st.integers(0, 31), entries),
                                          max_size=3)):
            values[mask % domain.subset_count] = v
        if length_change < 0:
            values.pop()
        elif length_change > 0:
            values.append(data.draw(entries))
        got = outcome(lambda: FiniteCapacity(domain, values))
        assert got == outcome(lambda: fraction_capacity_table(domain, values))


def violation_outcome(domain: Domain, levels, ranks, violation):
    """No violation, or the text of the MonotonicityError that
    `_check_ranks` raises on the named cover pair."""
    if violation is None:
        return True, None
    small, large = violation
    return False, str(MonotonicityError(
        domain.labels_of(small), domain.labels_of(large),
        levels[ranks[small]], levels[ranks[large]]))


def cover_pair_outcome(domain: Domain, levels, ranks):
    """What the packed check decides on a rank table."""
    return violation_outcome(domain, levels, ranks,
                             _cover_violation(domain.size, ranks, len(levels)))


def loop_outcome(domain: Domain, levels, ranks):
    """What the per-mask loop decides on the same table."""
    return violation_outcome(domain, levels, ranks, first_cover_violation(domain, ranks))


class TestPackedCoverPairs:
    """The packed-int cover-pair check of rank tables against the
    per-mask loop: the same verdict, and the same error text."""

    @pytest.mark.parametrize("size", range(1, 13))
    def test_single_entry_corruptions(self, size):
        domain = letters(size)
        rng = SplitMix64(100 + size)
        levels, base = ranks_of(random_capacity(domain, rng, 8))
        assert cover_pair_outcome(domain, levels, base) == (True, None)
        # Every corruption up to 6 points, 60 drawn ones beyond.
        if size <= 6:
            changes = list(itertools.product(range(domain.subset_count),
                                             range(len(levels))))
        else:
            changes = [(rng.below(domain.subset_count), rng.below(len(levels)))
                       for _ in range(60)]
        broken = 0
        for mask, rank in changes:
            ranks = list(base)
            ranks[mask] = rank
            got = cover_pair_outcome(domain, levels, ranks)
            assert got == loop_outcome(domain, levels, ranks)
            broken += not got[0]
        # One point has levels 0 and 1 only: no single entry breaks (0, 1).
        assert broken > 0 or size == 1

    def test_fraction_loop_gives_the_same_text(self):
        levels = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
        ranks = [0, 3, 0, 2, 0, 3, 2, 4]
        values = [levels[r] for r in ranks]
        with pytest.raises(MonotonicityError) as loop:
            fraction_capacity_table(ABC, values)
        assert cover_pair_outcome(ABC, levels, ranks) == (False, str(loop.value))

    @staticmethod
    def assert_reversed_mask_ranks(size):
        # A mask read with its bits reversed is a monotone rank: 2^size
        # levels. Unlike the mask itself, it falls from {a} to {b}, so a
        # shift by the wrong number of fields fails it.
        # Up to 256 levels a table stored as bytes, a rank a byte, gets
        # the same verdict in fields of any width.
        domain = letters(size)
        count, full = domain.subset_count, domain.full_mask
        forms = (list, bytes) if count <= 256 else (list,)
        levels = [F(r, count - 1) for r in range(count)]
        base = [int(f"{m:0{size}b}"[::-1], 2) for m in range(count)]
        for form in forms:
            assert cover_pair_outcome(domain, levels, form(base)) == (True, None)
        cap = FiniteCapacity._from_ranks(domain, levels, base)
        assert cap.values[1] == F(1 << (size - 1), count - 1)
        for mask, rank in ((3, 0), (1 | 1 << (size - 1), 0), (full - 1, 0),
                           (1, full), (1 << (size - 2), full - 1)):
            ranks = list(base)
            ranks[mask] = rank
            got = cover_pair_outcome(domain, levels, ranks)
            assert got == loop_outcome(domain, levels, ranks)
            assert got[0] is False
            for form in forms:
                assert cover_pair_outcome(domain, levels, form(ranks)) == got

    def test_thirty_two_bit_fields(self):
        # 65,536 levels on 16 points, beyond the 2^15 that 16-bit fields hold.
        self.assert_reversed_mask_ranks(16)

    @pytest.mark.parametrize("size", [7, 8])
    def test_eight_and_sixteen_bit_fields(self, size):
        # 128 levels, the most that 8-bit fields hold, and 256 in 16-bit ones.
        self.assert_reversed_mask_ranks(size)


def batch_outcome(build):
    """The value tables built from a batch, as tuples, or the error's
    type and message."""
    try:
        return [tuple(getattr(t, "values", t)) for t in build()]
    except (CapacityError, ValueError) as exc:
        return type(exc), str(exc)


def assert_batch_matches(domain: Domain, levels, tables):
    """The batch constructor gives the values or the error of the
    table-by-table reference; and, where every rank lies in
    range(len(levels)), the packed cover check on the whole batch names
    the per-mask loop's first violation in its first bad table."""
    got = batch_outcome(lambda: FiniteCapacity._many_from_ranks(domain, levels, tables))
    assert got == batch_outcome(lambda: one_by_one_from_ranks(domain, levels, tables))
    flat = list(itertools.chain.from_iterable(tables))
    if (all(len(t) == domain.subset_count for t in tables)
            and all(0 <= r < len(levels) for r in flat)):
        # The batch names the first violation of its first bad table,
        # as indices into the batch.
        expected = None
        for t, table in enumerate(tables):
            violation = first_cover_violation(domain, table)
            if violation is not None:
                base = t * domain.subset_count
                expected = (base + violation[0], base + violation[1])
                break
        assert _cover_violation(domain.size, flat, len(levels)) == expected
    return got


# Quarter levels in [0, 1] with one level on each side.
QUARTERS = [F(-1, 2), F(0), F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2)]


def quarter_batch(size: int, count: int) -> list[list[int]]:
    """`count` valid rank tables into QUARTERS on `size` points: drawn
    capacities, with the top capacity second and the bottom one third,
    where an empty or full entry moved inside [0, 1] breaks no cover
    pair."""
    domain = letters(size)
    rng = SplitMix64(10 * size + count)
    caps = [random_capacity(domain, rng, 4) for _ in range(count)]
    caps[1:3] = [top_capacity(domain), bottom_capacity(domain)][:count - 1]
    rank = {v: r for r, v in enumerate(QUARTERS)}
    return [[rank[v] for v in cap.values] for cap in caps]


def corrupted(tables, position: int, changes) -> list[list[int]]:
    """A copy of the tables with the (mask, rank) changes made to one."""
    tables = [list(t) for t in tables]
    for mask, rank in changes:
        tables[position][mask] = rank
    return tables


class TestBatchValidation:
    """`_many_from_ranks` on batches against the table-by-table
    reference: the same values, or the same exception and message."""

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_every_single_entry_corruption(self, size, count):
        domain = letters(size)
        base = quarter_batch(size, count)
        assert assert_batch_matches(domain, QUARTERS, base) == [
            tuple(QUARTERS[r] for r in t) for t in base]
        kinds = set()
        for position, mask, rank in itertools.product(
                range(count), range(domain.subset_count), range(-1, len(QUARTERS) + 1)):
            got = assert_batch_matches(domain, QUARTERS, corrupted(base, position, [(mask, rank)]))
            kinds.add(got[0] if isinstance(got, tuple) else None)
        for position in range(count):
            for change in (list.pop, lambda t: t.append(0)):
                tables = [list(t) for t in base]
                change(tables[position])
                assert assert_batch_matches(domain, QUARTERS, tables)[0] is ValueError
        expected = {None, ValueError, RangeError, NormalizationError, MonotonicityError}
        # Up to two points, a proper entry's only covers are the empty and
        # the full set, so a single entry breaks normalisation first.
        assert kinds == (expected - {MonotonicityError} if size <= 2 else expected)

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_the_first_bad_table_wins(self, size):
        domain = letters(size)
        base = quarter_batch(size, 5)
        full = domain.full_mask
        # Corruptions as (mask, rank) changes: a rank past the levels, a
        # value below 0, the empty set off 0, the full set off 1, and {a}
        # above {a, b} (a cover pair from 3 points on; on 2, {a, b} is the
        # full set, so the full set off 1 again).
        kinds = [[(full, len(QUARTERS))], [(full, 0)], [(0, 2)], [(full, 4)]]
        if size > 1:
            kinds.append([(1, 4), (3, 2)])
        for first, second in itertools.combinations(range(5), 2):
            for one, other in itertools.product(kinds, repeat=2):
                alone = corrupted(base, first, one)
                tables = corrupted(alone, second, other)
                expected = batch_outcome(lambda: one_by_one_from_ranks(domain, QUARTERS, alone))
                assert isinstance(expected, tuple)
                assert assert_batch_matches(domain, QUARTERS, tables) == expected


class TestGridTables:
    """The breadth-first fill against the recursive reference."""

    @pytest.mark.parametrize("grid", [(0, 1), (0, F(1, 2), 1), (0, F(1, 3), F(2, 3), 1),
                                      (0, F(1, 4), F(1, 2), F(3, 4), 1)])
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_matches_the_depth_first_fill(self, size, grid):
        domain = letters(size)
        values = [F(g) for g in grid]
        try:
            expected = list(depth_first_grid_tables(domain, values))
        except BudgetExceeded as exc:
            with pytest.raises(BudgetExceeded) as got:
                _grid_tables(domain, values)
            assert str(got.value) == str(exc)
        else:
            assert _grid_tables(domain, values) == expected

    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_holds_no_more_partial_tables_than_the_budget(self):
        # The 4-point space on 5 grid values has 1,753,909 members; the
        # fill must stop before any list it holds passes the budget.
        held = []

        def lists_held(frame, event, arg):
            held.append(max(len(v) for v in frame.f_locals.values()
                            if isinstance(v, list)))
            return lists_held

        def trace(frame, event, arg):
            return lists_held if frame.f_code is _grid_tables.__code__ else None

        values = [F(k, 4) for k in range(5)]
        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            with pytest.raises(BudgetExceeded, match="more than 10000 capacities"):
                _grid_tables(letters(4), values)
        finally:
            sys.settrace(previous)
        assert 1000 < max(held) <= MAX_SPACE_MEMBERS


def assert_rank_table(cap: FiniteCapacity) -> None:
    """The rank table a capacity keeps: Fraction levels strictly
    increasing from 0 to 1, ranks as bytes up to 256 levels and a tuple
    above, and each mask's value the level of its rank."""
    levels, ranks = cap._levels, cap._ranks
    assert type(levels) is tuple
    assert type(ranks) is (bytes if len(levels) <= 256 else tuple)
    assert all(type(v) is Fraction for v in levels)
    assert levels[0] == 0 and levels[-1] == 1
    assert all(a < b for a, b in zip(levels, levels[1:]))
    assert len(ranks) == cap.domain.subset_count
    assert tuple(levels[r] for r in ranks) == cap.values


def test_a_twenty_point_capacity_retains_a_byte_a_mask():
    # The packed cover check's masks for this shape are kept for the
    # process (`_cover_masks`), so one capacity is built before measuring.
    domain = letters(20)
    bottom_capacity(domain)
    tracemalloc.start()
    try:
        top = top_capacity(domain)
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert top.value_mask(1) == 1 and len(top._ranks) == 2**20
    assert retained <= 2 * 2**20


class TestRankTables:
    """Every constructor keeps the rank table it validated the values
    on, and so does every copy."""

    @given(st.integers(0, 2**32), st.lists(st.integers(1, ABC.full_mask), max_size=4))
    def test_every_constructor_keeps_a_valid_rank_table(self, seed, supports):
        rng = SplitMix64(seed)
        x, y = random_capacity(ABC, rng), random_capacity(ABC, rng, 6)
        product = product_domain([ABC, AB])
        # Foreign levels in a factor leave unused levels in the product.
        dense = tensor2(with_foreign_levels(x), random_capacity(AB, rng, 3))
        built = [
            FiniteCapacity(ABC, list(x.values)),
            # QUARTERS reach outside [0, 1] on both sides.
            *FiniteCapacity._many_from_ranks(ABC, QUARTERS, quarter_batch(3, 3)),
            with_foreign_levels(y),
            dense, marginal(dense, product, 0), marginal(dense, product, 1),
            join(x, y), meet(x, y),
            *_possibilities(ABC, supports),
            *_grid_space_members(AB, _grid_values((0, F(1, 2), 1))),
        ]
        for cap in built:
            for twin in (cap, copy.copy(cap), copy.deepcopy(cap),
                         pickle.loads(pickle.dumps(cap))):
                assert twin == cap and hash(twin) == hash(cap)
                assert_rank_table(twin)

    def test_levels_outside_the_unit_interval_are_trimmed(self):
        caps = FiniteCapacity._many_from_ranks(ABC, QUARTERS, quarter_batch(3, 3))
        assert [cap.values for cap in caps] == [
            tuple(QUARTERS[r] for r in table) for table in quarter_batch(3, 3)]
        # One tuple for the batch, holding only the levels in [0, 1].
        assert caps[0]._levels == tuple(QUARTERS[1:-1])
        assert all(cap._levels is caps[0]._levels for cap in caps)
        # The top capacity: 0 on the empty set, 1 elsewhere.
        assert caps[1]._ranks == bytes((0,) + (4,) * 7)

    @pytest.mark.parametrize("low", [0, 2])
    def test_later_changes_to_the_callers_lists_change_no_capacity(self, low):
        levels = [F(-2), F(-1)][:low] + [F(0), F(1, 2), F(1), F(2)]
        ranks = [low, low + 1, low + 1, low + 2]
        cap = FiniteCapacity._from_ranks(AB, levels, ranks)
        ranks[1], levels[low + 1] = low, F(1, 3)
        assert cap.values == (0, F(1, 2), F(1, 2), 1)
        assert (cap._levels, cap._ranks) == ((0, F(1, 2), 1), bytes((0, 1, 1, 2)))

    @pytest.mark.parametrize("size", [8, 9])
    def test_tables_past_256_levels_are_tuples(self, size):
        # Weights 2^k / (2^size - 1) give the set with mask m the value
        # m / (2^size - 1): 256 levels on 8 points, 512 on 9. A level that
        # no mask takes (1/1000) makes 257 and 513; levels outside [0, 1]
        # are trimmed.
        domain, one = letters(size), Domain(("x",))
        values = tuple(F(m, 2**size - 1) for m in range(2**size))
        cap = probability_capacity(domain, {
            lab: F(2**k, 2**size - 1) for k, lab in enumerate(domain.labels)})
        ranks = range(2**size)
        built = [
            cap,
            *FiniteCapacity._many_from_ranks(
                domain, [F(-1), *values, F(2)], [[r + 1 for r in ranks]] * 2),
            FiniteCapacity._from_ranks(
                domain, [F(0), F(1, 1000), *values[1:]], [r + (r > 0) for r in ranks]),
            tensor2(cap, top_capacity(one)), tensor2(top_capacity(one), cap),
        ]
        assert [len(c._levels) for c in built] == [2**size] * 3 + [2**size + 1] + [2**size] * 2
        for c in built:
            for twin in (c, copy.copy(c), pickle.loads(pickle.dumps(c))):
                assert type(twin._ranks) is (bytes if len(twin._levels) <= 256 else tuple)
                assert twin.values == values
                assert list(map(twin.value_mask, ranks)) == list(values)
                expected = FiniteCapacity(twin.domain, values)
                assert twin == expected and hash(twin) == hash(expected)
                for mask in (-1, 2**size):
                    with pytest.raises(ValueError, match="out of range"):
                        twin.value_mask(mask)

    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_memo_members_hold_the_memo_tables(self):
        grid = _grid_values((0, F(1, 2), 1))
        tables, members = _grid_space_tables(ABC, grid), _grid_space_members(ABC, grid)
        assert len(members) == len(tables) == 129
        assert all(cap._ranks is table for cap, table in zip(members, tables))
        assert all(cap._levels is members[0]._levels == grid for cap in members)
