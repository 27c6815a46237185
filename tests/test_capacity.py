import itertools
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
    possibility_capacity,
    probability_capacity,
    pushforward,
    top_capacity,
    vanishes_outside,
)
from capgames.capacity import _check_cover_pairs, _cover_pairs_hold, _ranked
from capgames.generate import SplitMix64, random_capacity

from helpers import fraction_capacity_table, letters, ranked_reference

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


def cover_pair_outcome(domain: Domain, levels, ranks):
    """The packed verdict of a rank table, and the text of the error
    `_check_cover_pairs` raises on it (None when it passes)."""
    holds = _cover_pairs_hold(domain.size, ranks, len(levels))
    try:
        _check_cover_pairs(domain, ranks, levels)
    except MonotonicityError as exc:
        return holds, str(exc)
    return holds, None


def loop_outcome(domain: Domain, levels, ranks):
    """What the per-mask loop decides on the same table: no violation,
    or the error naming the first violating cover pair."""
    violation = first_cover_violation(domain, ranks)
    if violation is None:
        return True, None
    small, large = violation
    return False, str(MonotonicityError(
        domain.labels_of(small), domain.labels_of(large),
        levels[ranks[small]], levels[ranks[large]]))


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

    def test_thirty_two_bit_fields(self):
        # A mask read with its bits reversed is a monotone rank: 65,536
        # levels on 16 points, beyond the 2^15 that 16-bit fields hold.
        # Unlike the mask itself, it falls from {a} to {b}, so a shift
        # by the wrong number of fields fails it.
        domain = letters(16)
        count = domain.subset_count
        levels = [F(r, count - 1) for r in range(count)]
        base = [int(f"{m:016b}"[::-1], 2) for m in range(count)]
        assert cover_pair_outcome(domain, levels, base) == (True, None)
        cap = FiniteCapacity._from_ranks(domain, levels, base)
        assert cap.values[1] == F(1 << 15, count - 1)
        for mask, rank in ((0x0003, 0), (0x8001, 0), (0xFFFE, 0),
                           (0x0001, 0xFFFF), (0x4000, 0xFFFE)):
            ranks = list(base)
            ranks[mask] = rank
            got = cover_pair_outcome(domain, levels, ranks)
            assert got == loop_outcome(domain, levels, ranks)
            assert got[0] is False
