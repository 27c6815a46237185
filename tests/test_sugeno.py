"""Correction maps, payoff functions, and the corrected Sugeno integral."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capgames import (
    BadResolution,
    Domain,
    DomainMismatch,
    NEG_INF,
    POS_INF,
    PayoffFunction,
    RangeError,
    bottom_capacity,
    classical_sugeno,
    default_correction,
    dirac_capacity,
    logit_correction,
    possibility_capacity,
    probability_capacity,
    sugeno_integral,
    sugeno_oracle,
    top_capacity,
)
from capgames.generate import SplitMix64, random_capacity
from capgames.sugeno import _level_sets

from helpers import (
    dumb_corrected_sugeno,
    groupby_level_sets,
    letters,
    linear_sugeno_oracle,
    seeded_capacity,
)

AB = Domain(("a", "b"))
ABC = Domain(("a", "b", "c"))

F = Fraction

PSI = default_correction()


def uniform(domain: Domain):
    n = domain.size
    return probability_capacity(domain, {lab: F(1, n) for lab in domain.labels})


class TestDefaultCorrection:
    def test_name(self):
        assert PSI.name == "rational-default"

    def test_midpoint_is_zero(self):
        assert PSI.evaluate(F(1, 2)) == 0

    def test_two_thirds(self):
        assert PSI.evaluate(F(2, 3)) == F(3, 2)

    def test_one_third_by_symmetry(self):
        assert PSI.evaluate(F(1, 3)) == -F(3, 2)

    def test_endpoint_sentinels(self):
        assert PSI.evaluate(F(0)) is NEG_INF
        assert PSI.evaluate(F(1)) is POS_INF
        assert NEG_INF < F(-10**9)
        assert POS_INF > F(10**9)

    def test_strictly_increasing_on_grid(self):
        values = [PSI.evaluate(F(k, 100)) for k in range(101)]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi

    def test_rejects_arguments_outside_unit_interval(self):
        with pytest.raises(RangeError):
            PSI.evaluate(F(3, 2))
        with pytest.raises(RangeError):
            PSI.evaluate(F(-1, 10))


class TestLogitCorrection:
    def test_name_carries_scale(self):
        assert logit_correction(1).name == "logit-1"
        assert logit_correction(F(1, 2)).name == "logit-1/2"

    def test_midpoint_and_sentinels(self):
        psi = logit_correction(1)
        assert psi.evaluate(F(1, 2)) == 0
        assert psi.evaluate(F(0)) is NEG_INF
        assert psi.evaluate(F(1)) is POS_INF

    def test_strictly_increasing_on_grid(self):
        psi = logit_correction(1)
        values = [psi.evaluate(F(k, 50)) for k in range(51)]
        for lo, hi in zip(values, values[1:]):
            assert lo < hi

    def test_odd_symmetry(self):
        psi = logit_correction(1)
        assert psi.evaluate(F(1, 4)) == -psi.evaluate(F(3, 4))

    def test_levels_beyond_the_float_range_evaluate_in_order(self):
        psi = logit_correction(1)
        tiny = F(1, 10**400)
        low, high = psi.evaluate(tiny), psi.evaluate(1 - tiny)
        assert NEG_INF < low < psi.evaluate(F(1, 2)) < high < POS_INF
        assert low == -high

    @pytest.mark.parametrize("scale", [10**400, F(1, 10**400), 10**306],
                             ids=["1e400", "1e-400", "1e306"])
    def test_scales_beyond_the_float_range_keep_the_map_increasing(self, scale):
        # 10**400 and 1/10**400 have no finite nonzero float; at 10**306 the
        # float product with ln(10**400) overflows.
        psi = logit_correction(scale)
        tiny = F(1, 10**400)
        values = [psi.evaluate(u) for u in (tiny, F(1, 4), F(1, 2), F(3, 4), 1 - tiny)]
        assert NEG_INF < values[0] and values[-1] < POS_INF
        assert all(lo < hi for lo, hi in zip(values, values[1:]))
        assert values[0] == -values[-1]
        assert values[1] == -values[3]

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            logit_correction(0)
        with pytest.raises(ValueError):
            logit_correction(-2)


class TestLevelSets:
    """`_level_sets` builds its list in one pass; a `groupby` over the
    sorted points is its reference."""

    @pytest.mark.parametrize("values", [
        [5], [F(-1, 2)], [2, 2, 2], [F(1, 3)] * 4, [0, 1, 1, 0], [3, 1, 3, 2, 1],
        [F(1, 2), F(2, 4), 0, F(1, 2)],
    ])
    def test_examples(self, values):
        assert _level_sets(values) == groupby_level_sets(values)

    @given(st.lists(st.integers(-2, 2), min_size=1, max_size=9))
    def test_ints_with_ties(self, values):
        sets = _level_sets(values)
        assert sets == groupby_level_sets(values)
        # Distinct values descend, the masks grow, and the last is full.
        assert [v for v, _ in sets] == sorted(set(values), reverse=True)
        assert sets[-1][1] == (1 << len(values)) - 1

    @given(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=9))
    def test_fractions_with_ties(self, values):
        assert _level_sets(values) == groupby_level_sets(values)


class TestPayoffFunction:
    def test_from_mapping_orders_by_domain(self):
        f = PayoffFunction.from_mapping(AB, {"b": F(2), "a": F(-1)})
        assert f.values == (F(-1), F(2))
        assert f.value_of("b") == 2

    def test_from_mapping_requires_every_label(self):
        with pytest.raises(ValueError):
            PayoffFunction.from_mapping(AB, {"a": F(1)})

    def test_from_mapping_coerces_as_the_constructor(self):
        with pytest.raises(TypeError):
            PayoffFunction.from_mapping(AB, {"a": 0.1, "b": 1})
        assert PayoffFunction.from_mapping(AB, {"a": 1, "b": F(1, 10)}).values == (
            F(1), F(1, 10))

    def test_from_mapping_refuses_unknown_labels(self):
        with pytest.raises(ValueError, match=r"labels \['zz'\] not in domain \['a', 'b'\]"):
            PayoffFunction.from_mapping(AB, {"a": 1, "b": 2, "zz": 5})

    def test_length_must_match_domain(self):
        with pytest.raises(ValueError):
            PayoffFunction(AB, (F(1),))

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            PayoffFunction(AB, (0.5, F(1)))

    def test_extrema(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        assert f.minimum == -1
        assert f.maximum == 3

    def test_level_mask(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        assert f.level_mask(F(2)) == 0b101
        assert f.level_mask(F(-5)) == 0b111
        assert f.level_mask(F(4)) == 0

    def test_descending_levels_masks_grow(self):
        f = PayoffFunction(ABC, (F(1), F(0), F(1)))
        assert f.descending_levels() == [(F(1), 0b101), (F(0), 0b111)]
        tied = PayoffFunction(letters(5), (F(2), F(5), F(2), F(-1), F(5)))
        assert tied.descending_levels() == [
            (F(5), 0b10010), (F(2), 0b10111), (F(-1), 0b11111)]
        flat = PayoffFunction(ABC, (F(3, 2),) * 3)
        assert flat.descending_levels() == [(F(3, 2), 0b111)]


class TestIntegralExamples:
    def test_constant_function_integrates_to_the_constant(self):
        f = PayoffFunction(ABC, (F(7, 3), F(7, 3), F(7, 3)))
        for cap in (top_capacity(ABC), bottom_capacity(ABC), uniform(ABC)):
            assert sugeno_integral(f, cap, PSI) == F(7, 3)

    def test_dirac_belief_returns_the_point_payoff(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        for lab in ABC.labels:
            cap = dirac_capacity(ABC, lab)
            assert sugeno_integral(f, cap, PSI) == f.value_of(lab)

    def test_dirac_result_ignores_the_correction(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        cap = dirac_capacity(ABC, "c")
        assert sugeno_integral(f, cap, PSI) == 2
        assert sugeno_integral(f, cap, logit_correction(5)) == 2

    def test_uniform_two_point_belief_balances_to_zero(self):
        cap = uniform(AB)
        assert sugeno_integral(PayoffFunction(AB, (F(1), F(0))), cap, PSI) == 0
        assert sugeno_integral(PayoffFunction(AB, (F(-1), F(1))), cap, PSI) == 0

    def test_half_level_pins_the_corrected_value(self):
        # mu(f >= 5) = 1/2 gives candidate min(5, psi(1/2)) = 0, which
        # beats the lower level's min(-3, ...) = -3.
        cap = uniform(AB)
        f = PayoffFunction(AB, (F(5), F(-3)))
        assert sugeno_integral(f, cap, PSI) == 0

    def test_possibility_belief_is_maximax_over_support(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        cap = possibility_capacity(ABC, ("b", "c"))
        assert sugeno_integral(f, cap, PSI) == 2

    def test_domain_mismatch(self):
        f = PayoffFunction(AB, (F(1), F(0)))
        with pytest.raises(DomainMismatch):
            sugeno_integral(f, top_capacity(ABC), PSI)


def _payoffs(size: int):
    return st.lists(
        st.integers(-8, 8).map(lambda n: F(n, 2)),
        min_size=size, max_size=size,
    )


class TestIntegralInvariants:
    @given(seed=st.integers(0, 2**32), vals=_payoffs(3))
    def test_bounded_by_payoff_range(self, seed, vals):
        cap = seeded_capacity(seed, 3)
        f = PayoffFunction(letters(3), tuple(vals))
        out = sugeno_integral(f, cap, PSI)
        assert f.minimum <= out <= f.maximum

    @given(seed=st.integers(0, 2**32), vals=_payoffs(3),
           bumps=st.lists(st.integers(0, 4), min_size=3, max_size=3))
    def test_monotone_in_the_payoff_function(self, seed, vals, bumps):
        cap = seeded_capacity(seed, 3)
        dom = letters(3)
        lo = PayoffFunction(dom, tuple(vals))
        hi = PayoffFunction(dom, tuple(v + b for v, b in zip(vals, bumps)))
        assert sugeno_integral(lo, cap, PSI) <= sugeno_integral(hi, cap, PSI)

    @given(seed=st.integers(0, 2**32), vals=_payoffs(3))
    def test_monotone_in_the_capacity(self, seed, vals):
        small = seeded_capacity(seed, 3)
        big = seeded_capacity(seed + 1, 3)
        if not small <= big:
            small, big = big, small
        if not small <= big:
            return
        f = PayoffFunction(letters(3), tuple(vals))
        assert sugeno_integral(f, small, PSI) <= sugeno_integral(f, big, PSI)

    @given(seed=st.integers(0, 2**32), vals=_payoffs(4))
    def test_matches_the_slow_reference(self, seed, vals):
        cap = seeded_capacity(seed, 4)
        f = PayoffFunction(letters(4), tuple(vals))
        assert sugeno_integral(f, cap, PSI) == dumb_corrected_sugeno(f, cap, PSI)

    @given(seed=st.integers(0, 2**32), vals=_payoffs(3))
    def test_matches_the_slow_reference_under_logit(self, seed, vals):
        cap = seeded_capacity(seed, 3)
        f = PayoffFunction(letters(3), tuple(vals))
        psi = logit_correction(1)
        assert sugeno_integral(f, cap, psi) == dumb_corrected_sugeno(f, cap, psi)


class TestOracle:
    def test_oracle_examples(self):
        cap = uniform(AB)
        f = PayoffFunction(AB, (F(1), F(0)))
        assert sugeno_oracle(f, cap, PSI, F(1, 100)) == 0

    def test_binary_and_linear_scans_agree(self):
        rng = SplitMix64(11)
        dom = letters(3)
        for _ in range(25):
            cap = random_capacity(dom, rng)
            vals = tuple(F(rng.below(17) - 8, 2) for _ in range(3))
            f = PayoffFunction(dom, vals)
            assert sugeno_oracle(f, cap, PSI, F(1, 64)) == linear_sugeno_oracle(
                f, cap, PSI, F(1, 64))

    def test_oracle_within_one_step_below_the_closed_form(self):
        rng = SplitMix64(23)
        dom = letters(3)
        res = F(1, 128)
        for _ in range(40):
            cap = random_capacity(dom, rng)
            vals = tuple(F(rng.below(17) - 8, 2) for _ in range(3))
            f = PayoffFunction(dom, vals)
            exact = sugeno_integral(f, cap, PSI)
            approx = sugeno_oracle(f, cap, PSI, res)
            assert 0 <= exact - approx <= res

    def test_exact_at_payoff_values_even_on_a_coarse_grid(self):
        f = PayoffFunction(ABC, (F(3), F(-1), F(2)))
        cap = dirac_capacity(ABC, "c")
        assert sugeno_oracle(f, cap, PSI, F(1)) == 2

    def test_rejects_bad_resolution(self):
        f = PayoffFunction(AB, (F(1), F(0)))
        with pytest.raises(BadResolution):
            sugeno_oracle(f, uniform(AB), PSI, F(0))
        with pytest.raises(BadResolution):
            sugeno_oracle(f, uniform(AB), PSI, F(-1, 10))


class TestClassicalSugeno:
    def test_uniform_median_behaviour(self):
        cap = uniform(AB)
        f = PayoffFunction(AB, (F(1), F(0)))
        assert classical_sugeno(f, cap) == F(1, 2)

    def test_top_capacity_gives_the_maximum(self):
        f = PayoffFunction(ABC, (F(1, 4), F(3, 4), F(1, 2)))
        assert classical_sugeno(f, top_capacity(ABC)) == F(3, 4)

    def test_bottom_capacity_gives_the_minimum(self):
        f = PayoffFunction(ABC, (F(1, 4), F(3, 4), F(1, 2)))
        assert classical_sugeno(f, bottom_capacity(ABC)) == F(1, 4)

    def test_dirac_evaluates_the_point(self):
        f = PayoffFunction(ABC, (F(1, 4), F(3, 4), F(1, 2)))
        assert classical_sugeno(f, dirac_capacity(ABC, "c")) == F(1, 2)

    def test_rejects_values_outside_unit_interval(self):
        with pytest.raises(RangeError):
            classical_sugeno(PayoffFunction(AB, (F(2), F(0))), uniform(AB))
        with pytest.raises(RangeError):
            classical_sugeno(PayoffFunction(AB, (F(-1, 2), F(0))), uniform(AB))

    @given(seed=st.integers(0, 2**32),
           vals=st.lists(st.integers(0, 8).map(lambda n: F(n, 8)),
                         min_size=3, max_size=3))
    def test_bounded_by_payoff_range(self, seed, vals):
        cap = seeded_capacity(seed, 3)
        f = PayoffFunction(letters(3), tuple(vals))
        assert f.minimum <= classical_sugeno(f, cap) <= f.maximum

    @given(seed=st.integers(0, 2**32),
           vals=st.lists(st.integers(0, 4).map(lambda n: F(n, 4)),
                         min_size=4, max_size=4))
    def test_matches_the_level_mask_reference(self, seed, vals):
        cap = seeded_capacity(seed, 4)
        f = PayoffFunction(letters(4), tuple(vals))
        reference = max(min(v, cap.value_mask(f.level_mask(v))) for v in set(vals))
        assert classical_sugeno(f, cap) == reference
