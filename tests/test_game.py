"""Game model, payoff slices, Sugeno expected payoff, best responses."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from capgames import (
    CorrectionMap,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    GameSpec,
    LazyTensorCapacity,
    UnknownLabel,
    best_response,
    default_correction,
    dirac_capacity,
    expected_payoff,
    lazy_tensor,
    logit_correction,
    payoff_slice,
    opponent_domain,
    possibility_capacity,
    probability_capacity,
    top_capacity,
)
from capgames.generate import SplitMix64, random_capacity, random_game

from helpers import (
    coordination_game,
    fraction_best_response,
    letters,
    matching_pennies,
    one_strategy_game,
)

F = Fraction

PSI = default_correction()


def uniform(domain: Domain):
    n = domain.size
    return probability_capacity(domain, {lab: F(1, n) for lab in domain.labels})


class TestGameSpec:
    def test_from_nested_flattens_row_major(self):
        game = coordination_game()
        assert game.n_players == 2
        assert game.sizes == (2, 2)
        assert game.profile_count == 4
        assert game.payoffs[0] == (F(1), F(0), F(0), F(1))

    def test_payoff_lookup(self):
        game = matching_pennies()
        assert game.payoff(0, (0, 0)) == 1
        assert game.payoff(1, (0, 0)) == -1
        assert game.payoff(0, (0, 1)) == -1
        assert game.payoff(1, (1, 0)) == 1

    def test_strides_match_flat_index(self):
        rng = SplitMix64(5)
        game = random_game(rng, (2, 3, 2))
        for profile in itertools.product(range(2), range(3), range(2)):
            idx = game.flat_index(profile)
            assert game.payoffs[0][idx] == game.payoff(0, profile)

    def test_needs_two_players(self):
        with pytest.raises(ValueError):
            GameSpec((Domain(("a", "b")),), ((F(0), F(0)),))

    def test_tensor_length_checked(self):
        with pytest.raises(ValueError):
            GameSpec(
                (Domain(("a", "b")), Domain(("x", "y"))),
                ((F(0),) * 4, (F(0),) * 3),
            )

    def test_one_tensor_per_player(self):
        with pytest.raises(ValueError):
            GameSpec(
                (Domain(("a", "b")), Domain(("x", "y"))),
                ((F(0),) * 4,),
            )

    def test_rejects_float_payoffs(self):
        with pytest.raises(TypeError):
            GameSpec.from_nested(
                [Domain(("a", "b")), Domain(("x", "y"))],
                [[[0.5, 0], [0, 1]], [[1, 0], [0, 1]]],
            )


    @pytest.mark.parametrize("rows, where", [
        ([[1, 0, 9], [0, 1, 9]], r"\[0\]"),
        ([[1, 0], [0]], r"\[1\]"),
        ([[1, 0], [0, 1], [0, 1]], ""),
        ([[1, 0], 0], r"\[1\]"),
    ], ids=["row-too-long", "row-too-short", "too-many-rows", "scalar-row"])
    def test_from_nested_checks_every_axis(self, rows, where):
        doms = [Domain(("a", "b")), Domain(("x", "y"))]
        good = [[1, 0], [0, 1]]
        for player, nested in enumerate(([rows, good], [good, rows])):
            with pytest.raises(ValueError, match=rf"^player {player} payoffs{where}: "
                                                 "expected a list of length 2$"):
                GameSpec.from_nested(doms, nested)


class TestOpponentDomain:
    def test_two_player_opponent_is_the_other_domain(self):
        game = coordination_game()
        assert opponent_domain(game, 0).flat.labels == ("A", "B")
        assert opponent_domain(game, 1).flat.labels == ("A", "B")

    def test_three_player_order_skips_the_player(self):
        rng = SplitMix64(9)
        game = random_game(rng, (2, 2, 2))
        opp = opponent_domain(game, 1)
        assert opp.factors == (
            game.strategy_domains[0], game.strategy_domains[2]
        )
        assert opp.flat.labels == ("a|a", "a|b", "b|a", "b|b")

    def test_cached_per_player(self):
        game = coordination_game()
        assert opponent_domain(game, 0) is opponent_domain(game, 0)

    def test_player_out_of_range(self):
        game = coordination_game()
        with pytest.raises(ValueError):
            opponent_domain(game, 2)


class TestPayoffSlice:
    def test_coordination_slice(self):
        game = coordination_game()
        s = payoff_slice(game, 0, "A")
        assert s.values == (F(1), F(0))
        assert payoff_slice(game, 0, "B").values == (F(0), F(1))

    def test_matching_pennies_first_player_heads(self):
        s = payoff_slice(matching_pennies(), 0, "H")
        assert s.values == (F(1), F(-1))

    def test_constant_game_gives_constant_slice(self):
        game = GameSpec.from_nested(
            [Domain(("a", "b")), Domain(("x", "y"))],
            [[[7, 7], [7, 7]], [[7, 7], [7, 7]]],
        )
        assert payoff_slice(game, 0, "b").values == (F(7), F(7))

    def test_three_player_slice_runs_over_the_joint_others(self):
        rng = SplitMix64(13)
        game = random_game(rng, (2, 2, 2))
        s = payoff_slice(game, 2, "a")
        opp = opponent_domain(game, 2)
        for combo in itertools.product(range(2), range(2)):
            label = "|".join(
                d.labels[k] for d, k in zip(opp.factors, combo)
            )
            assert s.value_of(label) == game.payoff(2, (*combo, 0))

    def test_unknown_strategy(self):
        with pytest.raises(UnknownLabel):
            payoff_slice(coordination_game(), 0, "C")

    def test_cached(self):
        game = coordination_game()
        assert payoff_slice(game, 0, "A") is payoff_slice(game, 0, "A")


class TestExpectedPayoff:
    def test_dirac_reduces_to_a_payoff_entry(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        assert expected_payoff(game, 0, "A", dirac_capacity(opp, "A"), PSI) == 1
        assert expected_payoff(game, 0, "A", dirac_capacity(opp, "B"), PSI) == 0

    def test_top_capacity_maximaxes(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        nu = top_capacity(opp)
        assert expected_payoff(game, 0, "A", nu, PSI) == 1
        assert expected_payoff(game, 0, "B", nu, PSI) == 1

    def test_uniform_coordination_value_is_zero(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        assert expected_payoff(game, 0, "A", uniform(opp), PSI) == 0

    def test_domain_mismatch(self):
        game = coordination_game()
        with pytest.raises(DomainMismatch):
            expected_payoff(game, 0, "A", top_capacity(Domain(("x", "y"))), PSI)

    def test_accepts_lazy_tensor_beliefs(self):
        rng = SplitMix64(17)
        game = random_game(rng, (2, 2, 2))
        opp = opponent_domain(game, 0)
        parts = [random_capacity(d, rng) for d in opp.factors]
        lazy = lazy_tensor(parts)
        from capgames import materialize

        dense = materialize(lazy)
        for lab in game.strategy_domains[0].labels:
            assert expected_payoff(game, 0, lab, lazy, PSI) == \
                expected_payoff(game, 0, lab, dense, PSI)

    @given(seed=st.integers(0, 2**32))
    def test_bounded_by_the_slice(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (2, 2, 2))
        opp = opponent_domain(game, 0)
        nu = random_capacity(opp.flat, rng)
        s = payoff_slice(game, 0, "a")
        out = expected_payoff(game, 0, "a", nu, PSI)
        assert s.minimum <= out <= s.maximum

    @given(seed=st.integers(0, 2**32))
    def test_possibility_belief_maximaxes_over_the_support(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (2, 3))
        opp = opponent_domain(game, 0).flat
        smask = 1 + rng.below(opp.full_mask)
        nu = possibility_capacity(opp, opp.labels_of(smask))
        for lab in game.strategy_domains[0].labels:
            s = payoff_slice(game, 0, lab)
            best = max(s.value_of(p) for p in opp.labels_of(smask))
            assert expected_payoff(game, 0, lab, nu, PSI) == best
            assert expected_payoff(game, 0, lab, nu, logit_correction(1)) == best


class TestBestResponse:
    def test_coordination_examples(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        assert best_response(game, 0, dirac_capacity(opp, "A"), PSI) == ("A",)
        assert best_response(game, 0, dirac_capacity(opp, "B"), PSI) == ("B",)
        assert best_response(game, 0, top_capacity(opp), PSI) == ("A", "B")

    def test_single_strategy_player(self):
        game = one_strategy_game()
        opp0 = opponent_domain(game, 0).flat
        opp1 = opponent_domain(game, 1).flat
        assert best_response(game, 0, top_capacity(opp0), PSI) == ("only",)
        assert best_response(game, 1, top_capacity(opp1), PSI) == ("sole",)

    @given(seed=st.integers(0, 2**32))
    def test_never_empty(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (3, 2))
        nu = random_capacity(opponent_domain(game, 0).flat, rng)
        assert best_response(game, 0, nu, PSI)

    @given(seed=st.integers(0, 2**32))
    def test_dirac_reduction_matches_direct_argmax(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (3, 2))
        for player in range(2):
            opp = opponent_domain(game, player)
            own = game.strategy_domains[player]
            other = 1 - player
            for k in range(game.sizes[other]):
                point = opp.flat.labels[k]
                nu = dirac_capacity(opp.flat, point)
                got = best_response(game, player, nu, PSI)
                scores = []
                for s in range(own.size):
                    profile = [0, 0]
                    profile[player] = s
                    profile[other] = k
                    scores.append(game.payoff(player, profile))
                top = max(scores)
                want = tuple(own.labels[s] for s in range(own.size)
                             if scores[s] == top)
                assert got == want

    @given(seed=st.integers(0, 2**32))
    def test_relabeling_strategies_is_equivariant(self, seed):
        rng = SplitMix64(seed)
        vals = [[rng.below(5) - 2 for _ in range(2)] for _ in range(2)]
        other = [[rng.below(5) - 2 for _ in range(2)] for _ in range(2)]
        base = GameSpec.from_nested(
            [Domain(("s", "t")), Domain(("x", "y"))], [vals, other]
        )
        swapped = GameSpec.from_nested(
            [Domain(("t", "s")), Domain(("x", "y"))],
            [[vals[1], vals[0]], [other[1], other[0]]],
        )
        nu = random_capacity(Domain(("x", "y")), rng)
        assert set(best_response(base, 0, nu, PSI)) == \
            set(best_response(swapped, 0, nu, PSI))


CORRECTIONS = (default_correction(), logit_correction(), logit_correction(3))
# Payoff palettes. The first makes ties, and holds values that
# corrections of grid levels hit exactly: the default correction sends
# 1/2 to 0 and 1/3, 2/3 to -3/2, 3/2. The others leave wide gaps, so
# that distinct corrected levels fall between the same two payoffs.
PALETTES = ((-2, F(-3, 2), -1, 0, 1, F(3, 2), 2), (-10, 0, 10), (-10, 10))


class TestRankKernel:
    """best_response decides on ranks; the Fraction argmax of
    expected_payoff (`fraction_best_response`) is its reference."""

    @given(st.data())
    def test_matches_the_fraction_argmax(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
        count = math.prod(sizes)
        palette = data.draw(st.sampled_from(PALETTES))
        game = GameSpec(tuple(letters(k) for k in sizes), tuple(
            tuple(data.draw(st.lists(st.sampled_from(palette), min_size=count,
                                     max_size=count)))
            for _ in sizes))
        player = data.draw(st.integers(0, len(sizes) - 1))
        rng = SplitMix64(data.draw(st.integers(0, 2**32)))
        # Denominator 1 gives {0, 1}-valued beliefs; the others interior
        # levels, with 2, 3 and 4 among the grid levels the payoffs hit.
        denominator = data.draw(st.sampled_from([1, 2, 3, 4, 8]))
        others = [d for j, d in enumerate(game.strategy_domains) if j != player]
        if len(others) > 1 and data.draw(st.booleans()):
            belief = LazyTensorCapacity([random_capacity(d, rng, denominator)
                                         for d in others])
        else:
            belief = random_capacity(opponent_domain(game, player).flat, rng,
                                     denominator)
        for corr in CORRECTIONS:
            assert (best_response(game, player, belief, corr)
                    == fraction_best_response(game, player, belief, corr))

    @given(st.data())
    def test_scores_between_two_payoffs_match_the_fraction_argmax(self, data):
        # Payoffs -10 and 10 only: a strategy whose slice holds both
        # scores the corrected level of its winning set, so several
        # strategies often score distinct levels inside one gap.
        k, m = data.draw(st.integers(2, 3)), data.draw(st.integers(2, 3))
        game = GameSpec((letters(k), letters(m)), tuple(
            tuple(data.draw(st.lists(st.sampled_from((-10, 10)), min_size=k * m,
                                     max_size=k * m)))
            for _ in range(2)))
        rng = SplitMix64(data.draw(st.integers(0, 2**32)))
        belief = random_capacity(letters(m), rng, data.draw(st.sampled_from([3, 4, 8])))
        for corr in CORRECTIONS:
            assert (best_response(game, 0, belief, corr)
                    == fraction_best_response(game, 0, belief, corr))

    def test_corrected_levels_between_the_same_two_payoffs(self):
        # Strategy s scores psi(mu({x})) and t scores psi(mu({y})). The
        # game's only payoffs are -10 and 10, so each score is a
        # corrected level strictly between them, and distinct levels
        # must still be told apart.
        xy = Domain(("x", "y"))
        game = GameSpec.from_nested(
            [Domain(("s", "t")), xy],
            [[[10, -10], [-10, 10]], [[10, -10], [-10, 10]]])
        # The default psi: 1/3 -> -3/2, 1/2 -> 0, 2/3 -> 3/2.
        cases = [((F(2, 3), F(1, 2)), ("s",)),
                 ((F(1, 2), F(2, 3)), ("t",)),
                 ((F(1, 3), F(1, 2)), ("t",)),
                 ((F(1, 2), F(1, 2)), ("s", "t"))]
        self.assert_cases(game, cases)

    def test_corrected_levels_equal_to_a_payoff(self):
        # As above, with a third strategy u paying 0 everywhere: psi(1/2)
        # = 0 ties it, and psi(1/3) = -3/2 loses to it.
        xy = Domain(("x", "y"))
        game = GameSpec.from_nested(
            [Domain(("s", "t", "u")), xy],
            [[[10, -10], [-10, 10], [0, 0]], [[10, -10], [-10, 10], [0, 0]]])
        cases = [((F(2, 3), F(1, 2)), ("s",)),
                 ((F(1, 3), F(1, 2)), ("t", "u")),
                 ((F(1, 2), F(1, 2)), ("s", "t", "u")),
                 ((F(1, 3), F(1, 4)), ("u",))]
        self.assert_cases(game, cases)

    @staticmethod
    def assert_cases(game, cases):
        xy = opponent_domain(game, 0).flat
        for (x, y), want in cases:
            belief = FiniteCapacity(xy, [0, x, y, 1])
            assert best_response(game, 0, belief, PSI) == want
            assert fraction_best_response(game, 0, belief, PSI) == want
            for corr in CORRECTIONS:
                assert (best_response(game, 0, belief, corr)
                        == fraction_best_response(game, 0, belief, corr))

    def test_levels_zero_and_one_need_no_correction(self):
        def refuse(u):
            raise AssertionError(f"correction evaluated at {u}")

        never = CorrectionMap("never", refuse)
        game = random_game(SplitMix64(4), (3, 2, 2))
        opp = opponent_domain(game, 0).flat
        for smask in range(1, opp.subset_count):
            belief = possibility_capacity(opp, opp.labels_of(smask))
            assert (best_response(game, 0, belief, never)
                    == fraction_best_response(game, 0, belief, PSI))
