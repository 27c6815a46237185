"""Equilibrium conditions, support scans, and grid oracle."""

import itertools
import math
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, reject, strategies as st

from capgames import (
    BeliefSystem,
    BudgetExceeded,
    CorrectionMap,
    Domain,
    DomainMismatch,
    EmptySupport,
    FiniteCapacity,
    GameSpec,
    LazyTensorCapacity,
    SupportProfile,
    best_response,
    bottom_capacity,
    check_support_profile,
    default_correction,
    dirac_capacity,
    enumerate_capacities,
    find_equilibria_grid,
    find_equilibria_supports,
    is_equilibrium,
    logit_correction,
    materialize,
    opponent_domain,
    possibility_capacity,
    pure_nash,
    tensor_many,
    top_capacity,
)
from capgames import PayoffFunction, capacity, equilibrium, payoff_slice
from capgames.capacity import SPACE_MEMO_ENTRIES, _grid_tables, _grid_values
from capgames.equilibrium import (
    _best_response_masks,
    _grid_response_masks,
    support_profile_count,
)
from capgames.game import _lifted, _payoff_ranked, _response_table
from capgames.generate import SplitMix64, random_game

from helpers import (
    FractionLazyTensor,
    best_response_grid_search,
    coordination_game,
    counted_fraction_compares,
    dominant_game,
    fraction_best_response,
    fraction_pure_nash,
    full_product_support_scan,
    is_possibility,
    letters,
    matching_pennies,
    measure_support_scan,
    no_support_equilibrium_game,
    one_strategy_game,
    product_grid_scan,
)

F = Fraction
GRID3 = (0, F(1, 2), 1)


def draw_game(data, sizes=None) -> GameSpec:
    """2-3 players with 1-3 strategies each, unless the sizes are given.
    Payoffs from a five-value range make ties, and so multi-strategy
    best-response sets, common."""
    if sizes is None:
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=3))
    count = math.prod(sizes)
    payoffs = [data.draw(st.lists(st.integers(-2, 2), min_size=count,
                                  max_size=count))
               for _ in sizes]
    return GameSpec(tuple(letters(k) for k in sizes),
                    tuple(tuple(p) for p in payoffs))


def draw_scan_game(data) -> GameSpec:
    """2-4 players: 1-3 strategies each for 2 or 3 players, 1-2 for 4."""
    n = data.draw(st.integers(2, 4))
    most = 3 if n < 4 else 2
    return draw_game(data, data.draw(st.lists(st.integers(1, most), min_size=n, max_size=n)))


def fresh_copy(game: GameSpec) -> GameSpec:
    """The same game without the caches the original has filled."""
    return GameSpec(game.strategy_domains, game.payoffs)


def belief_tables(beliefs) -> list[tuple[Fraction, ...]]:
    return [tuple(b.value_mask(m) for m in range(b.domain.subset_count))
            for b in beliefs]


def assert_same_scan(fast, slow) -> None:
    """Same hits in the same order, with equal certificates: equal
    reports and beliefs equal at every mask."""
    assert [p for p, _ in fast] == [p for p, _ in slow]
    assert [c.to_dict() for _, c in fast] == [c.to_dict() for _, c in slow]
    assert ([belief_tables(c.beliefs.beliefs) for _, c in fast]
            == [belief_tables(c.beliefs.beliefs) for _, c in slow])


def certificate_record(cert) -> tuple:
    """The certificate's fields, each belief as itself when dense (equal
    by value) and as its factors when lazy (a lazy tensor is equal only
    to itself)."""
    return tuple((tuple(b.factors if isinstance(b, LazyTensorCapacity) else b
                        for b in value.beliefs) if name == "beliefs" else value)
                 for name, value in zip(cert._fields, cert._astuple()))


# Criterion 07's recipe (see test_acceptance.scan200) and the indices of
# its games without a support-profile equilibrium.
CRITERION_07_EMPTY = (13, 18, 21, 124, 129, 163, 167, 192, 198)


def criterion_07_games() -> list[GameSpec]:
    rng = SplitMix64(7)
    games = []
    for _ in range(200):
        n = 2 + rng.below(2)
        games.append(random_game(rng, [2 + rng.below(2) for _ in range(n)]))
    return games


GRIDS = ((0, 1), GRID3, (0, F(1, 3), F(2, 3), 1))
CORRECTIONS = (default_correction(), logit_correction(), logit_correction(3))


def member_indices(game, grid, systems) -> list[tuple[int, ...]]:
    """Each belief system as its beliefs' positions in the players' grid
    spaces. A belief object is looked up once: the searches share one
    object per member among their hits."""
    spaces = [enumerate_capacities(opponent_domain(game, i).flat, grid)
              for i in range(game.n_players)]
    found: dict[int, int] = {}

    def position(space, cap):
        if id(cap) not in found:
            found[id(cap)] = space.index_of(cap)
        return found[id(cap)]

    return [tuple(map(position, spaces, s.beliefs)) for s in systems]


class TestSupportProfile:
    def test_from_labels_round_trip(self):
        game = coordination_game()
        profile = SupportProfile.from_labels(game, [("A",), ("A", "B")])
        assert profile.masks == (0b01, 0b11)
        assert profile.labels == (("A",), ("A", "B"))

    def test_full(self):
        game = coordination_game()
        assert SupportProfile.full(game).masks == (0b11, 0b11)

    def test_empty_support_rejected(self):
        game = coordination_game()
        with pytest.raises(EmptySupport):
            SupportProfile.from_masks(game, [0, 0b11])

    def test_wrong_arity_rejected(self):
        game = coordination_game()
        with pytest.raises(ValueError):
            SupportProfile.from_masks(game, [0b01])

    def test_mask_out_of_range_rejected(self):
        game = coordination_game()
        with pytest.raises(ValueError):
            SupportProfile.from_masks(game, [0b100, 0b01])


class TestBeliefSystem:
    def test_for_game_accepts_matching_domains(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        system = BeliefSystem.for_game(
            game, [dirac_capacity(opp, "A"), dirac_capacity(opp, "A")]
        )
        assert len(system.beliefs) == 2

    def test_wrong_count_rejected(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        with pytest.raises(DomainMismatch):
            BeliefSystem.for_game(game, [top_capacity(opp)])

    def test_wrong_domain_rejected(self):
        game = coordination_game()
        bad = top_capacity(opponent_domain(game, 0).flat)
        from capgames import Domain

        alien = top_capacity(Domain(("x", "y")))
        with pytest.raises(DomainMismatch):
            BeliefSystem.for_game(game, [bad, alien])


class TestIsEquilibrium:
    def test_matched_diracs_hold(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        cert = is_equilibrium(
            game, [dirac_capacity(opp, "A"), dirac_capacity(opp, "A")]
        )
        assert cert.holds
        assert cert.best_responses == (("A",), ("A",))
        assert cert.residuals == (F(0), F(0))
        assert cert.degenerate_players == ()
        assert cert.correction_name == "rational-default"

    def test_mismatched_diracs_fail_with_nonzero_residual(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        cert = is_equilibrium(
            game, [dirac_capacity(opp, "B"), dirac_capacity(opp, "A")]
        )
        assert not cert.holds
        assert cert.residuals == (F(1), F(1))

    def test_vacuous_beliefs_hold_and_are_flagged(self):
        game = matching_pennies()
        opp = opponent_domain(game, 0).flat
        cert = is_equilibrium(
            game, [bottom_capacity(opp), bottom_capacity(opp)]
        )
        assert cert.holds
        assert cert.degenerate_players == (0, 1)

    def test_accepts_a_belief_system_or_a_plain_sequence(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        caps = [dirac_capacity(opp, "A"), dirac_capacity(opp, "A")]
        assert is_equilibrium(game, caps).holds
        assert is_equilibrium(game, BeliefSystem.for_game(game, caps)).holds

    def test_correction_name_is_recorded(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        caps = [top_capacity(opp), top_capacity(opp)]
        cert = is_equilibrium(game, caps, logit_correction(1))
        assert cert.correction_name == "logit-1"

    def test_domain_validation(self):
        game = coordination_game()
        opp = opponent_domain(game, 0).flat
        with pytest.raises(DomainMismatch):
            is_equilibrium(game, [top_capacity(opp)])


class TestCheckSupportProfile:
    def test_singleton_nash_point_passes(self):
        game = coordination_game()
        profile = SupportProfile.from_labels(game, [("A",), ("A",)])
        cert = check_support_profile(game, profile)
        assert cert.holds
        assert cert.supports is profile
        assert cert.supports_within_responses is True

    def test_full_coordination_passes(self):
        game = coordination_game()
        cert = check_support_profile(game, SupportProfile.full(game))
        assert cert.holds
        assert cert.best_responses == (("A", "B"), ("A", "B"))

    def test_pennies_singletons_all_fail(self):
        game = matching_pennies()
        for own in ("H", "T"):
            for other in ("H", "T"):
                profile = SupportProfile.from_labels(game, [(own,), (other,)])
                cert = check_support_profile(game, profile)
                assert not cert.holds
                assert cert.supports_within_responses is False

    def test_to_dict_carries_supports(self):
        game = coordination_game()
        cert = check_support_profile(game, SupportProfile.full(game))
        payload = cert.to_dict()
        assert payload["equilibrium"] is True
        assert payload["supports"] == [["A", "B"], ["A", "B"]]
        assert payload["supports_within_responses"] is True
        assert payload["residuals"] == ["0", "0"]

    def test_direct_profile_with_empty_mask_rejected(self):
        game = coordination_game()
        bogus = SupportProfile((0, 1), ((), ("A",)))
        with pytest.raises(EmptySupport):
            check_support_profile(game, bogus)

    def test_wrong_player_count_rejected(self):
        game = coordination_game()
        bogus = SupportProfile((1,), (("A",),))
        with pytest.raises(ValueError):
            check_support_profile(game, bogus)

    def test_ten_strategy_three_player_profile_certifies(self):
        # Each opponent product has 100 points, past the dense cap, so
        # the beliefs are lazy tensors.
        domains = (letters(10),) * 3
        profiles = list(itertools.product(range(10), repeat=3))
        # Every player's own strategy "a" strictly dominates.
        dominant = GameSpec(domains, tuple(tuple(-p[i] for p in profiles)
                                           for i in range(3)))
        start = time.perf_counter()
        profile = SupportProfile.from_labels(dominant, [("a",)] * 3)
        cert = check_support_profile(dominant, profile)
        assert all(isinstance(b, LazyTensorCapacity) for b in cert.beliefs.beliefs)
        assert cert.holds
        assert time.perf_counter() - start < 5

    @given(seed=st.integers(0, 2**32))
    def test_measure_and_set_conditions_agree(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (2, 2))
        for masks in itertools.product((1, 2, 3), repeat=2):
            profile = SupportProfile.from_masks(game, masks)
            cert = check_support_profile(game, profile)
            assert cert.holds == cert.supports_within_responses


class TestFindEquilibriaSupports:
    def test_pennies_full_profile_only(self):
        game = matching_pennies()
        hits = find_equilibria_supports(game)
        assert [p.masks for p, _ in hits] == [(0b11, 0b11)]
        assert hits[0][1].holds

    def test_coordination_three_in_mask_order(self):
        game = coordination_game()
        hits = find_equilibria_supports(game)
        assert [p.masks for p, _ in hits] == [(1, 1), (2, 2), (3, 3)]

    def test_dominant_game_single_hit(self):
        hits = find_equilibria_supports(dominant_game())
        assert [p.labels for p, _ in hits] == [(("a",), ("a",))]

    def test_one_strategy_game(self):
        hits = find_equilibria_supports(one_strategy_game())
        assert [p.masks for p, _ in hits] == [(1, 1)]

    def test_counterexample_has_no_equilibrium(self):
        assert find_equilibria_supports(no_support_equilibrium_game()) == []

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            find_equilibria_supports(coordination_game(), budget=2)

    def test_colliding_opponent_labels_name_the_points(self):
        # Player 2's opponent points ("a|b", "c") and ("a", "b|c") both
        # join to "a|b|c". Equal payoffs make every profile a hit, so the
        # scan builds every player's belief.
        domains = (Domain(("a|b", "a")), Domain(("b|c", "c")), letters(2))
        game = GameSpec(domains, ((F(0),) * 8,) * 3)
        with pytest.raises(ValueError, match=r"factor points \('a\|b', 'c'\) and "
                                             r"\('a', 'b\|c'\) join to the same "
                                             r"product label 'a\|b\|c'"):
            find_equilibria_supports(game)
        assert pure_nash(game) == list(itertools.product(*(d.labels for d in domains)))

    @given(seed=st.integers(0, 2**32))
    def test_hits_verify_against_independently_built_beliefs(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (2, 2))
        for profile, cert in find_equilibria_supports(game):
            caps = [
                possibility_capacity(game.strategy_domains[j], profile.labels[j])
                for j in range(2)
            ]
            rebuilt = [
                materialize(tensor_many([caps[j] for j in range(2) if j != i]))
                for i in range(2)
            ]
            assert is_equilibrium(game, rebuilt).holds
            assert cert.holds

    @given(st.data())
    def test_box_max_scan_matches_the_measure_path(self, data):
        game = draw_game(data)
        for corr in (default_correction(), logit_correction()):
            fast = find_equilibria_supports(game, corr)
            slow = measure_support_scan(game, corr)
            assert [p.masks for p, _ in fast] == [p.masks for p, _ in slow]
            assert [c.to_dict() for _, c in fast] == [c.to_dict() for _, c in slow]


    @given(st.data())
    def test_scan_matches_the_full_product_reference(self, data):
        game = draw_scan_game(data)
        fast = find_equilibria_supports(game)
        assert_same_scan(fast, full_product_support_scan(fresh_copy(game)))
        # Each belief is the Fraction fold of the others' possibility
        # capacities (a two-player belief: the other's capacity).
        for profile, cert in fast:
            caps = [possibility_capacity(d, labels)
                    for d, labels in zip(game.strategy_domains, profile.labels)]
            reference = [FractionLazyTensor(caps[:i] + caps[i + 1:])
                         for i in range(game.n_players)]
            assert belief_tables(cert.beliefs.beliefs) == belief_tables(reference)

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (2, 2, 1, 2)])
    def test_every_profile_hits_when_all_payoffs_are_equal(self, sizes):
        game = GameSpec(tuple(letters(k) for k in sizes),
                        tuple((F(1, 2),) * math.prod(sizes) for _ in sizes))
        fast = find_equilibria_supports(game)
        assert len(fast) == support_profile_count(game)
        assert [p.masks for p, _ in fast] == sorted(p.masks for p, _ in fast)
        assert_same_scan(fast, full_product_support_scan(fresh_copy(game)))

    @given(st.data())
    def test_every_certificate_equals_an_independent_check(self, data):
        game = draw_scan_game(data)
        for corr in (default_correction(), logit_correction()):
            for profile, cert in find_equilibria_supports(game, corr):
                alone = check_support_profile(fresh_copy(game), profile, corr)
                assert certificate_record(cert) == certificate_record(alone)
                assert cert.to_dict() == alone.to_dict()
                if game.n_players == 2:
                    assert cert == alone

    # Games whose hits share beliefs: 27 hits with 27 distinct beliefs
    # among 81, 11 with 25 among 33, and 7 with 9 among 14.
    @pytest.mark.parametrize("game", [
        GameSpec((letters(2),) * 3, ((F(0),) * 8,) * 3),
        random_game(SplitMix64(5), (3, 3, 2)),
        random_game(SplitMix64(1), (3, 3)),
    ], ids=["equal-payoffs", "3x3x2", "3x3"])
    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_scan_decides_each_belief_once(self, game, monkeypatch):
        built = []
        init = PayoffFunction.__init__

        def counting_init(func, *args):
            built.append(args)
            init(func, *args)

        monkeypatch.setattr(PayoffFunction, "__init__", counting_init)
        payoff_slice(fresh_copy(game), 0, "a")
        assert len(built) == 1  # the counter does count
        built.clear()
        decided, boxes = [], []
        kernel, outside_box = equilibrium._response_mask, equilibrium._outside_box

        def counting_kernel(game, player, belief, corr):
            decided.append((player, id(belief)))
            return kernel(game, player, belief, corr)

        def counting_outside_box(game, player, responses):
            boxes.append((player, tuple(responses[:player]) + tuple(responses[player + 1:])))
            return outside_box(game, player, responses)

        monkeypatch.setattr(equilibrium, "_response_mask", counting_kernel)
        monkeypatch.setattr(equilibrium, "_outside_box", counting_outside_box)
        hits = find_equilibria_supports(game)
        assert hits and built == []
        n = game.n_players
        beliefs = {(i, p.masks[:i] + p.masks[i + 1:]) for p, _ in hits for i in range(n)}
        assert len(decided) == len(set(decided)) == len(beliefs) < len(hits) * n
        responses = [tuple(d.as_mask(r) for d, r in zip(game.strategy_domains,
                                                          c.best_responses))
                     for _, c in hits]
        assert len(boxes) == len(set(boxes)) == len(
            {(i, r[:i] + r[i + 1:]) for r in responses for i in range(n)}) < len(hits) * n

    def test_criterion_07_empty_games_stay_empty(self):
        games = criterion_07_games()
        for k in CRITERION_07_EMPTY:
            assert find_equilibria_supports(games[k]) == []
            assert full_product_support_scan(games[k]) == []

    def test_hits_share_beliefs_within_a_scan_only(self):
        # Every profile is a hit when all payoffs are equal.
        game = GameSpec((letters(2),) * 3, ((F(0),) * 8,) * 3)
        hits = find_equilibria_supports(game)
        by_key = {}
        for profile, cert in hits:
            for i, belief in enumerate(cert.beliefs.beliefs):
                assert belief.product is opponent_domain(game, i)
                key = (i, profile.masks[:i] + profile.masks[i + 1:])
                assert by_key.setdefault(key, belief) is belief
        assert len(by_key) == 3 * 3 ** 2  # per player, the others' masks
        assert game._belief_cache is None
        again = find_equilibria_supports(game)
        assert again[0][1].beliefs.beliefs[0] is not hits[0][1].beliefs.beliefs[0]

    @pytest.mark.parametrize("sizes, seed", [((2, 10), 3), ((3, 3), 1), ((2, 2, 3), 5)])
    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_possibility_batches_hold_only_the_supports_of_hits(self, monkeypatch,
                                                               sizes, seed):
        # Every support of a 10-strategy player would be 1,023 tables of
        # 1,024 entries. The scan builds the supports its hits use, one
        # batch per strategy domain, which equal domains share.
        game = random_game(SplitMix64(seed), sizes)
        batches = []
        many = FiniteCapacity._many_from_ranks.__func__

        def recording(cls, domain, levels, tables):
            batches.append((domain, [tuple(t) for t in tables]))
            return many(cls, domain, levels, tables)

        monkeypatch.setattr(FiniteCapacity, "_many_from_ranks", classmethod(recording))
        hits = find_equilibria_supports(game)
        used = {(game.strategy_domains[j], mask)
                for profile, _ in hits for j, mask in enumerate(profile.masks)}
        built = [(domain, table) for domain, tables in batches for table in tables]
        assert hits and len(built) <= len(used)
        assert len(batches) == len({domain for domain, _ in used})
        assert set(built) == {(d, tuple(int(bool(mask & s)) for mask in range(d.subset_count)))
                              for d, s in used}

    def test_box_max_tables_compare_no_fractions(self):
        game = random_game(SplitMix64(5), (3, 3, 2))
        with counted_fraction_compares() as compares:
            _payoff_ranked(game)
        # The counter does count: ranking the payoffs sorts Fractions.
        assert compares[0] > 0
        with counted_fraction_compares() as compares:
            for i in range(game.n_players):
                _best_response_masks(game, i)
        assert compares == [0]


class TestFindEquilibriaGrid:
    def test_zero_one_grid_on_coordination(self):
        game = coordination_game()
        systems = find_equilibria_grid(game, (0, 1))
        assert systems
        opp = opponent_domain(game, 0).flat
        found = {
            tuple(tuple(b.values) for b in sys.beliefs) for sys in systems
        }
        diracs = tuple(dirac_capacity(opp, "A").values)
        assert (diracs, diracs) in found
        vacuous = tuple(bottom_capacity(opp).values)
        assert (vacuous, vacuous) in found

    def test_zero_one_grid_never_empty_even_without_support_equilibria(self):
        game = no_support_equilibrium_game()
        systems = find_equilibria_grid(game, (0, 1))
        assert systems
        for sys in systems:
            assert is_equilibrium(game, sys).holds

    def test_three_point_grid_recovers_dirac_systems(self):
        game = coordination_game()
        systems = find_equilibria_grid(game, (0, F(1, 2), 1))
        opp = opponent_domain(game, 0).flat
        found = {
            tuple(tuple(b.values) for b in sys.beliefs) for sys in systems
        }
        for lab in ("A", "B"):
            d = tuple(dirac_capacity(opp, lab).values)
            assert (d, d) in found

    def test_all_returned_systems_verify(self):
        game = matching_pennies()
        for sys in find_equilibria_grid(game, (0, 1)):
            assert is_equilibrium(game, sys).holds

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            find_equilibria_grid(coordination_game(), (0, F(1, 2), 1), budget=5)

    @pytest.mark.parametrize("grid", [(0, 0.1, 1), (False, True), ("0", "1/3", "1")])
    def test_grid_values_are_fractions_or_ints(self, grid):
        with pytest.raises(TypeError, match="grid value"):
            find_equilibria_grid(coordination_game(), grid)

    @given(st.data())
    def test_decoupled_search_matches_the_product_loop(self, data):
        game = draw_game(data)
        grid = data.draw(st.sampled_from([(0, 1), GRID3]))
        corr = data.draw(st.sampled_from([default_correction(),
                                          logit_correction()]))
        try:
            slow = product_grid_scan(game, grid, corr, budget=1500)
        except BudgetExceeded:
            reject()
        fast = find_equilibria_grid(game, grid, corr)
        assert fast == slow
        assert ([[b.values for b in s.beliefs] for s in fast]
                == [[b.values for b in s.beliefs] for s in slow])

    @staticmethod
    def assert_rank_path_matches(game, grid, corr):
        """find_equilibria_grid gives the reference search's list, in
        its order, and each member's rank-decided best-response mask is
        the one best_response gives."""
        fast = find_equilibria_grid(game, grid, corr)
        slow = best_response_grid_search(game, grid, corr)
        assert member_indices(game, grid, fast) == member_indices(game, grid, slow)
        for i in range(game.n_players):
            domain = opponent_domain(game, i).flat
            levels = _grid_values(grid)
            masks = _grid_response_masks(game, i,
                                         [corr.evaluate(g) for g in levels[1:-1]],
                                         _grid_tables(domain, levels))
            own = game.strategy_domains[i]
            space = enumerate_capacities(domain, grid).capacities
            assert masks == [own.mask_of(best_response(game, i, cap, corr))
                             for cap in space]
            # best_response shares the rank kernel: check a sample of the
            # members against the Fraction argmax too.
            for k in range(0, len(space), 7):
                assert masks[k] == own.mask_of(
                    fraction_best_response(game, i, space[k], corr))

    @given(st.data())
    def test_rank_path_matches_the_best_response_search(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=2, max_size=2))
        game = draw_game(data, sizes)
        grid = data.draw(st.sampled_from(GRIDS))
        corr = data.draw(st.sampled_from(CORRECTIONS))
        self.assert_rank_path_matches(game, grid, corr)

    # 166^3 systems over {0, 1}, where no correction is evaluated; the
    # 4-point spaces of the finer grids exceed the default budget. These
    # seeds give 61,362, 24,119 and 6,745 equilibria; most 2x2x2 games
    # give 0.3-0.7 million, 3-8 s for each search and its reference.
    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_rank_path_matches_the_best_response_search_on_three_players(self, seed):
        game = random_game(SplitMix64(seed), [2, 2, 2])
        self.assert_rank_path_matches(game, (0, 1), default_correction())

    @pytest.mark.parametrize("sizes, grid", [([2, 3], GRID3), ([2, 2, 2], (0, 1))])
    def test_kernel_runs_once_per_distinct_key(self, monkeypatch, sizes, grid):
        # A member's key is its ranks at the player's payoff level-set
        # masks, the only masks the kernel reads; lifting keeps the masks.
        game = random_game(SplitMix64(4), sizes)
        corr = default_correction()
        levels = _grid_values(grid)
        corrected = [corr.evaluate(g) for g in levels[1:-1]]
        calls = []
        kernel = equilibrium._argmax_mask

        def counting_kernel(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(equilibrium, "_argmax_mask", counting_kernel)
        expected_calls = members = 0
        for i in range(game.n_players):
            tables = _grid_tables(opponent_domain(game, i).flat, levels)
            sets = _response_table(game, i)
            read = sorted({mask for level_sets in sets for _, mask in level_sets})
            distinct = {tuple(table[m] for m in read) for table in tables}
            calls.clear()
            masks = _grid_response_masks(game, i, corrected, tables)
            assert len(calls) == len(distinct)
            lifted, keys = _lifted(game, sets, corrected)
            lift = [0, *keys, 0].__getitem__
            assert masks == [kernel(lifted, table.__getitem__, lift, len(levels) - 1)
                             for table in tables]
            expected_calls += len(distinct)
            members += len(tables)
        assert expected_calls < members
        # The whole search too; on 2x2x2 games it lists too many systems
        # for a unit test.
        if game.n_players == 2:
            calls.clear()
            find_equilibria_grid(game, grid, corr)
            assert len(calls) == expected_calls

    def test_correction_is_evaluated_once_per_interior_level(self):
        evaluated = []

        def interior(u):
            evaluated.append(u)
            return default_correction().evaluate(u)

        corr = CorrectionMap("counted", interior)
        find_equilibria_grid(coordination_game(), (0, F(1, 3), F(1, 2), 1), corr)
        assert evaluated == [F(1, 3), F(1, 2)]

    def test_three_players_on_the_zero_one_grid(self):
        # 166^3 = 4,574,296 belief systems.
        game = random_game(SplitMix64(1), [2, 2, 2])
        systems = find_equilibria_grid(game, (0, 1))
        # Keyed by object identity: hashing 142,737 Fraction tables is slow.
        found = {tuple(map(id, s.beliefs)) for s in systems}
        assert len(found) == len(systems)
        members = {id(b): b for s in systems for b in s.beliefs}
        id_of = {b.values: k for k, b in members.items()}
        # The possibility systems among them are exactly the support hits.
        hits = {p.masks for p, _ in find_equilibria_supports(game)}
        assert hits
        for masks in itertools.product(range(1, 4), repeat=3):
            profile = SupportProfile.from_masks(game, masks)
            beliefs = check_support_profile(game, profile).beliefs.beliefs
            key = tuple(id_of.get(materialize(b).values) for b in beliefs)
            assert (key in found) == (masks in hits)
        for system in systems[::997]:
            assert is_equilibrium(game, system).holds

    def test_possibility_systems_on_a_two_by_five_game_are_the_support_hits(self):
        # Player 0 believes on player 1's 5 strategies: the 5-point
        # {0, 1} space, 7,579 members, which only the member budget bounds.
        # Criterion 09's relation: the possibility systems among the grid
        # hits are the support-scan hits.
        game = random_game(SplitMix64(3), [2, 5])
        systems = find_equilibria_grid(game, (0, 1))
        assert len(systems) == 5104

        def support(cap):
            return sum(1 << k for k in range(cap.domain.size) if cap.value_mask(1 << k) == 1)

        # Player i's belief encodes the other player's support.
        translated = {(support(b1), support(b0)) for b0, b1 in
                      (s.beliefs for s in systems) if is_possibility(b0) and is_possibility(b1)}
        hits = {p.masks for p, _ in find_equilibria_supports(game)}
        assert len(hits) == 4
        assert translated == hits

    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_budget_is_checked_before_any_member_is_built(self, monkeypatch):
        # Members are built by _many_from_ranks, which validates every
        # table first; count the tables that reach the validator.
        validated = []
        check = capacity._check_ranks

        def counting_check(domain, levels, unit, tables):
            validated.extend(tables)
            check(domain, levels, unit, tables)

        monkeypatch.setattr(capacity, "_check_ranks", counting_check)
        assert len(enumerate_capacities(letters(2), GRID3)) == len(validated) == 9
        validated.clear()
        game = random_game(SplitMix64(1), [2, 2, 2])
        with pytest.raises(BudgetExceeded, match="^380447722936 candidate"):
            find_equilibria_grid(game, GRID3)
        assert validated == []


@pytest.mark.usefixtures("cold_grid_spaces")
class TestGridSpaceMemo:
    """Each grid space is filled and built once per process, in two
    bounded memos keyed by (domain, grid levels)."""

    @staticmethod
    def record_fills_and_builds(monkeypatch) -> list[str]:
        calls = []
        fill, many = capacity._grid_tables, FiniteCapacity._many_from_ranks.__func__

        def counting_fill(domain, values):
            calls.append(f"fill {domain.size}")
            return fill(domain, values)

        def counting_many(cls, domain, levels, tables):
            calls.append(f"build {domain.size}")
            return many(cls, domain, levels, tables)

        monkeypatch.setattr(capacity, "_grid_tables", counting_fill)
        monkeypatch.setattr(FiniteCapacity, "_many_from_ranks", classmethod(counting_many))
        return calls

    def test_a_second_game_on_the_same_spaces_fills_and_builds_nothing(self, monkeypatch):
        first, second = (random_game(SplitMix64(seed), [2, 3]) for seed in (1, 2))
        find_equilibria_grid(first, GRID3)
        calls = self.record_fills_and_builds(monkeypatch)
        warm = find_equilibria_grid(second, GRID3)
        assert warm and calls == []
        # Its beliefs are the memoized members themselves.
        levels = _grid_values(GRID3)
        members = {id(m) for i in range(2)
                   for m in capacity._grid_space_members(opponent_domain(second, i).flat,
                                                         levels)}
        assert {id(b) for s in warm for b in s.beliefs} <= members
        # No caller can change a shared table.
        tables = capacity._grid_space_tables(opponent_domain(second, 0).flat, levels)
        assert type(tables) is tuple and all(type(t) is bytes for t in tables)
        capacity._grid_space_tables.cache_clear()
        capacity._grid_space_members.cache_clear()
        cold = find_equilibria_grid(second, GRID3)
        # Cold: both spaces are filled, then the budget is checked, then
        # both are built.
        assert calls == ["fill 3", "fill 2", "build 3", "build 2"]
        assert warm == cold
        assert ([[b.values for b in s.beliefs] for s in warm]
                == [[b.values for b in s.beliefs] for s in cold])

    def test_each_belief_lives_on_its_own_opponent_labels(self):
        ab = coordination_game()
        xy = GameSpec((Domain(("x", "y")),) * 2, ab.payoffs)
        for game in (ab, xy):
            systems = find_equilibria_grid(game, GRID3)
            assert systems
            for system in systems:
                for i, belief in enumerate(system.beliefs):
                    assert belief.domain.labels == opponent_domain(game, i).flat.labels
                assert is_equilibrium(game, system).holds
        assert capacity._grid_space_members.cache_info().currsize == 2
        assert ([[b.values for b in s.beliefs] for s in find_equilibria_grid(xy, GRID3)]
                == [[b.values for b in s.beliefs] for s in find_equilibria_grid(ab, GRID3)])

    def test_a_refused_search_validates_nothing_cold_or_warm(self, monkeypatch):
        validated = []
        check = capacity._check_ranks

        def counting_check(domain, levels, unit, tables):
            validated.extend(tables)
            check(domain, levels, unit, tables)

        monkeypatch.setattr(capacity, "_check_ranks", counting_check)
        calls = self.record_fills_and_builds(monkeypatch)
        game = random_game(SplitMix64(1), [2, 2, 2])
        for _ in range(2):
            with pytest.raises(BudgetExceeded, match="^380447722936 candidate"):
                find_equilibria_grid(game, GRID3)
            assert validated == []
        # The three players' opponents share the labels of one 4-point
        # space: filled on the first run, read from the memo on the second.
        assert calls == ["fill 4"]
        assert capacity._grid_space_tables.cache_info().currsize == 1
        assert capacity._grid_space_members.cache_info().currsize == 0

    @pytest.mark.parametrize("n, store", [(200, bytes), (300, tuple)])
    def test_one_point_spaces_on_fine_grids(self, n, store):
        # Each opponent of a 1x1 game has one point, so its space has one
        # member, ranking the full set at the top of n + 1 grid values.
        # Past 128 levels the packed cover check reads wider fields than
        # the table's bytes, and past 256 levels the table is a tuple.
        grid = [F(k, n) for k in range(n + 1)]
        systems = find_equilibria_grid(one_strategy_game(), grid)
        assert len(systems) == 1
        for belief in systems[0].beliefs:
            tables = capacity._grid_space_tables(belief.domain, _grid_values(grid))
            assert tables == (store((0, n)),) and belief._ranks is tables[0]

    def test_the_memos_hold_no_more_than_their_bound(self):
        game = coordination_game()
        memos = (capacity._grid_space_tables, capacity._grid_space_members)
        grids = [[F(k, n) for k in range(n + 1)] for n in range(1, SPACE_MEMO_ENTRIES + 2)]
        for grid in grids:
            find_equilibria_grid(game, grid)
            assert all(m.cache_info().currsize <= SPACE_MEMO_ENTRIES for m in memos)
        assert all(m.cache_info().currsize == SPACE_MEMO_ENTRIES for m in memos)
        assert all(m.cache_info().maxsize == SPACE_MEMO_ENTRIES for m in memos)
        # The least recently used space, the first grid's, was dropped.
        misses = capacity._grid_space_tables.cache_info().misses
        find_equilibria_grid(game, grids[0])
        assert capacity._grid_space_tables.cache_info().misses == misses + 1

    def test_full_memos_retain_at_most_about_25_mib(self):
        # The largest space inside the member budget is the 5-point
        # {0, 1} space; each memo keeps SPACE_MEMO_ENTRIES spaces.
        domain, levels = letters(5), (F(0), F(1))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            members = capacity._grid_space_members(domain, levels)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(members) == 7579
        assert SPACE_MEMO_ENTRIES * retained < 26 * 2**20


class TestPureNash:
    def test_examples(self):
        assert pure_nash(coordination_game()) == [("A", "A"), ("B", "B")]
        assert pure_nash(matching_pennies()) == []
        assert pure_nash(dominant_game()) == [("a", "a")]
        assert pure_nash(no_support_equilibrium_game()) == []
        assert pure_nash(one_strategy_game()) == [("only", "sole")]

    @given(st.data())
    def test_matches_the_fraction_reference(self, data):
        game = draw_scan_game(data)
        assert pure_nash(game) == fraction_pure_nash(game)

    def test_every_profile_when_all_payoffs_are_equal(self):
        game = GameSpec((letters(2), letters(3)), ((F(-1),) * 6, (F(2),) * 6))
        assert pure_nash(game) == list(itertools.product("ab", "abc"))

    @given(seed=st.integers(0, 2**32))
    def test_singleton_profiles_embed_pure_nash(self, seed):
        rng = SplitMix64(seed)
        game = random_game(rng, (2, 3))
        nash = set(pure_nash(game))
        for combo in itertools.product(*(d.labels for d in game.strategy_domains)):
            profile = SupportProfile.from_labels(
                game, [(lab,) for lab in combo]
            )
            cert = check_support_profile(game, profile)
            assert cert.holds == (combo in nash)
