"""Exhaustive grid-capacity spaces, order intervals, binarity, and
pairwise separation."""

import itertools
import random
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from capgames import (
    BudgetExceeded,
    Domain,
    DomainMismatch,
    EqualCapacities,
    FiniteCapacity,
    GridCapacitySpace,
    RangeError,
    bottom_capacity,
    check_binarity,
    check_t2,
    dirac_capacity,
    enumerate_capacities,
    interval,
    interval_membership,
    join,
    marginal,
    meet,
    product_domain,
    separating_halves,
    tensor2,
    top_capacity,
)
from capgames import capacity, convexity

from helpers import (
    _scale_of,
    bigint_binarity_scan,
    letters,
    pairwise_t2_scan,
    value_ranked_index,
    value_ranked_space,
    with_foreign_levels,
)

AB = Domain(("a", "b"))
ABC = Domain(("a", "b", "c"))

F = Fraction

GRID3 = (F(0), F(1, 2), F(1))


def brute_force_count(domain: Domain, grid) -> int:
    """Independent enumeration: try every assignment of grid values to
    the proper nonempty subsets and keep the monotone ones."""
    values = sorted(Fraction(g) for g in grid)
    full = domain.full_mask
    proper = [m for m in range(1, full)]
    count = 0
    for combo in itertools.product(values, repeat=len(proper)):
        table = {0: F(0), full: F(1)}
        table.update(dict(zip(proper, combo)))
        ok = True
        for mask in range(full + 1):
            m = mask
            while m and ok:
                bit = m & -m
                if table[mask ^ bit] > table[mask]:
                    ok = False
                m ^= bit
            if not ok:
                break
        if ok:
            count += 1
    return count


class TestEnumerateCapacities:
    def test_two_point_counts_are_grid_squared(self):
        assert len(enumerate_capacities(AB, (0, 1))) == 4
        assert len(enumerate_capacities(AB, GRID3)) == 9
        assert len(enumerate_capacities(AB, (0, F(1, 4), F(1, 2), F(3, 4), 1))) == 25

    def test_one_point_domain_has_the_unique_capacity(self):
        space = enumerate_capacities(Domain(("a",)), GRID3)
        assert len(space) == 1
        assert space.capacities[0].values == (F(0), F(1))

    def test_three_point_count_matches_brute_force(self):
        space = enumerate_capacities(ABC, GRID3)
        assert len(space) == 129
        assert brute_force_count(ABC, GRID3) == 129

    def test_two_point_membership_matches_brute_force(self):
        assert brute_force_count(AB, GRID3) == 9

    def test_all_members_are_valid_and_distinct(self):
        space = enumerate_capacities(ABC, (0, 1))
        seen = {cap.values for cap in space.capacities}
        assert len(seen) == len(space)
        for cap in space.capacities:
            assert set(cap.values) <= {F(0), F(1)}

    def test_closed_under_meet_and_join(self):
        space = enumerate_capacities(AB, GRID3)
        for x, y in itertools.product(space.capacities, repeat=2):
            assert space.index_of(meet(x, y)) >= 0
            assert space.index_of(join(x, y)) >= 0

    def test_index_of_rejects_outsiders(self):
        space = enumerate_capacities(AB, (0, 1))
        outsider = FiniteCapacity(AB, [F(0), F(1, 2), F(1, 2), F(1)])
        with pytest.raises(ValueError):
            space.index_of(outsider)
        # The same on a hand-built space whose grid is out of order.
        space = GridCapacitySpace(AB, (1, F(1, 2), 0), enumerate_capacities(AB, GRID3).capacities)
        with pytest.raises(ValueError, match="not a member of this space"):
            space.index_of(FiniteCapacity(AB, [F(0), F(1, 3), F(1, 2), F(1)]))

    def test_index_of_rejects_a_capacity_on_another_domain(self):
        # top on {x, y} has the ranks of top on {a, b}, but is no member.
        space = enumerate_capacities(AB, (0, 1))
        assert space.index_of(top_capacity(AB)) == 3
        with pytest.raises(ValueError, match="not a member of this space"):
            space.index_of(top_capacity(Domain(("x", "y"))))
        with pytest.raises(ValueError, match="not a member of this space"):
            space.index_of(top_capacity(Domain(("b", "a"))))

    def test_index_of_a_repeated_member_is_its_first_position(self):
        top, bottom = top_capacity(AB), bottom_capacity(AB)
        space = GridCapacitySpace(AB, (F(0), F(1)), (top, bottom, top))
        assert space.index_of(top) == space.capacities.index(top) == 0
        assert space.index_of(bottom) == 1

    def test_member_on_another_domain_rejected(self):
        members = (top_capacity(AB), bottom_capacity(AB), top_capacity(ABC),
                   top_capacity(Domain(("x", "y"))))
        with pytest.raises(DomainMismatch, match=r"^member 2 lives on \['a', 'b', 'c'\]"):
            GridCapacitySpace(AB, (F(0), F(1)), members)
        with pytest.raises(DomainMismatch, match="^member 0 lives on"):
            GridCapacitySpace(ABC, (F(0), F(1)), members)

    def test_off_grid_member_rejected(self):
        # 1/2 is off the grid (0, 1), however the grid is written.
        half = FiniteCapacity(AB, [F(0), F(1, 2), F(0), F(1)])
        with pytest.raises(ValueError, match="member 0 has value 1/2"):
            GridCapacitySpace(AB, (F(0), F(1)), (half, dirac_capacity(AB, "a")))
        with pytest.raises(ValueError, match="^member 1 has value 1/2, which is off the grid$"):
            GridCapacitySpace(AB, (1, 0), (dirac_capacity(AB, "a"), half))

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            enumerate_capacities(AB, (0, F(1, 2)))
        with pytest.raises(ValueError):
            enumerate_capacities(AB, (F(1, 2), 1))
        with pytest.raises(RangeError):
            enumerate_capacities(AB, (0, 1, F(3, 2)))

    @pytest.mark.parametrize("grid", [(0, 0.1, 1), (False, True), ("0", "1/3", "1")])
    def test_grid_values_are_fractions_or_ints(self, grid):
        # A float, a bool or a string is refused, as a capacity value is.
        with pytest.raises(TypeError, match="grid value"):
            enumerate_capacities(AB, grid)

    def test_budgets(self):
        # The member count is the only bound: neither the domain size
        # nor the grid length refuses a space inside it.
        assert len(enumerate_capacities(letters(5), (0, 1))) == 7579
        assert len(enumerate_capacities(AB, [F(k, 5) for k in range(6)])) == 36
        one_point = enumerate_capacities(Domain(("a",)), [F(k, 10000) for k in range(10001)])
        assert len(one_point) == 1
        assert one_point.capacities[0].values == (F(0), F(1))

    @pytest.mark.parametrize("domain, grid", [
        (AB, [F(k, 100) for k in range(101)]),
        (letters(20), (0, 1)),
    ], ids=["2-points-101-values", "20-points-0-1"])
    @pytest.mark.usefixtures("cold_grid_spaces")
    def test_singleton_choices_over_the_budget_are_refused_before_the_fill(
            self, domain, grid, monkeypatch):
        # 101^2 and 2^20 singleton choices: refused before the fill order
        # (2^20 subsets on 20 points) is built.
        def no_fill_order(domain):
            raise AssertionError("fill order built")

        monkeypatch.setattr(capacity, "_monotone_fill_order", no_fill_order)
        with pytest.raises(BudgetExceeded, match=(
                f"^{domain.size} points with {len(grid)} grid values give more "
                "than 10000 capacities, the exhaustive budget$")):
            enumerate_capacities(domain, grid)

    def test_member_budget_admits_the_four_point_three_value_space(self):
        assert len(enumerate_capacities(letters(4), GRID3)) == 7246

    def test_member_budget_stops_before_building_the_space(self):
        # 1,753,909 members; the budget stops the enumeration at 10,000.
        start = time.perf_counter()
        with pytest.raises(BudgetExceeded, match="more than 10000 capacities"):
            enumerate_capacities(letters(4), (0, F(1, 4), F(1, 2), F(3, 4), 1))
        assert time.perf_counter() - start < 30


class TestIntervals:
    def test_corners_are_meet_and_join(self):
        x = FiniteCapacity(AB, [F(0), F(1, 2), F(0), F(1)])
        y = FiniteCapacity(AB, [F(0), F(0), F(1, 2), F(1)])
        iv = interval(x, y)
        assert iv.lower == meet(x, y)
        assert iv.upper == join(x, y)
        assert iv.lower.values == (F(0), F(0), F(0), F(1))
        assert iv.upper.values == (F(0), F(1, 2), F(1, 2), F(1))

    def test_membership_matches_pointwise_comparison(self):
        space = enumerate_capacities(AB, GRID3)
        for x, y in itertools.combinations(space.capacities, 2):
            iv = interval(x, y)
            for z in space.capacities:
                want = iv.lower <= z and z <= iv.upper
                assert interval_membership(iv, z) == want

    def test_endpoints_belong(self):
        space = enumerate_capacities(AB, GRID3)
        for x, y in itertools.combinations(space.capacities, 2):
            iv = interval(x, y)
            assert interval_membership(iv, x)
            assert interval_membership(iv, y)

    def test_bottom_top_interval_holds_everything(self):
        space = enumerate_capacities(ABC, GRID3)
        iv = interval(bottom_capacity(ABC), top_capacity(ABC))
        assert all(interval_membership(iv, z) for z in space.capacities)

    def test_dirac_interval_excludes_the_other_dirac(self):
        iv = interval(dirac_capacity(AB, "a"), dirac_capacity(AB, "a"))
        assert not interval_membership(iv, dirac_capacity(AB, "b"))

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            interval(top_capacity(AB), top_capacity(ABC))


def break_up_sets(monkeypatch, mutation):
    """Patch convexity._cube_counts so that the up-sets it reads cube
    tops and their sizes from are shifted by one member or reversed."""
    cube_counts = convexity._cube_counts

    def broken(ups, downs, covers, m, full_family):
        moved = ups[1:] + ups[:1] if mutation == "shifted" else ups[::-1]
        return cube_counts(moved, downs, covers, m, full_family)

    monkeypatch.setattr(convexity, "_cube_counts", broken)


def brute_force_binarity(space):
    """Reference triple scan over the distinct corner boxes."""
    boxes = set()
    caps = space.capacities
    for x, y in itertools.product(caps, repeat=2):
        boxes.add((meet(x, y).values, join(x, y).values))
    boxes = sorted(boxes)

    def linked(b1, b2):
        return all(max(l1, l2) <= min(h1, h2)
                   for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]))

    linked_pairs = 0
    triples = 0
    bad = []
    for i, j in itertools.combinations(range(len(boxes)), 2):
        if not linked(boxes[i], boxes[j]):
            continue
        linked_pairs += 1
        for k in range(j + 1, len(boxes)):
            if not (linked(boxes[i], boxes[k]) and linked(boxes[j], boxes[k])):
                continue
            triples += 1
            lo = tuple(max(a, b, c) for a, b, c in
                       zip(boxes[i][0], boxes[j][0], boxes[k][0]))
            hi = tuple(min(a, b, c) for a, b, c in
                       zip(boxes[i][1], boxes[j][1], boxes[k][1]))
            if any(l > h for l, h in zip(lo, hi)):
                bad.append((i, j, k))
    return len(boxes), linked_pairs, triples, bad


class TestBinarity:
    def test_two_point_zero_one_space(self):
        space = enumerate_capacities(AB, (0, 1))
        report = check_binarity(space)
        n_boxes, pairs, triples, bad = brute_force_binarity(space)
        assert report.passed
        assert report.interval_count == n_boxes == 9
        assert report.linked_pairs == pairs
        assert report.triples_checked == triples
        assert bad == []

    def test_two_point_three_value_space(self):
        space = enumerate_capacities(AB, GRID3)
        report = check_binarity(space)
        n_boxes, pairs, triples, bad = brute_force_binarity(space)
        assert report.passed
        assert (report.interval_count, report.linked_pairs,
                report.triples_checked) == (n_boxes, pairs, triples)
        assert (n_boxes, pairs, triples) == (36, 320, 1408)
        assert bad == []

    def test_hand_built_sublattice(self):
        # The capacities with mu({a}) <= 1/2: closed under max and min.
        full = enumerate_capacities(AB, GRID3)
        a = AB.mask_of(("a",))
        space = GridCapacitySpace(AB, full.grid, tuple(
            c for c in full.capacities if c.values[a] <= F(1, 2)))
        report = check_binarity(space)
        n_boxes, pairs, triples, bad = brute_force_binarity(space)
        assert report.passed
        assert report.capacity_count == 6
        assert (report.interval_count, report.linked_pairs,
                report.triples_checked) == (n_boxes, pairs, triples)
        assert (n_boxes, pairs, triples) == (18, 82, 170)
        assert bad == []

    def test_space_that_is_not_a_lattice_is_rejected(self):
        # dirac_a and dirac_b join to top, which is not in the space.
        space = GridCapacitySpace(AB, (F(0), F(1)), (
            dirac_capacity(AB, "a"), dirac_capacity(AB, "b")))
        with pytest.raises(AssertionError, match="closure broken"):
            check_binarity(space)

    def test_space_closed_under_max_but_not_min_is_rejected(self):
        # dirac_a and dirac_b join to top, in the space, but meet to
        # bottom, which is not.
        space = GridCapacitySpace(AB, (F(0), F(1)), (
            dirac_capacity(AB, "a"), dirac_capacity(AB, "b"), top_capacity(AB)))
        with pytest.raises(AssertionError, match="pointwise minimum .* closure broken"):
            check_binarity(space)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_a_dropped_member_breaks_closure(self, data):
        domain, grid = data.draw(st.sampled_from(
            [(ABC, GRID3), (ABC, (0, 1)), (AB, (0, F(1, 4), F(1, 2), F(3, 4), 1))]))
        full = enumerate_capacities(domain, grid)
        drawn = data.draw(st.lists(st.sampled_from(full._ranks), min_size=2, max_size=4))
        rows = closure(drawn)
        if len(rows) > 1 and data.draw(st.booleans()):
            del rows[data.draw(st.integers(0, len(rows) - 1))]
        space = GridCapacitySpace(domain, full.grid, tuple(
            c for c, r in zip(full.capacities, full._ranks) if r in rows))
        if closure(rows) != rows:
            with pytest.raises(AssertionError, match="closure broken"):
                check_binarity(space)
            return
        fast, slow = check_binarity(space), bigint_binarity_scan(space)
        assert (fast.capacity_count, fast.interval_count, fast.linked_pairs,
                fast.triples_checked, fast.failures) == (
                    slow.capacity_count, slow.interval_count, slow.linked_pairs,
                    slow.triples_checked, slow.failures)

    def test_an_antichain_is_refused_in_little_memory(self):
        # The members of the 4-point {0, 1/2, 1} space whose rank rows have
        # the most common sum: an antichain, so its 620 intervals are inside
        # the budget, and the pointwise max of any two members has a larger
        # sum. n x n x width op rows would take about 100 MiB.
        full = enumerate_capacities(letters(4), GRID3)
        total, count = Counter(map(sum, full._ranks)).most_common(1)[0]
        space = GridCapacitySpace(full.domain, full.grid, tuple(
            c for c, r in zip(full.capacities, full._ranks) if sum(r) == total))
        assert len(space) == count == 620
        tracemalloc.start()
        try:
            with pytest.raises(AssertionError, match="pointwise maximum .* closure broken"):
                check_binarity(space)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_report_shape(self):
        space = enumerate_capacities(AB, (0, 1))
        report = check_binarity(space)
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["capacities"] == 4
        assert payload["failures"] == []
        assert payload["full_family_sets"] is None
        assert payload["seconds"] >= 0

    def test_full_family_scan(self):
        space = enumerate_capacities(AB, (0, 1))
        report = check_binarity(space, full_family=True)
        assert report.passed
        assert report.full_family_sets == 40

    def test_full_family_cap(self):
        space = enumerate_capacities(AB, GRID3)
        with pytest.raises(BudgetExceeded, match="binarity scan"):
            check_binarity(space, full_family=True)

    def test_interval_budget(self, monkeypatch):
        space = enumerate_capacities(AB, GRID3)
        monkeypatch.setattr(convexity, "INTERVAL_BUDGET", 10)
        with pytest.raises(BudgetExceeded, match="budget 10"):
            check_binarity(space)
        with pytest.raises(BudgetExceeded, match="budget 10"):
            bigint_binarity_scan(space)


    def test_full_three_point_counts(self):
        # 3,965 intervals from 1,153 cubes of dimension up to 6.
        report = check_binarity(enumerate_capacities(ABC, GRID3))
        assert report.passed
        assert (report.capacity_count, report.interval_count, report.linked_pairs,
                report.triples_checked) == (129, 3965, 2_785_270, 921_277_916)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_packed_scan_matches_the_bigint_reference(self, data):
        # An order interval [meet(x, y), join(x, y)] of a space is a sublattice.
        domain, grid = data.draw(st.sampled_from([(AB, GRID3), (ABC, GRID3), (ABC, (0, 1))]))
        full = enumerate_capacities(domain, grid)
        x, y = data.draw(st.lists(st.sampled_from(full.capacities), min_size=2, max_size=2))
        lo, hi = meet(x, y), join(x, y)
        space = GridCapacitySpace(full.domain, full.grid, tuple(
            c for c in full.capacities if lo <= c and c <= hi))
        fast, slow = check_binarity(space), bigint_binarity_scan(space)
        assert (fast.capacity_count, fast.interval_count, fast.linked_pairs,
                fast.triples_checked) == (slow.capacity_count, slow.interval_count,
                                          slow.linked_pairs, slow.triples_checked)
        assert fast.failures == slow.failures == ()
        if fast.interval_count <= convexity.FULL_FAMILY_CAP:
            fast = check_binarity(space, full_family=True)
            slow = bigint_binarity_scan(space, full_family=True)
            assert fast.full_family_sets == slow.full_family_sets
            assert fast.failures == slow.failures == ()

    def test_empty_space_passes_with_zero_counts(self):
        space = GridCapacitySpace(AB, (F(0), F(1)), ())
        for full_family, sets in ((False, None), (True, 0)):
            report = check_binarity(space, full_family=full_family)
            assert report.passed
            assert (report.capacity_count, report.interval_count, report.linked_pairs,
                    report.triples_checked, report.failures,
                    report.full_family_sets) == (0, 0, 0, 0, (), sets)
        assert check_t2(space).passed


def closure(rows: list[bytes]) -> list[bytes]:
    """The rows closed under pointwise max and min, sorted, each row of
    the type of the rows it came from."""
    found = set(rows)
    while True:
        more = {type(x)(op(x, y)) for x in found for y in found for op in (
            lambda x, y: map(max, x, y), lambda x, y: map(min, x, y))} - found
        if not more:
            return sorted(found)
        found |= more


class TestSeparatingHalves:
    # The midpoints of the grids {0, 1/2, 1} and {0, 1/3, 2/3, 1}. A
    # 1-point domain holds one capacity, so no pair and no witness.
    @pytest.mark.parametrize("grid", [GRID3, (F(0), F(1, 3), F(2, 3), F(1))],
                             ids=["halves", "thirds"])
    @pytest.mark.parametrize("size", [2, 3, 4])
    def test_corners_are_the_gates_top_and_bottom(self, size, grid):
        # The four corners are built as one batch; each must equal the
        # table built on its own, so a batch that mixed them up would
        # fail here even where check_t2 and the pairwise scan agree.
        domain = letters(size)
        top, bottom = top_capacity(domain), bottom_capacity(domain)
        # Bottom and top first differ on {a}, halfway.
        assert separating_halves(bottom, top) == convexity._halves(domain, 1, F(1, 2))
        sets = [set(domain.labels_of(mask)) for mask in range(domain.subset_count)]
        midpoints = sorted({(x + y) / 2 for x, y in itertools.combinations(grid, 2)})
        for witness, a in itertools.product(range(1, domain.full_mask), midpoints):
            up, lo = convexity._halves(domain, witness, a)
            w = sets[witness]
            # The least capacity with value a on the witness, and the
            # greatest.
            upper_gate = FiniteCapacity(domain, [
                1 if s == sets[-1] else a if s >= w else 0 for s in sets])
            lower_gate = FiniteCapacity(domain, [
                0 if not s else a if s <= w else 1 for s in sets])
            assert (up.first, up.second, up.lower, up.upper) == (
                upper_gate, top, upper_gate, top)
            assert (lo.first, lo.second, lo.lower, lo.upper) == (
                bottom, lower_gate, bottom, lower_gate)

    def test_dirac_pair(self):
        da, db = dirac_capacity(AB, "a"), dirac_capacity(AB, "b")
        up, lo = separating_halves(da, db)
        assert interval_membership(up, da)
        assert not interval_membership(up, db)
        assert interval_membership(lo, db)
        assert not interval_membership(lo, da)

    def test_argument_order_is_irrelevant(self):
        x = dirac_capacity(AB, "a")
        y = top_capacity(AB)
        assert separating_halves(x, y) == separating_halves(y, x)

    def test_equal_inputs_rejected(self):
        with pytest.raises(EqualCapacities):
            separating_halves(top_capacity(AB), top_capacity(AB))

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            separating_halves(top_capacity(AB), top_capacity(ABC))

    def test_membership_is_the_witness_threshold_test(self):
        space = enumerate_capacities(AB, GRID3)
        for x, y in itertools.combinations(space.capacities, 2):
            up, lo = separating_halves(x, y)
            w = next(m for m in range(AB.subset_count)
                     if x.values[m] != y.values[m])
            a = (x.values[w] + y.values[w]) / 2
            for z in space.capacities:
                assert interval_membership(up, z) == (z.values[w] >= a)
                assert interval_membership(lo, z) == (z.values[w] <= a)
                assert interval_membership(up, z) or interval_membership(lo, z)

    def test_each_half_excludes_its_capacity(self):
        space = enumerate_capacities(AB, GRID3)
        for x, y in itertools.combinations(space.capacities, 2):
            up, lo = separating_halves(x, y)
            w = next(m for m in range(AB.subset_count)
                     if x.values[m] != y.values[m])
            smaller, larger = (x, y) if x.values[w] < y.values[w] else (y, x)
            assert not interval_membership(up, smaller)
            assert interval_membership(up, larger)
            assert not interval_membership(lo, larger)
            assert interval_membership(lo, smaller)


class TestCheckT2:
    def test_passes_on_two_point_spaces(self):
        for grid in ((0, 1), GRID3):
            space = enumerate_capacities(AB, grid)
            report = check_t2(space)
            n = len(space)
            assert report.passed
            assert report.pairs_checked == n * (n - 1) // 2
            assert report.capacity_count == n

    def test_passes_on_the_three_point_space(self):
        space = enumerate_capacities(ABC, GRID3)
        report = check_t2(space)
        assert report.passed
        assert report.pairs_checked == 129 * 128 // 2

    def test_passes_on_the_four_point_zero_one_space(self):
        report = check_t2(enumerate_capacities(letters(4), (0, 1)))
        assert report.passed
        assert report.pairs_checked == 166 * 165 // 2

    def test_report_shape(self):
        report = check_t2(enumerate_capacities(AB, (0, 1)))
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["failures"] == []
        assert payload["pairs_checked"] == 6

    @pytest.mark.parametrize("count", [0, 1])
    def test_spaces_without_pairs_pass(self, count):
        space = GridCapacitySpace(AB, GRID3, (top_capacity(AB),) * count)
        report = check_t2(space)
        assert report.passed
        assert report.pairs_checked == 0
        assert report.capacity_count == count

    def test_repeated_member_rejected(self):
        x, y = dirac_capacity(AB, "a"), top_capacity(AB)
        with pytest.raises(EqualCapacities):
            check_t2(GridCapacitySpace(AB, GRID3, (x, y, x)))

    # Subsets of up to 40 members: the pairwise reference takes about
    # half a millisecond a pair, 4 s on the whole 3-point space.
    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_matches_the_pairwise_reference_on_subsets(self, data):
        domain, grid = data.draw(st.sampled_from([(ABC, GRID3), (letters(4), (0, 1))]))
        full = enumerate_capacities(domain, grid)
        count = data.draw(st.integers(0, 40))
        keep = sorted(data.draw(st.permutations(range(len(full))))[:count])
        space = GridCapacitySpace(domain, full.grid, tuple(full.capacities[k] for k in keep))
        fast, slow = check_t2(space), pairwise_t2_scan(space)
        assert fast.capacity_count == slow.capacity_count == count
        assert fast.pairs_checked == slow.pairs_checked == count * (count - 1) // 2
        assert fast.failures == slow.failures == ()

    @pytest.mark.parametrize("mutation, message", [
        ("midpoint moved one step", "endpoint not excluded"),
        ("halves swapped", "endpoint not excluded from upper half"),
        ("gap between halves", "halves do not cover the space"),
    ])
    def test_broken_halves_fail_alike_in_both_scans(self, monkeypatch, mutation, message):
        # Each broken construction is still a function of (witness, midpoint),
        # so the keyed scan must report exactly the pairwise scan's failures:
        # on the 2-point space, and on drawn subsets of the 3-point space,
        # whose pairs agree on several subsets before their witness.
        three = enumerate_capacities(ABC, GRID3)
        spaces = [enumerate_capacities(AB, GRID3)] + [
            GridCapacitySpace(ABC, three.grid, tuple(
                three.capacities[k] for k in sorted(random.Random(count).sample(
                    range(len(three)), count))))
            for count in (12, 25, 40)]
        halves, step = convexity._halves, Fraction(1, _scale_of(GRID3))

        def broken(domain, witness, a):
            if mutation == "midpoint moved one step":
                return halves(domain, witness, a + step if a + step < 1 else a - step)
            if mutation == "halves swapped":
                return halves(domain, witness, a)[::-1]
            return (halves(domain, witness, min(a + 2 * step, F(1)))[0],
                    halves(domain, witness, a)[1])

        monkeypatch.setattr(convexity, "_halves", broken)
        for space in spaces:
            fast, slow = check_t2(space), pairwise_t2_scan(space)
            assert fast.failures == slow.failures
            assert any(message in text for _, _, text in fast.failures)


class TestHandBuiltGrids:
    """Spaces built by hand on a grid given out of order, with ints and
    Fractions mixed or with a value no member takes: the scans run on
    ranks into the sorted distinct grid, and must report what the
    scaled-value references report."""

    @pytest.mark.parametrize("grid", [(1, F(1, 2), 0), (F(1, 2), 1, F(1, 4), 0, F(1, 2))])
    @pytest.mark.parametrize("domain, sublattice", [(AB, False), (ABC, True)])
    def test_scans_match_the_scaled_references(self, grid, domain, sublattice):
        # With mu({a}) <= mu({b}) and mu({a, c}) = mu({b, c}) on three
        # points, the members are closed under max and min.
        full = enumerate_capacities(domain, GRID3)
        members = full.capacities
        if sublattice:
            a, b, c = (domain.mask_of((s,)) for s in ("a", "b", "c"))
            members = tuple(m for m in members if m.values[a] <= m.values[b]
                            and m.values[a | c] == m.values[b | c])
        space = GridCapacitySpace(domain, grid, members)
        fast, slow = check_binarity(space), bigint_binarity_scan(space)
        assert slow.triples_checked > 0
        assert (fast.capacity_count, fast.interval_count, fast.linked_pairs,
                fast.triples_checked, fast.failures) == (
                    slow.capacity_count, slow.interval_count, slow.linked_pairs,
                    slow.triples_checked, slow.failures)
        fast, slow = check_t2(space), pairwise_t2_scan(space)
        assert (fast.pairs_checked, fast.failures) == (slow.pairs_checked, slow.failures)
        assert fast.pairs_checked == len(members) * (len(members) - 1) // 2
        assert [space.index_of(m) for m in members] == list(range(len(members)))

    @pytest.mark.parametrize("grid", [(1, F(1, 2), 0), (F(1, 2), 1, F(1, 4), 0, F(1, 2))])
    def test_members_from_every_constructor_match_the_value_ranks(self, grid):
        # Members of several batches, from __init__, and marginals of
        # products whose factor has an unused level off the grid (1/97),
        # with repeats: the rows, levels and positions of ranking the
        # values, and of index_of, whatever rank tables the members keep.
        full = enumerate_capacities(ABC, GRID3)
        xy = Domain(("x", "y"))
        right = enumerate_capacities(xy, GRID3).capacities[4]
        product = product_domain([ABC, xy])
        members = (
            *full.capacities[::9],
            *(FiniteCapacity(ABC, cap.values) for cap in full.capacities[100::7]),
            *capacity._possibilities(ABC, [1, 6, 7]),
            *(marginal(tensor2(with_foreign_levels(cap), right), product, 0)
              for cap in full.capacities[50:60]),
            with_foreign_levels(full.capacities[3]),
            marginal(tensor2(right, with_foreign_levels(full.capacities[70])),
                     product_domain([xy, ABC]), 1),
            full.capacities[0], top_capacity(ABC),
        )
        assert any(F(1, 97) in cap._levels for cap in members)
        space = GridCapacitySpace(ABC, grid, members)
        levels, rows, pos = value_ranked_space(grid, members)
        assert (space._levels, space._ranks, space._pos) == (levels, rows, pos)
        outsiders = (FiniteCapacity(ABC, [0, F(1, 3), 0, 1, 0, 1, 1, 1]),
                     with_foreign_levels(top_capacity(AB)), *full.capacities[1:20])
        for cap in members + outsiders:
            try:
                got = space.index_of(cap)
            except ValueError as exc:
                assert str(exc) == "capacity is not a member of this space"
                got = None
            assert got == value_ranked_index(ABC, levels, pos, cap)
        # The first member off the grid names its first value off it.
        off = (*members[:5], outsiders[0],
               FiniteCapacity(ABC, [0, F(2, 3), F(1, 3), 1, 0, 1, 1, 1]), *members[5:])
        with pytest.raises(ValueError) as expected:
            value_ranked_space(grid, off)
        assert str(expected.value) == "member 5 has value 1/3, which is off the grid"
        with pytest.raises(ValueError) as got:
            GridCapacitySpace(ABC, grid, off)
        assert str(got.value) == str(expected.value)

    def test_ranks_past_the_byte_fields(self):
        # A 2-point space on a grid of 300 values, whose members take the
        # ranks 0, 130, 260 and 299 on each point: past 127 and 255, so the
        # packed rank rows need fields wider than a byte.
        grid = tuple(Fraction(k, 299) for k in range(300))
        members = tuple(FiniteCapacity(AB, (grid[0], grid[x], grid[y], grid[-1]))
                        for x in (0, 130, 260, 299) for y in (0, 130, 260, 299))
        space = GridCapacitySpace(AB, grid, members)
        assert max(max(row) for row in space._ranks) == 299
        fast, slow = check_binarity(space), bigint_binarity_scan(space)
        assert (fast.interval_count, fast.linked_pairs, fast.triples_checked,
                fast.failures) == (slow.interval_count, slow.linked_pairs,
                                   slow.triples_checked, slow.failures)
        assert fast.interval_count == 100
        fast, slow = check_t2(space), pairwise_t2_scan(space)
        assert (fast.pairs_checked, fast.failures) == (slow.pairs_checked, slow.failures)
        assert fast.pairs_checked == 16 * 15 // 2


class TestCubeCounts:
    """check_binarity counts a lattice's linked pairs, triples and
    families as signed sums over its cubes."""

    SPACES = [(AB, (0, 1), 9, 20, 16), (AB, GRID3, 36, 320, 1408),
              (ABC, (0, 1), 129, 4282, 78728), (ABC, GRID3, 3965, 2_785_270, 921_277_916)]

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_closed_sublattices_that_are_not_intervals(self, data):
        domain, grid = data.draw(st.sampled_from(
            [(ABC, GRID3), (ABC, (0, 1)), (AB, (0, F(1, 4), F(1, 2), F(3, 4), 1))]))
        full = enumerate_capacities(domain, grid)
        drawn = data.draw(st.lists(st.sampled_from(full._ranks), min_size=2, max_size=4))
        rows = set(closure(drawn))
        lo, hi = min(rows), max(rows)
        assume(rows != {r for r in full._ranks
                        if all(a <= b <= c for a, b, c in zip(lo, r, hi))})
        space = GridCapacitySpace(domain, full.grid, tuple(
            c for c, r in zip(full.capacities, full._ranks) if r in rows))
        fast, slow = check_binarity(space), bigint_binarity_scan(space)
        assert (fast.capacity_count, fast.interval_count, fast.linked_pairs,
                fast.triples_checked, fast.failures) == (
                    slow.capacity_count, slow.interval_count, slow.linked_pairs,
                    slow.triples_checked, slow.failures)
        if fast.interval_count <= convexity.FULL_FAMILY_CAP:
            fast = check_binarity(space, full_family=True)
            slow = bigint_binarity_scan(space, full_family=True)
            assert (fast.full_family_sets, fast.failures) == (
                slow.full_family_sets, slow.failures)

    @pytest.mark.parametrize("domain, grid, intervals, pairs, triples", SPACES)
    def test_enumerated_spaces_take_the_cube_path(self, domain, grid,
                                                  intervals, pairs, triples):
        report = check_binarity(enumerate_capacities(domain, grid))
        assert (report.interval_count, report.linked_pairs, report.triples_checked,
                report.failures) == (intervals, pairs, triples, ())

    def test_four_point_zero_one_counts(self):
        # Counts found by a walk over the linked pairs, which takes seconds here.
        report = check_binarity(enumerate_capacities(letters(4), (0, 1)))
        assert (report.capacity_count, report.interval_count, report.linked_pairs,
                report.triples_checked) == (166, 7246, 10_651_368, 7_742_938_478)

    def test_full_family_and_broken_tables_take_the_pair_walk(self, monkeypatch):
        report = check_binarity(enumerate_capacities(AB, (0, 1)), full_family=True)
        assert (report.linked_pairs, report.triples_checked,
                report.full_family_sets, report.failures) == (20, 16, 40, ())
        # Up-sets that misplace cube tops break the interval sum.
        for mutation in ("shifted", "reversed"):
            for domain, grid, intervals, _, _ in self.SPACES:
                with monkeypatch.context() as patch:
                    break_up_sets(patch, mutation)
                    with pytest.raises(AssertionError,
                                       match=f"not {intervals}; covers or joins broken"):
                        check_binarity(enumerate_capacities(domain, grid))

    @pytest.mark.parametrize("domain, grid, intervals, pairs, triples", SPACES)
    @pytest.mark.parametrize("which", [0, -1])
    def test_a_dropped_cover_trips_the_interval_sum(self, monkeypatch, which, domain,
                                                    grid, intervals, pairs, triples):
        upper_covers = convexity._upper_covers

        def dropped(ups):
            # The first cover of the first member with covers, or the
            # last cover of the last one.
            covers = upper_covers(ups)
            x = [x for x, found in enumerate(covers) if found][which]
            del covers[x][which]
            return covers

        monkeypatch.setattr(convexity, "_upper_covers", dropped)
        with pytest.raises(AssertionError, match=f"not {intervals}; covers or joins broken"):
            check_binarity(enumerate_capacities(domain, grid))
