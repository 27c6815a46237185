"""Product domains and the capacity tensor product."""

import copy
import itertools
import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from capgames import (
    DENSE_DOMAIN_CAP,
    CapacityBase,
    Domain,
    DomainMismatch,
    FiniteCapacity,
    ProductDomain,
    ProductTooLarge,
    associativity_probe,
    bottom_capacity,
    dirac_capacity,
    LazyTensorCapacity,
    lazy_tensor,
    marginal,
    materialize,
    possibility_capacity,
    probability_capacity,
    product_domain,
    tensor2,
    tensor_many,
    top_capacity,
    vanishes_outside,
)
from capgames import capacity, tensor
from capgames.tensor import PRODUCT_MEMO_ENTRIES
from capgames.generate import SplitMix64, random_capacity

from helpers import (
    FractionLazyTensor,
    counted_fraction_compares,
    dumb_tensor_value,
    fraction_tensor_many,
    letters,
    level_set_tensor2,
    loop_mask_of_box,
    on_levels,
    seeded_capacity,
    with_foreign_levels,
)

AB = Domain(("a", "b"))
XY = Domain(("x", "y"))
PQR = Domain(("p", "q", "r"))

F = Fraction


def uniform(domain: Domain):
    n = domain.size
    return probability_capacity(domain, {lab: F(1, n) for lab in domain.labels})


class TestProductDomain:
    def test_row_major_flat_labels(self):
        pd = product_domain([AB, XY])
        assert pd.flat.labels == ("a|x", "a|y", "b|x", "b|y")
        assert pd.sizes == (2, 2)
        assert pd.size == 4

    def test_flat_is_derived_not_given(self):
        pd = product_domain([AB, XY])
        with pytest.raises(TypeError):
            ProductDomain((AB, XY), pd.flat)
        assert pd == ProductDomain((AB, XY)) and hash(pd) == hash(ProductDomain((AB, XY)))

    def test_index_point_round_trip(self):
        pd = product_domain([AB, PQR])
        for idx in range(pd.size):
            assert pd.index_of(pd.point_at(idx)) == idx
        for point in itertools.product(AB.labels, PQR.labels):
            assert pd.point_at(pd.index_of(point)) == point

    def test_three_factor_labels(self):
        pd = product_domain([AB, XY, AB])
        assert pd.size == 8
        assert pd.flat.labels[0] == "a|x|a"
        assert pd.flat.labels[-1] == "b|y|b"

    def test_mask_of_box(self):
        pd = product_domain([AB, XY])
        assert pd.mask_of_box([0b01, 0b11]) == 0b0011
        assert pd.mask_of_box([0b10, 0b01]) == 0b0100
        assert pd.mask_of_box([0b11, 0b11]) == 0b1111
        assert pd.mask_of_box([0b00, 0b11]) == 0

    def test_mask_of_box_rejects_masks_outside_a_factor(self):
        pd = product_domain([AB, PQR])
        for masks, bad in (([0b111, 0b1111], 7), ([-1, 1], -1), ([0b11, 0b1000], 8)):
            with pytest.raises(ValueError, match=f"^mask {bad} out of range"):
                pd.mask_of_box(masks)

    @given(st.data())
    def test_mask_of_box_matches_the_point_loop(self, data):
        sizes = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        pd = product_domain([Domain(tuple(f"{chr(ord('a') + j)}{k}" for k in range(size)))
                             for j, size in enumerate(sizes)])
        masks = [data.draw(st.integers(0, (1 << size) - 1)) for size in sizes]
        assert pd.mask_of_box(masks) == loop_mask_of_box(pd, masks)

    def test_validation(self):
        with pytest.raises(ValueError):
            ProductDomain(())
        pd = product_domain([AB, XY])
        with pytest.raises(ValueError):
            pd.index_of(("a",))
        with pytest.raises(ValueError):
            pd.point_at(4)
        with pytest.raises(ValueError):
            pd.mask_of_box([0b11])


    def test_colliding_labels_name_the_points(self):
        # ("a|b", "c") and ("a", "b|c") both join to "a|b|c".
        with pytest.raises(ValueError, match=r"factor points \('a\|b', 'c'\) and "
                                             r"\('a', 'b\|c'\) join to the same "
                                             r"product label 'a\|b\|c'"):
            product_domain([Domain(("a|b", "a")), Domain(("b|c", "c"))])


@pytest.mark.usefixtures("cold_grid_spaces")
class TestSharedProductDomains:
    def test_equal_factor_tuples_give_one_object(self, monkeypatch):
        builds = []
        post_init = ProductDomain.__post_init__

        def counted(pd):
            builds.append(pd.factors)
            post_init(pd)

        monkeypatch.setattr(ProductDomain, "__post_init__", counted)
        pd = product_domain([AB, XY])
        assert product_domain((Domain(("a", "b")), Domain(["x", "y"]))) is pd
        others = [product_domain([XY, AB]), product_domain([AB, XY, AB]),
                  product_domain([AB, PQR]), product_domain([AB])]
        assert len({id(pd), *map(id, others)}) == 5
        # tensor2 and its caller share the product: one build each.
        assert tensor2(uniform(AB), uniform(XY)).domain is pd.flat
        assert len(builds) == 5
        # Equality, copies and pickles are those of the record.
        for twin in (ProductDomain((AB, XY)), copy.copy(pd), copy.deepcopy(pd),
                     pickle.loads(pickle.dumps(pd))):
            assert twin == pd and hash(twin) == hash(pd) and twin.flat == pd.flat

    def test_the_memo_stays_at_its_bound(self):
        for n in range(PRODUCT_MEMO_ENTRIES + 5):
            product_domain([AB, Domain((f"x{n}",))])
        assert tensor._product_domain.cache_info().currsize == PRODUCT_MEMO_ENTRIES

    def test_a_product_that_cannot_be_built_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="join to the same product label"):
                product_domain([Domain(("a|b", "a")), Domain(("b|c", "c"))])
            with pytest.raises(ValueError, match="at least one factor"):
                product_domain([])


def chain_capacity(size: int) -> FiniteCapacity:
    """The probability capacity whose value on mask m is m / (2^size - 1):
    2^size levels, bytes ranks up to 8 points, a tuple past them."""
    domain = letters(size)
    return probability_capacity(domain, {
        lab: F(2**k, 2**size - 1) for k, lab in enumerate(domain.labels)})


class TestKeptRankTables:
    """A product and its marginals keep the very rank table that was
    validated, in the type of their levels, checked once each."""

    @pytest.mark.parametrize("left, right", [
        (seeded_capacity(5, 3), seeded_capacity(6, 2)),
        (possibility_capacity(PQR, ["p", "r"]), dirac_capacity(XY, "y")),
        (chain_capacity(8), top_capacity(Domain(("x",)))),
        (top_capacity(Domain(("x",))), chain_capacity(9)),
    ], ids=["dense", "shared-levels", "256-levels", "512-levels"])
    def test_the_checked_table_is_kept(self, monkeypatch, left, right):
        expected = [level_set_tensor2(left, right), left, right]
        checked, batches = [], []
        cover, check = capacity._cover_violation, capacity._check_ranks

        def counted_cover(size, ranks, level_count):
            checked.append(ranks)
            return cover(size, ranks, level_count)

        def counted_check(domain, levels, unit, tables):
            batches.append(tables)
            check(domain, levels, unit, tables)

        monkeypatch.setattr(capacity, "_cover_violation", counted_cover)
        monkeypatch.setattr(capacity, "_check_ranks", counted_check)
        pd = product_domain([left.domain, right.domain])
        product = tensor2(left, right)
        built = [product, marginal(product, pd, 0), marginal(product, pd, 1)]
        assert len(batches) == len(checked) == 3
        for cap, table, reference in zip(built, checked, expected):
            assert cap._ranks is table
            assert type(table) is (bytes if len(cap._levels) <= 256 else tuple)
            assert cap == reference


class TestTensorExamples:
    def test_dirac_tensor_dirac_is_dirac_on_the_pair(self):
        out = tensor2(dirac_capacity(AB, "b"), dirac_capacity(XY, "x"))
        assert out == dirac_capacity(out.domain, "b|x")

    def test_possibility_product_law_exhaustive_two_by_two(self):
        pd = product_domain([AB, XY])
        supports1 = [("a",), ("b",), ("a", "b")]
        supports2 = [("x",), ("y",), ("x", "y")]
        for s1, s2 in itertools.product(supports1, supports2):
            out = tensor2(possibility_capacity(AB, s1),
                          possibility_capacity(XY, s2))
            box = [f"{p}|{q}" for p in s1 for q in s2]
            assert out == possibility_capacity(pd.flat, box)

    def test_uniform_pair_diagonal_point_gets_one_half(self):
        # The additive product measure would give this singleton 1/4;
        # the tensor product is not additive.
        out = tensor2(uniform(AB), uniform(XY))
        assert out.value(("a|x",)) == F(1, 2)
        prob = probability_capacity(
            out.domain, {lab: F(1, 4) for lab in out.domain.labels}
        )
        assert prob.value(("a|x",)) == F(1, 4)

    def test_top_and_bottom_are_absorbed(self):
        assert tensor2(top_capacity(AB), top_capacity(XY)) == top_capacity(
            product_domain([AB, XY]).flat
        )
        assert tensor2(bottom_capacity(AB), bottom_capacity(XY)) == bottom_capacity(
            product_domain([AB, XY]).flat
        )

    def test_dense_cap_enforced(self):
        d5 = letters(5)
        with pytest.raises(ProductTooLarge):
            tensor2(seeded_capacity(1, 5), seeded_capacity(2, 5))
        assert d5.size * d5.size > DENSE_DOMAIN_CAP


class TestTensorAgainstReference:
    @given(seed=st.integers(0, 2**32))
    def test_two_by_two_all_masks(self, seed):
        left = seeded_capacity(seed, 2)
        right = seeded_capacity(seed ^ 0xABCD, 2)
        out = tensor2(left, right)
        for mask in range(out.domain.subset_count):
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)

    @given(seed=st.integers(0, 2**32))
    def test_two_by_three_all_masks(self, seed):
        left = seeded_capacity(seed, 2)
        right = seeded_capacity(seed + 99, 3)
        out = tensor2(left, right)
        for mask in range(out.domain.subset_count):
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)

    def test_three_by_three_spot_check(self):
        left = seeded_capacity(5, 3)
        right = seeded_capacity(6, 3)
        out = tensor2(left, right)
        rng = SplitMix64(7)
        for _ in range(60):
            mask = rng.below(out.domain.subset_count)
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)


# Factor sizes (left, right) of the rank-kernel tests, up to 3x4, 4x3,
# 5x2 and 6x1.
KERNEL_SIZES = ((1, 1), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4),
                (4, 2), (2, 5), (5, 2), (3, 4), (4, 3), (4, 1), (6, 1))
# Grid denominators: 6 and 8 put values of the two factors between each
# other in the sorted level list.
DENOMINATORS = (2, 3, 6, 8)


def right_letters(count: int) -> Domain:
    return Domain(tuple(f"p{k}" for k in range(count)))


@st.composite
def kernel_factors(draw, domain: Domain):
    """A capacity on `domain`: vacuous, top, a dirac, a possibility, a
    grid capacity whose values the other factor may share, or a lazy
    tensor of two such grid capacities."""
    kind = draw(st.sampled_from(
        ("vacuous", "top", "dirac", "possibility", "grid", "lazy")))
    labels = domain.labels
    if kind == "vacuous":
        return bottom_capacity(domain)
    if kind == "top":
        return top_capacity(domain)
    if kind == "dirac":
        return dirac_capacity(domain, draw(st.sampled_from(labels)))
    if kind == "possibility":
        return possibility_capacity(
            domain, draw(st.sets(st.sampled_from(labels), min_size=1)))
    # Small shared denominators tie values across the two factors.
    rng = SplitMix64(draw(st.integers(0, 2**32)))
    denominator = draw(st.sampled_from((2, 3, 4)))
    if kind == "grid":
        return random_capacity(domain, rng, denominator)
    # A lazy factor of the same size, 1 x n or 2 x n/2 points.
    first = 2 if domain.size % 2 == 0 else 1
    return lazy_tensor([random_capacity(letters(first), rng, denominator),
                        random_capacity(Domain(tuple(f"{lab}'" for lab in
                                                     labels[:domain.size // first])),
                                        rng, denominator)])


class TestRankKernel:
    @settings(max_examples=25)
    @given(sizes=st.sampled_from(KERNEL_SIZES), seed=st.integers(0, 2**32),
           left_denominator=st.sampled_from(DENOMINATORS),
           right_denominator=st.sampled_from(DENOMINATORS))
    def test_matches_the_defining_sup_on_every_mask(
            self, sizes, seed, left_denominator, right_denominator):
        rng = SplitMix64(seed)
        left = random_capacity(letters(sizes[0]), rng, left_denominator)
        right = random_capacity(right_letters(sizes[1]), rng, right_denominator)
        out = tensor2(left, right)
        for mask in range(out.domain.subset_count):
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)

    @pytest.mark.parametrize("sizes, seed", [((3, 4), 1), ((4, 3), 1), ((5, 2), 8)])
    def test_interleaved_levels_on_every_mask(self, sizes, seed):
        rng = SplitMix64(seed)
        left = random_capacity(letters(sizes[0]), rng, 6)
        right = random_capacity(right_letters(sizes[1]), rng, 8)
        # Some level of each factor lies strictly between two of the other's.
        inner = [set(c.values) - {0, 1} for c in (left, right)]
        assert any(min(inner[1]) < v < max(inner[1]) for v in inner[0] - inner[1])
        assert any(min(inner[0]) < v < max(inner[0]) for v in inner[1] - inner[0])
        out = tensor2(left, right)
        for mask in range(out.domain.subset_count):
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)

    def test_lazy_factors_have_no_table(self):
        rng = SplitMix64(17)
        left = random_capacity(letters(2), rng, 6)
        lazy = lazy_tensor([random_capacity(Domain(("x", "y")), rng, 8),
                            random_capacity(Domain(("u", "v")), rng, 3)])
        assert not hasattr(lazy, "values")
        out = tensor2(left, lazy)
        assert out == tensor2(left, materialize(lazy))
        for mask in range(out.domain.subset_count):
            assert out.value_mask(mask) == dumb_tensor_value(left, lazy, mask)
        assert tensor2(lazy, left) == tensor2(materialize(lazy), left)

    @given(sizes=st.sampled_from(KERNEL_SIZES), data=st.data())
    def test_matches_the_level_set_loop(self, sizes, data):
        left = data.draw(kernel_factors(letters(sizes[0])), label="left")
        right = data.draw(kernel_factors(right_letters(sizes[1])), label="right")
        out = tensor2(left, right)
        assert out == level_set_tensor2(left, right)

    @pytest.mark.parametrize("sizes", [(8, 2), (4, 4), (2, 8)])
    def test_sixteen_points_match_the_level_set_loop(self, sizes):
        rng = SplitMix64(sizes[0])
        left = random_capacity(letters(sizes[0]), rng, 6)
        right = random_capacity(right_letters(sizes[1]), rng, 4)
        out = tensor2(left, right)
        assert out.domain.size == 16
        assert out == level_set_tensor2(left, right)
        for _ in range(20):
            mask = rng.below(out.domain.subset_count)
            assert out.value_mask(mask) == dumb_tensor_value(left, right, mask)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_three_factors_match_the_fraction_loop(self, seed):
        rng = SplitMix64(seed)
        caps = [random_capacity(letters(2), rng, 6),
                random_capacity(Domain(("x", "y")), rng, 8),
                random_capacity(PQR, rng, 4)]
        reference = fraction_tensor_many(caps)
        # The same factors rebuilt with unused levels, inside [0, 1] and
        # trimmed outside it, give the same product.
        for factors in (caps, [with_foreign_levels(cap) for cap in caps]):
            out = tensor_many(factors)
            assert out.domain.labels == reference.domain.labels
            assert out.values == reference.values


class TestTensorMany:
    def test_single_factor_returned_unchanged(self):
        cap = seeded_capacity(3, 2)
        assert tensor_many([cap]) is cap

    def test_zero_factors_rejected(self):
        with pytest.raises(ValueError):
            tensor_many([])

    def test_three_diracs(self):
        out = tensor_many([
            dirac_capacity(AB, "a"),
            dirac_capacity(XY, "y"),
            dirac_capacity(AB, "b"),
        ])
        assert out == dirac_capacity(out.domain, "a|y|b")

    def test_three_possibilities(self):
        out = tensor_many([
            possibility_capacity(AB, ("a",)),
            possibility_capacity(XY, ("x", "y")),
            possibility_capacity(AB, ("b",)),
        ])
        box = [f"a|{q}|b" for q in ("x", "y")]
        assert out == possibility_capacity(out.domain, box)

    def test_left_fold_matches_manual_bracketing(self):
        caps = [seeded_capacity(k, 2) for k in (10, 11, 12)]
        folded = tensor_many(caps)
        manual = tensor2(tensor2(caps[0], caps[1]), caps[2])
        assert materialize(folded) == manual


class TestMarginal:
    def test_tensor_marginals_recover_both_factors(self):
        left = seeded_capacity(21, 2)
        right = seeded_capacity(22, 3)
        pd = product_domain([left.domain, right.domain])
        out = tensor2(left, right)
        assert marginal(out, pd, 0) == left
        assert marginal(out, pd, 1) == right

    def test_three_factor_marginals(self):
        caps = [seeded_capacity(k, 2) for k in (31, 32, 33)]
        pd = product_domain([c.domain for c in caps])
        out = tensor_many(caps)
        for axis, cap in enumerate(caps):
            assert marginal(out, pd, axis) == cap

    def test_bad_axis(self):
        pd = product_domain([AB, XY])
        out = tensor2(uniform(AB), uniform(XY))
        with pytest.raises(ValueError):
            marginal(out, pd, 2)
        with pytest.raises(ValueError):
            marginal(out, pd, -1)

    def test_domain_mismatch(self):
        pd = product_domain([AB, XY])
        with pytest.raises(DomainMismatch):
            marginal(top_capacity(PQR), pd, 0)


class TestLazyTensor:
    def test_matches_dense_on_every_mask(self):
        caps = [seeded_capacity(k, 2) for k in (41, 42, 43)]
        dense = tensor_many(caps)
        lazy = lazy_tensor(caps)
        assert lazy.domain.labels == dense.domain.labels
        for mask in range(dense.domain.subset_count):
            assert lazy.value_mask(mask) == dense.value_mask(mask)

    def test_boundary_values(self):
        lazy = lazy_tensor([seeded_capacity(51, 3), seeded_capacity(52, 3)])
        assert lazy.value_mask(0) == 0
        assert lazy.value_mask(lazy.domain.full_mask) == 1

    def test_memo_is_stable_across_queries(self):
        lazy = lazy_tensor([seeded_capacity(61, 2), seeded_capacity(62, 2)])
        mask = 0b1010
        first = lazy.value_mask(mask)
        assert lazy.value_mask(mask) == first

    def test_value_mask_is_range_checked(self):
        caps = [seeded_capacity(63, 2), seeded_capacity(64, 2)]
        lazy = lazy_tensor(caps)
        dense = tensor_many(caps)
        assert ([lazy.value_mask(m) for m in range(16)]
                == [dense.value_mask(m) for m in range(16)])
        for mask in (1 << 20, -1, 16, 19):
            with pytest.raises(ValueError, match=f"mask {mask} out of range "
                                                 "for 4-point domain"):
                lazy.value_mask(mask)

    def test_single_factor_short_circuits(self):
        cap = seeded_capacity(71, 3)
        assert lazy_tensor([cap]) is cap

    def test_immutable(self):
        lazy = lazy_tensor([seeded_capacity(81, 2), seeded_capacity(82, 2)])
        with pytest.raises(AttributeError):
            lazy.domain = AB

    def test_works_past_the_dense_cap(self):
        left = seeded_capacity(91, 5)
        right = seeded_capacity(92, 5)
        lazy = lazy_tensor([left, right])
        assert lazy.domain.size == 25
        assert lazy.value_mask(0) == 0
        assert lazy.value_mask(lazy.domain.full_mask) == 1
        pd = lazy.product
        box = pd.mask_of_box([0b00101, 0b11010])
        assert lazy.value_mask(box) == dumb_tensor_value(left, right, box)
        with pytest.raises(ProductTooLarge):
            materialize(lazy)


# Products of at most 12 points: every one of their masks is checked.
LAZY_PRODUCT_POINTS = 12


@st.composite
def lazy_factors(draw):
    """2-4 capacities of 1-3 points, LAZY_PRODUCT_POINTS points in all at
    most, with values on drawn grids k/denominator ({0, 1} included),
    some with foreign levels (`with_foreign_levels`)."""
    caps, points = [], 1
    for _ in range(draw(st.integers(2, 4))):
        size = draw(st.integers(1, min(3, LAZY_PRODUCT_POINTS // points)))
        points *= size
        denominator = draw(st.sampled_from((1, 2, 3, 5, 12)))
        seed = draw(st.integers(0, 2**32))
        cap = random_capacity(letters(size), SplitMix64(seed), denominator)
        # Or the same capacity with unused levels in its rank table.
        caps.append(with_foreign_levels(cap) if draw(st.booleans()) else cap)
    return caps


class TestRankedLazyTensor:
    @given(caps=lazy_factors())
    def test_matches_the_fraction_fold_on_every_mask(self, caps):
        lazy, reference = LazyTensorCapacity(caps), FractionLazyTensor(caps)
        assert lazy.domain == reference.domain
        for mask in range(lazy.domain.subset_count):
            assert lazy.value_mask(mask) == reference.value_mask(mask)

    @settings(max_examples=20)
    @given(caps=lazy_factors())
    def test_lazy_factors_match_the_fraction_fold(self, caps):
        # A lazy first factor is the fold of its own factors; in last
        # place, a lazy factor is evaluated on each row section.
        first = LazyTensorCapacity([LazyTensorCapacity(caps[:2]), *caps[2:]])
        last = LazyTensorCapacity([caps[0], LazyTensorCapacity(caps[1:])])
        flat = FractionLazyTensor(caps)
        nested = FractionLazyTensor([caps[0], FractionLazyTensor(caps[1:])])
        assert first.domain == last.domain == flat.domain
        for mask in range(flat.domain.subset_count):
            assert first.value_mask(mask) == flat.value_mask(mask)
            assert last.value_mask(mask) == nested.value_mask(mask)

    def test_a_lazy_factor_past_the_dense_cap_stays_lazy(self):
        left = seeded_capacity(95, 2)
        inner = lazy_tensor([seeded_capacity(93, 5), seeded_capacity(94, 5)])
        outer = lazy_tensor([left, inner])
        reference = FractionLazyTensor([left, inner])
        assert outer.domain.size == 50
        rng = SplitMix64(96)
        masks = [0, outer.domain.full_mask] + [rng.below(1 << 50) for _ in range(20)]
        assert ([outer.value_mask(m) for m in masks]
                == [reference.value_mask(m) for m in masks])

    def test_given_product_domain_is_used(self):
        caps = [seeded_capacity(k, 2) for k in (111, 112, 113)]
        pd = product_domain([c.domain for c in caps])
        lazy = LazyTensorCapacity(caps, _product=pd)
        assert lazy.product is pd and lazy.domain is pd.flat
        assert [lazy.value_mask(m) for m in range(256)] == list(tensor_many(caps).values)

    def test_evaluation_compares_no_fractions(self):
        caps = [random_capacity(letters(k), SplitMix64(k), 6) for k in (2, 3, 2)]
        lazy = LazyTensorCapacity(caps)
        reference = FractionLazyTensor(caps)
        with counted_fraction_compares() as compares:
            values = [lazy.value_mask(m) for m in range(lazy.domain.subset_count)]
        assert compares == [0]
        # The counter does count: the Fraction fold compares.
        with counted_fraction_compares() as compares:
            assert values == [reference.value_mask(m) for m in range(len(values))]
        assert compares[0] > 0


@st.composite
def shared_level_factors(draw, min_factors=2):
    """`min_factors`-3 capacities of 1-3 points, LAZY_PRODUCT_POINTS
    points in all at most, each rebuilt on the whole grid k/denominator
    (`on_levels`), so that their `_levels` are equal: (0, 1) for
    denominator 1, the possibility capacities among them."""
    denominator = draw(st.sampled_from((1, 2, 3, 4)))
    grid = [F(k, denominator) for k in range(denominator + 1)]
    caps, points = [], 1
    for _ in range(draw(st.integers(min_factors, 3))):
        size = draw(st.integers(1, min(3, LAZY_PRODUCT_POINTS // points)))
        points *= size
        seed = draw(st.integers(0, 2**32))
        caps.append(on_levels(random_capacity(letters(size), SplitMix64(seed), denominator),
                              grid))
    return caps


def ranked_calls(build):
    """What `build()` returns, and how many times it called `_ranked`
    through the tensor module."""
    with mock.patch.object(tensor, "_ranked", wraps=capacity._ranked) as ranked:
        out = build()
    return out, ranked.call_count


def assert_matches_on_every_mask(cap, reference):
    assert cap.domain == reference.domain
    for mask in range(cap.domain.subset_count):
        assert cap.value_mask(mask) == reference.value_mask(mask)


class TestSharedLevels:
    """Factors that keep rank tables on equal `_levels` are read on their
    own ranks, with nothing ranked; any other factors are ranked
    (`tensor._factor_levels`). Both give the references' values."""

    @given(caps=shared_level_factors())
    def test_dense_factors(self, caps):
        dense, calls = ranked_calls(lambda: tensor2(caps[0], caps[1]))
        assert calls == 0
        assert dense == level_set_tensor2(caps[0], caps[1])
        lazy, calls = ranked_calls(lambda: LazyTensorCapacity(caps))
        assert calls == 0 and lazy._levels is caps[0]._levels
        assert_matches_on_every_mask(lazy, FractionLazyTensor(caps))

    @settings(max_examples=25)
    @given(caps=shared_level_factors(min_factors=3))
    def test_mixed_dense_and_lazy_factors(self, caps):
        # A lazy factor first or last, in a lazy product and in tensor2.
        (first, inner_first, last, inner_last, lazy_dense, dense_lazy), calls = ranked_calls(
            lambda: (LazyTensorCapacity([LazyTensorCapacity(caps[:2]), *caps[2:]]),
                     LazyTensorCapacity(caps[:2]),
                     LazyTensorCapacity([caps[0], LazyTensorCapacity(caps[1:])]),
                     LazyTensorCapacity(caps[1:]),
                     tensor2(LazyTensorCapacity(caps[:2]), caps[2]),
                     tensor2(caps[0], LazyTensorCapacity(caps[1:]))))
        assert calls == 0
        assert_matches_on_every_mask(first, FractionLazyTensor(caps))
        assert_matches_on_every_mask(
            last, FractionLazyTensor([caps[0], FractionLazyTensor(caps[1:])]))
        assert lazy_dense == level_set_tensor2(inner_first, caps[2])
        assert dense_lazy == level_set_tensor2(caps[0], inner_last)

    @settings(max_examples=25)
    @given(caps=shared_level_factors(min_factors=3))
    def test_factors_on_unequal_levels_are_ranked(self, caps):
        # The last factor's rank table gains the unused level 1/97.
        caps = [*caps[:-1], with_foreign_levels(caps[-1])]
        dense, calls = ranked_calls(lambda: tensor2(caps[-2], caps[-1]))
        assert calls == 1
        assert dense == level_set_tensor2(caps[-2], caps[-1])
        lazy, calls = ranked_calls(lambda: LazyTensorCapacity(caps))
        assert calls == 1
        assert_matches_on_every_mask(lazy, FractionLazyTensor(caps))
        # The inner product ranks its factors, and so does the outer,
        # whose first factor lacks the inner product's level 1/97.
        last, calls = ranked_calls(
            lambda: LazyTensorCapacity([caps[0], LazyTensorCapacity(caps[1:])]))
        assert calls == 2
        assert_matches_on_every_mask(
            last, FractionLazyTensor([caps[0], FractionLazyTensor(caps[1:])]))
        dense_lazy, calls = ranked_calls(
            lambda: tensor2(caps[0], LazyTensorCapacity(caps[1:])))
        assert calls == 2
        assert dense_lazy == level_set_tensor2(caps[0], LazyTensorCapacity(caps[1:]))

    @given(caps=lazy_factors(), bottoms=st.lists(st.booleans(), min_size=4, max_size=4))
    def test_is_vacuous_reads_the_ranks(self, caps, bottoms):
        # Bottom factors make vacuous products: all of them always do.
        for factors in ([bottom_capacity(c.domain) if b else c for c, b in zip(caps, bottoms)],
                        [bottom_capacity(c.domain) for c in caps]):
            lazy = LazyTensorCapacity(factors)
            assert lazy.is_vacuous() == CapacityBase.is_vacuous(lazy)
        assert lazy.is_vacuous()

    def test_is_vacuous_on_one_point_and_on_possibilities(self):
        one = Domain(("o",))
        assert LazyTensorCapacity([top_capacity(one), top_capacity(one)]).is_vacuous()
        for a, b in itertools.product(range(1, 4), repeat=2):
            lazy = LazyTensorCapacity([possibility_capacity(AB, AB.labels_of(a)),
                                       possibility_capacity(XY, XY.labels_of(b))])
            assert lazy.is_vacuous() is CapacityBase.is_vacuous(lazy) is False


class TestSupportLaw:
    @given(seed=st.integers(0, 2**32))
    def test_product_vanishes_outside_the_support_box(self, seed):
        rng = SplitMix64(seed)
        dom1, dom2 = letters(3), Domain(("x", "y", "z"))
        support1 = 1 + rng.below(dom1.subset_count - 1)
        support2 = 1 + rng.below(dom2.subset_count - 1)

        def restricted(dom: Domain, smask: int, salt: int) -> FiniteCapacity:
            labs = dom.labels_of(smask)
            inner = seeded_capacity(seed ^ salt, len(labs))
            values = []
            for mask in range(dom.subset_count):
                inside = 0
                for pos, lab in enumerate(labs):
                    if mask & (1 << dom.index_of(lab)):
                        inside |= 1 << pos
                values.append(inner.value_mask(inside))
            return FiniteCapacity(dom, values)

        left = restricted(dom1, support1, 0x1111)
        right = restricted(dom2, support2, 0x2222)
        assert vanishes_outside(left, support1)
        assert vanishes_outside(right, support2)
        out = tensor2(left, right)
        pd = product_domain([dom1, dom2])
        box = pd.mask_of_box([support1, support2])
        assert vanishes_outside(out, box)


def swapped_table(left, right) -> list:
    """tensor2(right, left) read on the points of left x right: the value
    at each mask M over left x right is the product's value at the mask
    with every point (a, b) moved to (b, a)."""
    m, n = left.domain.size, right.domain.size
    product = tensor2(right, left)
    moved = [1 << (b * m + a) for a in range(m) for b in range(n)]
    return [product.value_mask(sum(bit for k, bit in enumerate(moved) if mask >> k & 1))
            for mask in range(1 << (m * n))]


class TestCommutation:
    def test_possibility_tensors_commute(self):
        # Why a support scan's beliefs do not depend on the fold order:
        # the product of possibility capacities is 1 exactly on the sets
        # meeting the support box, whichever factor comes first.
        domains = [letters(size) for size in (1, 2, 3)]
        pairs = 0
        for left_domain, size in itertools.product(domains, (1, 2, 3)):
            right_domain = right_letters(size)
            for smask, tmask in itertools.product(
                    range(1, left_domain.subset_count),
                    range(1, right_domain.subset_count)):
                left = possibility_capacity(left_domain, left_domain.labels_of(smask))
                right = possibility_capacity(right_domain, right_domain.labels_of(tmask))
                assert list(tensor2(left, right).values) == swapped_table(left, right)
                pairs += 1
        assert pairs == (1 + 3 + 7) ** 2

    def test_dense_tensors_need_not_commute(self):
        left = random_capacity(letters(2), SplitMix64(5))
        right = random_capacity(right_letters(2), SplitMix64(6))
        assert list(tensor2(left, right).values) != swapped_table(left, right)


class TestAssociativityProbe:
    def test_fewer_than_three_factors_report_nothing(self):
        assert associativity_probe([seeded_capacity(1, 2)]) == []
        assert associativity_probe(
            [seeded_capacity(1, 2), seeded_capacity(2, 2)]
        ) == []

    def test_possibilities_associate(self):
        caps = [
            possibility_capacity(AB, ("a",)),
            possibility_capacity(XY, ("x", "y")),
            possibility_capacity(AB, ("b",)),
        ]
        assert associativity_probe(caps) == []

    def test_diracs_associate(self):
        caps = [dirac_capacity(AB, "a"), dirac_capacity(XY, "y"),
                dirac_capacity(AB, "a")]
        assert associativity_probe(caps) == []

    def test_returns_a_mask_list(self):
        caps = [seeded_capacity(k, 2) for k in (101, 102, 103)]
        report = associativity_probe(caps)
        assert isinstance(report, list)
        full = 1 << 8
        assert all(0 <= m < full for m in report)
