"""The immutable record classes: equality, hashing, repr, immutability,
keyword and positional construction, copies and pickles."""

import copy
import pickle
from fractions import Fraction as F

import pytest

from capgames import (
    BeliefSystem,
    BinarityReport,
    CapacityInterval,
    CorrectionMap,
    Domain,
    EquilibriumCertificate,
    GameSpec,
    FiniteCapacity,
    GridCapacitySpace,
    LazyTensorCapacity,
    PayoffFunction,
    ProductDomain,
    SeparationReport,
    SupportProfile,
    default_correction,
    opponent_domain,
    top_capacity,
)

AB = Domain(("a", "b"))
X = Domain(("x",))
TOP = top_capacity(X)
TOP_TEXT = "FiniteCapacity({}: 0, {'x'}: 1)"
PSI = default_correction()
LAZY = LazyTensorCapacity((TOP, TOP))
PROFILE = SupportProfile(masks=(1, 2), labels=(("a",), ("b",)))
PROFILE_TEXT = "SupportProfile(masks=(1, 2), labels=(('a',), ('b',)))"
SYSTEM = BeliefSystem(beliefs=(TOP,))
AB_TEXT = "Domain(labels=('a', 'b'))"
X_TEXT = "Domain(labels=('x',))"

# (class, keyword arguments, field values in order, repr text)
CASES = [
    (Domain, dict(labels=("a", "b")), (("a", "b"),), AB_TEXT),
    (CorrectionMap, dict(name="rational-default", _interior=PSI._interior),
     ("rational-default", PSI._interior),
     f"CorrectionMap(name='rational-default', _interior={PSI._interior!r})"),
    (PayoffFunction, dict(domain=AB, values=(F(1, 2), 3)), (AB, (F(1, 2), F(3))),
     f"PayoffFunction(domain={AB_TEXT}, values=(Fraction(1, 2), Fraction(3, 1)))"),
    (ProductDomain, dict(factors=(AB, X)), ((AB, X),),
     f"ProductDomain(factors=({AB_TEXT}, {X_TEXT}))"),
    (GameSpec, dict(strategy_domains=(AB, X), payoffs=((1, F(1, 3)), (0, 2))),
     ((AB, X), ((F(1), F(1, 3)), (F(0), F(2)))),
     f"GameSpec(strategy_domains=({AB_TEXT}, {X_TEXT}), "
     "payoffs=((Fraction(1, 1), Fraction(1, 3)), (Fraction(0, 1), Fraction(2, 1))))"),
    (SupportProfile, dict(masks=(1, 2), labels=(("a",), ("b",))),
     ((1, 2), (("a",), ("b",))), PROFILE_TEXT),
    (BeliefSystem, dict(beliefs=(TOP,)), ((TOP,),), f"BeliefSystem(beliefs=({TOP_TEXT},))"),
    (EquilibriumCertificate,
     dict(beliefs=SYSTEM, best_responses=(("a",),), residuals=(F(0),),
          correction_name="rational-default", degenerate_players=()),
     (SYSTEM, (("a",),), (F(0),), "rational-default", (), None, None),
     f"EquilibriumCertificate(beliefs=BeliefSystem(beliefs=({TOP_TEXT},)), "
     "best_responses=(('a',),), residuals=(Fraction(0, 1),), "
     "correction_name='rational-default', degenerate_players=(), supports=None, "
     "supports_within_responses=None)"),
    (EquilibriumCertificate,
     dict(beliefs=SYSTEM, best_responses=(("a",),), residuals=(F(0),),
          correction_name="rational-default", degenerate_players=(0,),
          supports=PROFILE, supports_within_responses=True),
     (SYSTEM, (("a",),), (F(0),), "rational-default", (0,), PROFILE, True),
     f"EquilibriumCertificate(beliefs=BeliefSystem(beliefs=({TOP_TEXT},)), "
     "best_responses=(('a',),), residuals=(Fraction(0, 1),), "
     "correction_name='rational-default', degenerate_players=(0,), "
     f"supports={PROFILE_TEXT}, supports_within_responses=True)"),
    (GridCapacitySpace, dict(domain=X, grid=(F(0), F(1, 2), F(1)), capacities=(TOP,)),
     (X, (F(0), F(1, 2), F(1)), (TOP,)),
     f"GridCapacitySpace(domain={X_TEXT}, "
     f"grid=(Fraction(0, 1), Fraction(1, 2), Fraction(1, 1)), capacities=({TOP_TEXT},))"),
    (CapacityInterval, dict(first=TOP, second=TOP, lower=TOP, upper=TOP),
     (TOP,) * 4,
     f"CapacityInterval(first={TOP_TEXT}, second={TOP_TEXT}, lower={TOP_TEXT}, "
     f"upper={TOP_TEXT})"),
    (BinarityReport,
     dict(capacity_count=3, interval_count=6, linked_pairs=4, triples_checked=1,
          failures=((0, 1, 2),), full_family_sets=None, seconds=0.5),
     (3, 6, 4, 1, ((0, 1, 2),), None, 0.5),
     "BinarityReport(capacity_count=3, interval_count=6, linked_pairs=4, "
     "triples_checked=1, failures=((0, 1, 2),), full_family_sets=None, seconds=0.5)"),
    (SeparationReport,
     dict(capacity_count=2, pairs_checked=1,
          failures=((0, 1, "halves do not cover the space"),), seconds=0.25),
     (2, 1, ((0, 1, "halves do not cover the space"),), 0.25),
     "SeparationReport(capacity_count=2, pairs_checked=1, "
     "failures=((0, 1, 'halves do not cover the space'),), seconds=0.25)"),
    (FiniteCapacity, dict(domain=X, values=(0, 1)), (X, (F(0), F(1))), TOP_TEXT),
    # Two lazy tensors are equal when their factors are.
    (LazyTensorCapacity, dict(factors=(TOP, TOP)), ((TOP, TOP),),
     f"LazyTensorCapacity(factors=({TOP_TEXT}, {TOP_TEXT}))"),
]
# A case keeps its number when an earlier case is removed, so that the
# other cases' test ids stay put; number 9 is retired.
NUMBERS = [*range(9), *range(10, len(CASES) + 1)]
IDS = [f"{cls.__name__}-{k}" for k, (cls, *_) in zip(NUMBERS, CASES)]

# Every record deep-copies; all but CorrectionMap, whose maps are
# closures, pickle.
PICKLED = [case for case in CASES if case[0] is not CorrectionMap]


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
class TestRecord:
    def test_fields_and_construction(self, cls, kwargs, fields, text):
        record = cls(**kwargs)
        assert tuple(getattr(record, name) for name in cls._fields) == fields
        assert cls(*fields) == record

    def test_equality_is_on_fields_within_one_class(self, cls, kwargs, fields, text):
        record = cls(**kwargs)
        assert record == cls(**kwargs)
        assert not record != cls(**kwargs)
        lookalike = type("Lookalike", (cls,), {"__slots__": ()})(**kwargs)
        assert record != lookalike and lookalike != record
        assert record != fields

    def test_hash_is_the_hash_of_the_fields(self, cls, kwargs, fields, text):
        assert hash(cls(**kwargs)) == hash(fields)

    def test_repr(self, cls, kwargs, fields, text):
        assert repr(cls(**kwargs)) == text

    def test_immutable(self, cls, kwargs, fields, text):
        record = cls(**kwargs)
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.unknown = 1
        assert record == cls(**kwargs)

    def test_shallow_copy(self, cls, kwargs, fields, text):
        record = cls(**kwargs)
        assert copy.copy(record) == record


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES,
                         ids=[f"{case[0].__name__}" for case in CASES])
def test_deep_copy(cls, kwargs, fields, text):
    record = cls(**kwargs)
    twin = copy.deepcopy(record)
    assert twin == record and repr(twin) == text


@pytest.mark.parametrize("cls, kwargs, fields, text", PICKLED,
                         ids=[f"{case[0].__name__}" for case in PICKLED])
def test_pickle_round_trip(cls, kwargs, fields, text):
    record = cls(**kwargs)
    twin = pickle.loads(pickle.dumps(record))
    assert twin == record and repr(twin) == text


def test_copies_rebuild_the_derived_state():
    # Domain, ProductDomain and GameSpec keep slots derived from their
    # fields (label index, strides, caches); a copy must answer alike.
    game = GameSpec((AB, X), ((1, 0), (0, 1)))
    product = ProductDomain((AB, X))
    for twin in (copy.copy(game), copy.deepcopy(game), pickle.loads(pickle.dumps(game))):
        assert twin.payoff(1, (1, 0)) == 1
        assert opponent_domain(twin, 0) == opponent_domain(game, 0)
    for twin in (copy.deepcopy(product), pickle.loads(pickle.dumps(product))):
        assert twin.index_of(("b", "x")) == 1
        assert twin.flat.index_of("b|x") == 1


@pytest.mark.parametrize("record", [TOP, LAZY], ids=["FiniteCapacity", "LazyTensorCapacity"])
def test_capacities_hold_no_state_but_their_slots(record):
    # No slot can be deleted, the lazy memo included, and with no
    # instance dict no other attribute can be set, even bypassing
    # __setattr__.
    for name in type(record).__slots__:
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        object.__setattr__(record, "unknown", 1)
    assert not hasattr(record, "__dict__")


def _copies(obj):
    return [copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))]


def test_capacities_copy_and_pickle():
    cap = FiniteCapacity(AB, [F(0), F(1, 3), F(1, 2), F(1)])
    # Subsets are shown in domain order, whatever the string hash seed.
    assert repr(cap) == "FiniteCapacity({}: 0, {'a'}: 1/3, {'b'}: 1/2, {'a', 'b'}: 1)"
    for twin in _copies(cap):
        assert twin == cap and repr(twin) == repr(cap)
        assert twin.value(("b",)) == F(1, 2)
    lazy = LazyTensorCapacity((cap, top_capacity(X), cap))
    values = [lazy.value_mask(m) for m in range(lazy.domain.subset_count)]
    for twin in _copies(lazy):
        assert twin.factors == lazy.factors and twin.product == lazy.product
        # Rebuilt from the factors: its memo starts empty.
        assert twin is lazy or not twin._memo
        assert [twin.value_mask(m) for m in range(twin.domain.subset_count)] == values
