"""The package's lazy export table (PEP 562 `__getattr__`)."""

import importlib

import pytest

import capgames

# Every name `capgames` exports.
PINNED = (
    "BadResolution", "BeliefSystem", "BinarityReport", "BudgetExceeded",
    "CapacityBase", "CapacityError", "CapacityInterval", "CorrectionMap",
    "DENSE_DOMAIN_CAP", "Domain", "DomainMismatch",
    "DomainTooLarge", "EmptySupport", "EqualCapacities",
    "EquilibriumCertificate", "FiniteCapacity", "GameSpec",
    "GridCapacitySpace", "LazyTensorCapacity", "MissingSubset",
    "MonotonicityError", "NEG_INF", "NormalizationError", "POS_INF",
    "ParseError", "PayoffFunction", "ProductDomain", "ProductTooLarge",
    "RangeError", "SeparationReport", "SplitMix64", "SupportProfile",
    "UnknownLabel", "ValidationError", "WeightSumError",
    "associativity_probe", "best_response", "bottom_capacity",
    "canonical_game_hash", "check_binarity", "check_support_profile",
    "check_t2", "classical_sugeno", "default_correction", "dirac_capacity",
    "enumerate_capacities", "expected_payoff", "find_equilibria_grid",
    "find_equilibria_supports", "format_rational", "interval",
    "interval_membership", "is_equilibrium",
    "join", "lazy_tensor", "loads_capacity", "loads_function", "loads_game",
    "logit_correction", "marginal", "materialize", "meet", "opponent_domain",
    "parse_capacity", "parse_function", "parse_game", "parse_rational",
    "payoff_slice", "possibility_capacity", "probability_capacity",
    "product_domain", "pure_nash", "pushforward", "random_capacity",
    "random_game", "random_payoff_function", "separating_halves",
    "serialize_capacity", "serialize_function", "serialize_game",
    "sugeno_integral", "sugeno_oracle", "support_profile_count", "tensor2",
    "tensor_many", "top_capacity", "vanishes_outside",
)


def _home(name: str):
    return importlib.import_module(f"capgames.{capgames._SOURCE[name]}")


def test_every_pinned_name_resolves_to_its_module_attribute():
    assert len(PINNED) == 87
    assert sorted(capgames.__all__) == sorted(PINNED)
    for name in PINNED:
        assert getattr(capgames, name) is getattr(_home(name), name), name
    assert capgames.__version__ == "0.1.0"


def test_names_are_looked_up_on_every_access(monkeypatch):
    for name in PINNED:
        original = getattr(capgames, name)
        stand_in = object()
        monkeypatch.setattr(_home(name), name, stand_in)
        assert getattr(capgames, name) is stand_in, name
        monkeypatch.undo()
        assert getattr(capgames, name) is original, name
    assert not set(PINNED) & set(vars(capgames))


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from capgames import *", namespace)
    assert set(PINNED) <= set(namespace)
    listed = dir(capgames)
    assert set(PINNED) <= set(listed)
    assert {"capacity", "cli", "io", "tensor", "__version__"} <= set(listed)


@pytest.mark.parametrize("module", sorted(capgames._EXPORTS))
def test_each_module_lists_its_exports(module):
    # A star import of the module gives exactly its __all__, which holds
    # every name the package exports from it.
    home = importlib.import_module(f"capgames.{module}")
    namespace = {}
    exec(f"from capgames.{module} import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(home.__all__)
    assert set(capgames._EXPORTS[module]) <= set(home.__all__)


def test_budget_exceeded_is_one_class():
    from capgames import capacity, convexity

    assert capgames.BudgetExceeded is capacity.BudgetExceeded is convexity.BudgetExceeded


def test_submodules_resolve_as_attributes():
    # Called directly: once imported, a submodule is also a plain attribute.
    for name in ("capacity", "cli", "convexity", "io"):
        assert capgames.__getattr__(name) is importlib.import_module(f"capgames.{name}")


@pytest.mark.parametrize("name", ["no_such_name", "_SOURCE_", "Fraction", "numpy"])
def test_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
        getattr(capgames, name)
