"""Exact-rational capacities, corrected Sugeno integrals, tensor-product
beliefs, equilibrium search, and convexity scans on finite domains.

Importing the package loads none of its modules. Each exported name is
looked up in its module on every access (PEP 562), so a process pays
only for the modules it uses, and `capgames.X` always sees the module's
current `X`, also while a test or a tracer has replaced it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "capacity": (
        "BudgetExceeded",
        "CapacityBase",
        "CapacityError",
        "DENSE_DOMAIN_CAP",
        "Domain",
        "DomainMismatch",
        "DomainTooLarge",
        "EmptySupport",
        "FiniteCapacity",
        "MissingSubset",
        "MonotonicityError",
        "NormalizationError",
        "RangeError",
        "UnknownLabel",
        "WeightSumError",
        "bottom_capacity",
        "dirac_capacity",
        "join",
        "meet",
        "possibility_capacity",
        "probability_capacity",
        "pushforward",
        "top_capacity",
        "vanishes_outside",
    ),
    "convexity": (
        "BinarityReport",
        "CapacityInterval",
        "EqualCapacities",
        "GridCapacitySpace",
        "SeparationReport",
        "check_binarity",
        "check_t2",
        "enumerate_capacities",
        "interval",
        "interval_membership",
        "separating_halves",
    ),
    "equilibrium": (
        "BeliefSystem",
        "EquilibriumCertificate",
        "SupportProfile",
        "check_support_profile",
        "find_equilibria_grid",
        "find_equilibria_supports",
        "is_equilibrium",
        "pure_nash",
        "support_profile_count",
    ),
    "game": (
        "GameSpec",
        "best_response",
        "expected_payoff",
        "opponent_domain",
        "payoff_slice",
    ),
    "generate": (
        "SplitMix64",
        "random_capacity",
        "random_game",
        "random_payoff_function",
    ),
    "io": (
        "ParseError",
        "ValidationError",
        "canonical_game_hash",
        "loads_capacity",
        "loads_function",
        "loads_game",
        "parse_capacity",
        "parse_function",
        "parse_game",
        "serialize_capacity",
        "serialize_function",
        "serialize_game",
    ),
    "rational": ("NEG_INF", "POS_INF", "format_rational", "parse_rational"),
    "sugeno": (
        "BadResolution",
        "CorrectionMap",
        "PayoffFunction",
        "classical_sugeno",
        "default_correction",
        "logit_correction",
        "sugeno_integral",
        "sugeno_oracle",
    ),
    "tensor": (
        "LazyTensorCapacity",
        "ProductDomain",
        "ProductTooLarge",
        "associativity_probe",
        "lazy_tensor",
        "marginal",
        "materialize",
        "product_domain",
        "tensor2",
        "tensor_many",
    ),
}
_MODULES = frozenset(_EXPORTS) | {"cli"}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        # An imported submodule is an attribute of the package already.
        module = globals().get(_SOURCE[name]) or importlib.import_module(
            f".{_SOURCE[name]}", __name__)
        return getattr(module, name)
    if name in _MODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys() | _MODULES)
