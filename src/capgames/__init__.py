"""Exact-rational capacities, corrected Sugeno integrals, tensor-product
beliefs, equilibrium search, and convexity scans on finite domains."""

from .capacity import (
    CapacityBase,
    CapacityError,
    DENSE_DOMAIN_CAP,
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
from .convexity import (
    BinarityReport,
    BudgetExceeded,
    CapacityInterval,
    EqualCapacities,
    GridCapacitySpace,
    SeparationReport,
    check_binarity,
    check_t2,
    enumerate_capacities,
    interval,
    interval_membership,
    separating_halves,
)
from .equilibrium import (
    BeliefSystem,
    CycleReport,
    EquilibriumCertificate,
    SupportProfile,
    check_support_profile,
    find_equilibria_grid,
    find_equilibria_supports,
    is_equilibrium,
    iterate_best_response_supports,
    pure_nash,
    support_profile_count,
)
from .game import (
    GameSpec,
    best_response,
    expected_payoff,
    opponent_domain,
    payoff_slice,
)
from .generate import (
    SplitMix64,
    random_capacity,
    random_game,
    random_payoff_function,
)
from .io import (
    ParseError,
    ValidationError,
    canonical_game_hash,
    loads_capacity,
    loads_function,
    loads_game,
    parse_capacity,
    parse_function,
    parse_game,
    serialize_capacity,
    serialize_function,
    serialize_game,
)
from .rational import NEG_INF, POS_INF, format_rational, parse_rational
from .sugeno import (
    BadResolution,
    CorrectionMap,
    PayoffFunction,
    classical_sugeno,
    default_correction,
    logit_correction,
    sugeno_integral,
    sugeno_oracle,
)
from .tensor import (
    LazyTensorCapacity,
    ProductDomain,
    ProductTooLarge,
    associativity_probe,
    lazy_tensor,
    marginal,
    materialize,
    product_domain,
    tensor2,
    tensor_many,
)

__version__ = "0.1.0"
