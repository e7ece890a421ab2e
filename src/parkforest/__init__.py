"""Forests <-> parking functions: the bijection, statistics, verification.

The map sends a rooted labeled forest on n vertices to a parking
function of length n so that vertex inversions become car jumps,
leaders become lucky cars, and components become critical cars.  See
bijection.forest_to_parking / parking_to_forest for the two directions,
forest_stats / parking_stats for the statistics, exhaustive for the
brute-force oracles, and genpoly for the generating polynomials.
"""

from .bijection import (
    LabelMap,
    forest_to_parking,
    inverse_relabel,
    nearest_larger_right_tree,
    parking_to_forest,
    relabel_decreasing,
)
from .errors import (
    BudgetExceededError,
    CycleError,
    InputError,
    InvalidInversionValueError,
    MalformedInputError,
    NotParkingFunctionError,
    OutOfRangeError,
    SelfParentError,
)
from .exhaustive import (
    VerificationReport,
    all_forests,
    all_parking_functions,
    forest_count,
    sample_forest,
    verify_bijection,
    verify_random,
)
from .forest import (
    Forest,
    OrderedTree,
    canonical_order,
    postorder,
    preorder,
    validate_forest,
)
from .forest_stats import (
    ForestStats,
    forest_stats,
    inversion_counts,
)
from .genpoly import (
    GenPoly,
    collapse_type_poly,
    critic_lucky_poly,
    critic_lucky_product_formula,
    inversion_type_poly,
    jump_type_poly,
    lead_tree_poly,
    lucky_poly,
    lucky_product_formula,
    statistic_product,
)
from .parking import (
    ParkingStats,
    ParkOutcome,
    is_parking_function,
    park,
    parking_stats,
    sample_parking_function,
    sorted_parking_test,
)

__all__ = [
    "BudgetExceededError",
    "CycleError",
    "Forest",
    "ForestStats",
    "GenPoly",
    "InputError",
    "InvalidInversionValueError",
    "LabelMap",
    "MalformedInputError",
    "NotParkingFunctionError",
    "OrderedTree",
    "OutOfRangeError",
    "ParkOutcome",
    "ParkingStats",
    "SelfParentError",
    "VerificationReport",
    "all_forests",
    "all_parking_functions",
    "canonical_order",
    "collapse_type_poly",
    "critic_lucky_poly",
    "critic_lucky_product_formula",
    "forest_count",
    "forest_stats",
    "forest_to_parking",
    "inverse_relabel",
    "inversion_counts",
    "inversion_type_poly",
    "is_parking_function",
    "jump_type_poly",
    "lead_tree_poly",
    "lucky_poly",
    "lucky_product_formula",
    "nearest_larger_right_tree",
    "park",
    "parking_stats",
    "parking_to_forest",
    "postorder",
    "preorder",
    "relabel_decreasing",
    "sample_forest",
    "sample_parking_function",
    "sorted_parking_test",
    "statistic_product",
    "validate_forest",
    "verify_bijection",
    "verify_random",
]

__version__ = "0.1.0"
