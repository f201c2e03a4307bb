"""Quotient means of Jensen gaps.

A numerical library for the classical chain of bivariate means (harmonic,
geometric, logarithmic, identric, arithmetic, Gini), the one-parameter
quotient-mean family that threads it, the n-point weighted generalization,
and floating-point certification of the sharp comparison orders between the
family and each classical mean.
"""

from .classical import (
    MEAN_CHAIN,
    Mean,
    PositivePair,
    arithmetic,
    geometric,
    gini,
    harmonic,
    identric,
    logarithmic,
    mean_value,
    ratio_to_a,
    symmetric_coordinate,
)
from .errors import (
    BracketError,
    DegenerateSampleError,
    DomainError,
    InvalidPairError,
    InvalidReportError,
    MeansError,
    UsageError,
)
from .inequalities import (
    PSI_SUP,
    IdentricParts,
    InequalityViolation,
    PartReport,
    SeriesTable,
    SharpnessWitness,
    ThresholdResult,
    identric_limit_defect,
    identric_limit_defect_root,
    identric_parts,
    limit_ratio_at_t1,
    log_defect,
    series_table,
    solve_threshold,
    threshold_catalog,
    verify_part,
)
from .jensen import (
    ConvexPair,
    CubicBounds,
    MomentReport,
    WeightedSample,
    cubic_moment_bounds,
    jensen_gap,
    lambda_quotient,
    log_convexity_holds,
    mean_condition_residual,
    pair_from_g,
    power_gap,
    power_gap_ratio,
    power_generator,
    power_generator_d1,
    power_generator_d2,
    power_pair,
)
from .lambda_family import (
    BRANCH_EQUAL,
    BRANCH_GENERIC,
    BRANCH_LIMIT_NEG1,
    BRANCH_LIMIT_ONE,
    BRANCH_LIMIT_ZERO,
    BRANCH_SERIES,
    T_SWITCH,
    LambdaValue,
    lambda_closed_form,
    lambda_mean,
    lambda_ratio,
    small_t_series,
)

__version__ = "0.1.0"

__all__ = [
    "BRANCH_EQUAL",
    "BRANCH_GENERIC",
    "BRANCH_LIMIT_NEG1",
    "BRANCH_LIMIT_ONE",
    "BRANCH_LIMIT_ZERO",
    "BRANCH_SERIES",
    "BracketError",
    "ConvexPair",
    "CubicBounds",
    "DegenerateSampleError",
    "DomainError",
    "IdentricParts",
    "InequalityViolation",
    "InvalidPairError",
    "InvalidReportError",
    "LambdaValue",
    "MEAN_CHAIN",
    "Mean",
    "MeansError",
    "MomentReport",
    "PSI_SUP",
    "PartReport",
    "PositivePair",
    "SeriesTable",
    "SharpnessWitness",
    "T_SWITCH",
    "ThresholdResult",
    "UsageError",
    "WeightedSample",
    "arithmetic",
    "cubic_moment_bounds",
    "geometric",
    "gini",
    "harmonic",
    "identric",
    "identric_limit_defect",
    "identric_limit_defect_root",
    "identric_parts",
    "jensen_gap",
    "lambda_closed_form",
    "lambda_mean",
    "lambda_quotient",
    "lambda_ratio",
    "limit_ratio_at_t1",
    "log_convexity_holds",
    "log_defect",
    "logarithmic",
    "mean_condition_residual",
    "mean_value",
    "pair_from_g",
    "power_gap",
    "power_gap_ratio",
    "power_generator",
    "power_generator_d1",
    "power_generator_d2",
    "power_pair",
    "ratio_to_a",
    "series_table",
    "small_t_series",
    "solve_threshold",
    "symmetric_coordinate",
    "threshold_catalog",
    "verify_part",
]


def __getattr__(name: str):
    # the mpmath oracle module loads on first access, so that importing the
    # package does not import mpmath
    if name == "highprec":
        import importlib

        return importlib.import_module(f"{__name__}.highprec")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
