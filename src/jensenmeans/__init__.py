"""Quotient means of Jensen gaps.

A numerical library for the classical chain of bivariate means (harmonic,
geometric, logarithmic, identric, arithmetic, Gini), the one-parameter
quotient-mean family that threads it, the n-point weighted generalization,
and floating-point certification of the sharp comparison orders between the
family and each classical mean.

Importing the package loads none of its modules: each public name and each
submodule loads on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

__version__ = "0.1.0"

# submodule -> the public names it defines; highprec (the mpmath oracles) is
# reached as a module only.  The moment records and the series table live in
# private modules of their own, so that `moments` and `series` load neither
# jensen nor inequalities; those two re-export them.
_EXPORTS = {
    "_moments": ("CubicBounds", "MomentReport", "cubic_moment_bounds"),
    "_series": ("SeriesTable", "series_table"),
    "classical": (
        "MEAN_CHAIN", "Mean", "arithmetic", "geometric", "gini",
        "harmonic", "identric", "logarithmic", "mean_value", "ratio_to_a",
        "symmetric_coordinate",
    ),
    "errors": (
        "BracketError", "DegenerateSampleError", "DomainError", "InvalidPairError",
        "InvalidReportError", "MeansError", "UsageError",
    ),
    "highprec": (),
    "inequalities": (
        "PSI_SUP", "IdentricParts", "InequalityViolation", "PartReport",
        "SharpnessWitness", "ThresholdResult", "identric_limit_defect",
        "identric_limit_defect_root", "identric_parts", "limit_ratio_at_t1",
        "log_defect", "solve_threshold", "threshold_catalog", "verify_part",
    ),
    "jensen": (
        "ConvexPair", "WeightedSample", "jensen_gap", "lambda_quotient",
        "log_convexity_holds", "mean_condition_residual", "pair_from_g", "power_gap",
        "power_gap_ratio", "power_generator", "power_generator_d1", "power_generator_d2",
        "power_pair",
    ),
    "lambda_family": (
        "BRANCH_EQUAL", "BRANCH_GENERIC", "BRANCH_LIMIT_NEG1", "BRANCH_LIMIT_ONE",
        "BRANCH_LIMIT_ZERO", "BRANCH_SCALED", "LambdaValue", "lambda_closed_form",
        "lambda_mean", "lambda_ratio",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Load a public name's module, or a submodule, and cache the result."""
    import importlib

    if name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_HOME})
