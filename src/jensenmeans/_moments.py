"""Moment reports and the third-moment bounds of the cubic pair.

The pair f = t**3/3, g = t**2 satisfies f'' = t g'' on all of R, so its gap
quotient (E X^3 - (EX)^3) / (3 Var X) is a mean of the points: it lies in
the support window of every law.  :func:`cubic_moment_bounds` states that
window as a two-sided bound on the third moment, from the moments that a
:class:`MomentReport` holds.

The module needs no sample type and no gap kernel, so it imports only
:mod:`jensenmeans.errors`: the ``moments`` subcommand does not load the
n-point module :mod:`jensenmeans.jensen`, which re-exports these names.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .errors import DomainError, InvalidReportError, _float

__all__ = ["CubicBounds", "MomentReport", "cubic_moment_bounds"]


def _normalized(weights: Sequence[float], total: float) -> list[float]:
    """The positive `weights` divided by their `total`; raises DomainError
    where a quotient underflows to 0 (a weight below about 5e-324 of the
    total), which would leave a point of weight 0 in the sample."""
    scaled = [w / total for w in weights]
    if not min(scaled) > 0.0:
        raise DomainError(
            f"weights must stay positive once normalized to sum 1: "
            f"{min(weights)!r} of a total {total!r} underflows to 0")
    return scaled


class CubicBounds(NamedTuple):
    lower: float
    upper: float
    holds: bool


class _MomentFields(NamedTuple):
    mean: float
    second_moment: float
    third_moment: float
    variance: float
    support_min: float
    support_max: float


class MomentReport(_MomentFields):
    """First three moments plus the support window of a distribution.

    `support_min`/`support_max` may be infinite; for genuinely unbounded
    support the cubic bounds below degenerate to the whole line.  Every way
    of building a report (a call, `_make`, `_replace`) checks it: a negative
    or NaN variance, a NaN moment and a mean outside the support raise
    InvalidReportError.
    """

    __slots__ = ()

    def __new__(cls, mean: float, second_moment: float, third_moment: float,
                variance: float, support_min: float, support_max: float) -> MomentReport:
        if not variance >= 0.0:  # also nan
            raise InvalidReportError(f"variance must be nonnegative, got {variance!r}")
        if math.isnan(second_moment) or math.isnan(third_moment):
            raise InvalidReportError(
                f"moments must be numbers, got {second_moment!r}, {third_moment!r}")
        slack = 1e-12 * max(1.0, abs(support_min), abs(support_max))
        if not (support_min - slack <= mean <= support_max + slack):
            raise InvalidReportError(
                f"mean {mean!r} outside support [{support_min!r}, {support_max!r}]")
        return super().__new__(cls, mean, second_moment, third_moment, variance,
                               support_min, support_max)

    @classmethod
    def _make(cls, iterable: Iterable[float]) -> MomentReport:
        # the named tuple's own _make, which _replace calls, skips __new__
        return cls(*iterable)

    @classmethod
    def from_values(
        cls, values: Sequence[float], weights: Sequence[float] | None = None
    ) -> MomentReport:
        """Empirical moments of a finite sample (equal weights by default).

        Raises DomainError for non-finite values or weights, for a weight
        that underflows to 0 once the weights are normalized to sum 1, and
        for moments outside the float range.
        """
        xs = list(map(_float, values))
        if not xs:
            raise DomainError("cannot build a moment report from an empty sample")
        if not all(map(math.isfinite, xs)):
            raise DomainError("sample values must be finite")
        if weights is None:
            ws = [1.0 / len(xs)] * len(xs)
        else:
            ws = list(map(_float, weights))
            if len(ws) != len(xs) or not all(math.isfinite(w) and w > 0.0 for w in ws):
                raise DomainError("weights must be finite, positive and match the points")
            try:
                total = math.fsum(ws)
            except OverflowError:
                raise DomainError("the sum of the weights exceeds the float range") from None
            ws = _normalized(ws, total)
        try:
            mean = math.fsum(w * x for w, x in zip(ws, xs))
            m2 = math.fsum(w * x * x for w, x in zip(ws, xs))
            m3 = math.fsum(w * x * x * x for w, x in zip(ws, xs))
            variance = max(0.0, math.fsum(w * (x - mean) ** 2 for w, x in zip(ws, xs)))
            finite = all(map(math.isfinite, (mean, m2, m3, variance)))
        except (OverflowError, ValueError):  # a term or partial sum left the range
            finite = False
        if not finite:
            raise DomainError("the sample's moments exceed the float range")
        return cls(mean, m2, m3, variance, min(xs), max(xs))


def cubic_moment_bounds(report: MomentReport) -> CubicBounds:
    """Two-sided bound on the third moment from mean, variance and support:

        (EX)^3 + 3 (min X) Var X  <=  EX^3  <=  (EX)^3 + 3 (max X) Var X.

    Holds for every law with the reported support window; the quotient-mean
    inequality behind it does not depend on the number of atoms.  Infinite
    support bounds yield infinite (vacuously true) bounds, except that a
    zero variance always collapses both sides to (EX)^3.
    """

    try:
        cube = report.mean ** 3
    except OverflowError:
        raise DomainError(f"the cubed mean of {report.mean!r} exceeds the float range") from None

    def side(bound: float) -> float:
        if report.variance == 0.0:
            return cube
        return cube + 3.0 * bound * report.variance

    lower = side(report.support_min)
    upper = side(report.support_max)
    slack = 1e-12 * max(1.0, abs(lower), abs(upper), abs(report.third_moment))
    holds = (lower - slack <= report.third_moment <= upper + slack)
    return CubicBounds(lower, upper, holds)
