"""Classical bivariate means and their profiles relative to the arithmetic mean.

Six symmetric, order-one homogeneous means of two positive numbers are
provided: harmonic, geometric, logarithmic, identric, arithmetic and Gini.
For distinct arguments they form the strict chain

    min < H < G < L < I < A < S < max.

Every mean M here factors as M(a, b) = A(a, b) * m(t) with A the arithmetic
mean and t = (b - a) / (b + a) in [0, 1).  The profiles m(t) are exposed by
:func:`ratio_to_a` and are the numerically safe route near a == b, where the
textbook formulas for the logarithmic and identric means divide one vanishing
quantity by another.  Inputs up to 1e300 are supported without overflow: the
identric and Gini means are evaluated in log space and the harmonic mean from
reciprocals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

from .errors import DomainError, UsageError

__all__ = [
    "Mean",
    "MEAN_CHAIN",
    "PositivePair",
    "arithmetic",
    "geometric",
    "gini",
    "harmonic",
    "identric",
    "logarithmic",
    "mean_value",
    "ratio_to_a",
    "symmetric_coordinate",
]

# Below this coordinate the logarithmic/identric profiles switch to their even
# Maclaurin series; truncation there is < 1e-24, far below branch tolerance.
SERIES_COORDINATE = 1e-6

# Profile helpers use series up to here; direct formulas are exact enough above.
_HELPER_SERIES_T = 0.25


class Mean(str, Enum):
    """Closed enumeration of the six classical means."""

    HARMONIC = "H"
    GEOMETRIC = "G"
    LOGARITHMIC = "L"
    IDENTRIC = "I"
    ARITHMETIC = "A"
    GINI = "S"

    @classmethod
    def parse(cls, token: "Mean | str") -> "Mean":
        if isinstance(token, cls):
            return token
        try:
            return cls(str(token).strip().upper())
        except ValueError:
            raise UsageError(
                f"unknown mean identifier {token!r}; expected one of "
                f"{[m.value for m in cls]}"
            ) from None


#: Chain order of the six means (ascending for distinct arguments).
MEAN_CHAIN = (
    Mean.HARMONIC,
    Mean.GEOMETRIC,
    Mean.LOGARITHMIC,
    Mean.IDENTRIC,
    Mean.ARITHMETIC,
    Mean.GINI,
)


def _check_positive(a: float, b: float) -> None:
    if not (math.isfinite(a) and math.isfinite(b)) or a <= 0.0 or b <= 0.0:
        raise DomainError(f"arguments must be finite positive reals, got ({a!r}, {b!r})")


def _check_coordinate(t: float) -> None:
    if not math.isfinite(t) or t < 0.0 or t >= 1.0:
        raise DomainError(f"symmetric coordinate must lie in [0, 1), got {t!r}")


@dataclass(frozen=True)
class PositivePair:
    """An unordered pair of positive reals, the domain of every mean here."""

    a: float
    b: float

    def __post_init__(self) -> None:
        _check_positive(self.a, self.b)

    @property
    def scale(self) -> float:
        """The arithmetic mean of the pair."""
        return 0.5 * self.a + 0.5 * self.b

    @property
    def t(self) -> float:
        """Symmetric coordinate |b - a| / (b + a), in [0, 1)."""
        return symmetric_coordinate(self.a, self.b)

    def canonical(self) -> "PositivePair":
        """The same pair ordered so that a <= b."""
        if self.a <= self.b:
            return self
        return PositivePair(self.b, self.a)

    @classmethod
    def from_symmetric(cls, t: float, scale: float = 1.0) -> "PositivePair":
        """Pair (scale*(1-t), scale*(1+t)) with arithmetic mean `scale`."""
        _check_coordinate(t)
        if not math.isfinite(scale) or scale <= 0.0:
            raise DomainError(f"scale must be a finite positive real, got {scale!r}")
        return cls(scale * (1.0 - t), scale * (1.0 + t))


def symmetric_coordinate(a: float, b: float) -> float:
    """t = |b - a| / (b + a); zero iff a == b.

    Computed from halves so the sum cannot overflow near the float ceiling,
    and clamped below 1 so that extreme ratios (b/a beyond 1/eps) stay
    inside the open profile domain after rounding.
    """
    _check_positive(a, b)
    half_a, half_b = 0.5 * a, 0.5 * b
    t = abs(half_b - half_a) / (half_a + half_b)
    if t >= 1.0:
        t = math.nextafter(1.0, 0.0)
    return t


# ---------------------------------------------------------------------------
# profile helpers shared with the lambda family and the inequality toolkit
# ---------------------------------------------------------------------------


def _nu(t: float) -> float:
    """((1+t)log(1+t) + (1-t)log(1-t)) / t**2, continued by 1 at t = 0.

    Equals 2*log(S/A)/t**2; also the reciprocal of the order-1 quotient-mean
    profile.  Series below _HELPER_SERIES_T, direct evaluation above.
    """
    if t == 0.0:
        return 1.0
    if t < _HELPER_SERIES_T:
        t2 = t * t
        acc = 0.0
        power = 1.0
        k = 0
        while True:
            term = power / ((k + 1) * (2 * k + 1))
            acc += term
            if term <= 1e-18 * acc:
                return acc
            power *= t2
            k += 1
    return ((1.0 + t) * math.log1p(t) + (1.0 - t) * math.log1p(-t)) / (t * t)


def _mu(t: float) -> float:
    """log(I/A) profile: ((1+t)log(1+t) - (1-t)log(1-t))/(2t) - 1; 0 at t = 0."""
    if t == 0.0:
        return 0.0
    if t < _HELPER_SERIES_T:
        t2 = t * t
        acc = 0.0
        power = t2
        m = 1
        while True:
            term = power / (2 * m * (2 * m + 1))
            acc += term
            if term <= 1e-18 * acc:
                return -acc
            power *= t2
            m += 1
    return ((1.0 + t) * math.log1p(t) - (1.0 - t) * math.log1p(-t)) / (2.0 * t) - 1.0


def _ratio_h(t: float) -> float:
    # (1-t)*(1+t) keeps full precision as t -> 1, unlike 1 - t*t.
    return (1.0 - t) * (1.0 + t)


def _ratio_g(t: float) -> float:
    return math.sqrt((1.0 - t) * (1.0 + t))


def _ratio_l(t: float) -> float:
    if t < SERIES_COORDINATE:
        t2 = t * t
        return 1.0 / (1.0 + t2 / 3.0 + t2 * t2 / 5.0 + t2 * t2 * t2 / 7.0)
    return t / math.atanh(t)


def _ratio_i(t: float) -> float:
    return math.exp(_mu(t))


def _ratio_s(t: float) -> float:
    return math.exp(0.5 * t * t * _nu(t))


_RATIO_TABLE = {
    Mean.HARMONIC: _ratio_h,
    Mean.GEOMETRIC: _ratio_g,
    Mean.LOGARITHMIC: _ratio_l,
    Mean.IDENTRIC: _ratio_i,
    Mean.ARITHMETIC: lambda t: 1.0,
    Mean.GINI: _ratio_s,
}


def ratio_to_a(kind: Mean | str, t: float) -> float:
    """Profile M(1+t, 1-t) of the mean `kind` relative to the arithmetic mean.

    Closed forms:

        H/A = 1 - t^2                   G/A = sqrt(1 - t^2)
        L/A = t / atanh(t)              I/A = exp(mu(t))
        S/A = exp(t^2 nu(t) / 2)        A/A = 1

    with the t -> 0 limit 1 in every case.  t must lie in [0, 1).
    """
    kind = Mean.parse(kind)
    _check_coordinate(t)
    if t == 0.0:
        return 1.0
    return _RATIO_TABLE[kind](t)


def _profile_row(kind: Mean | str, t_values: Sequence[float]) -> list[float]:
    """[ratio_to_a(kind, t) for t in t_values], bit for bit, with the mean
    parsed and its profile chosen once per row instead of once per point.
    The first coordinate outside [0, 1) raises as ratio_to_a would."""
    kind = Mean.parse(kind)
    for t in t_values:
        if not 0.0 <= t < 1.0:
            _check_coordinate(t)
    profile = _RATIO_TABLE[kind]
    return [profile(t) if t else 1.0 for t in t_values]


# ---------------------------------------------------------------------------
# the means themselves
# ---------------------------------------------------------------------------


def harmonic(a: float, b: float) -> float:
    """Harmonic mean 2ab/(a+b), computed from reciprocals (overflow safe)."""
    _check_positive(a, b)
    if 1e-300 < a < 1e300 and 1e-300 < b < 1e300:
        return 2.0 / (1.0 / a + 1.0 / b)
    # reciprocals of extreme arguments leave the normal range; lo / hi does not
    lo, hi = (a, b) if a <= b else (b, a)
    return lo * (2.0 / (1.0 + lo / hi))


def geometric(a: float, b: float) -> float:
    """Geometric mean sqrt(ab), as sqrt(a)*sqrt(b) (overflow safe)."""
    _check_positive(a, b)
    if a == b:
        return float(a)
    return math.sqrt(a) * math.sqrt(b)


def logarithmic(a: float, b: float) -> float:
    """Logarithmic mean (b-a)/(log b - log a), continued by a at a == b.

    The log difference is taken as log1p((b-a)/a), which keeps full
    precision from nearly equal arguments out to extreme ratios.
    """
    _check_positive(a, b)
    if a == b:
        return float(a)
    lo, hi = (a, b) if a <= b else (b, a)
    if hi < 2e15 * lo:
        return (hi - lo) / math.log1p((hi - lo) / lo)
    # widely separated: the log difference is large, safe to take directly
    # (and (hi - lo)/lo could overflow for ratios beyond 1e308)
    return (hi - lo) / (math.log(hi) - math.log(lo))


def identric(a: float, b: float) -> float:
    """Identric mean exp((b log b - a log a)/(b - a) - 1), continued by a.

    Evaluated as A * exp(mu(t)), the cancellation-free factoring of the
    log-space formula; exact for a == b by the continuity branch.
    """
    _check_positive(a, b)
    if a == b:
        return float(a)
    t = symmetric_coordinate(a, b)
    return (0.5 * a + 0.5 * b) * _ratio_i(t)


def arithmetic(a: float, b: float) -> float:
    """Arithmetic mean (a+b)/2."""
    _check_positive(a, b)
    return 0.5 * a + 0.5 * b


def gini(a: float, b: float) -> float:
    """Gini mean a^(a/(a+b)) * b^(b/(a+b)), evaluated in log space.

    The exponent is the convex weight form w log a + (1-w) log b with
    w = a/(a+b), which never exceeds max(log a, log b), so arguments at the
    very top of the float range cannot overflow the intermediate products.
    """
    _check_positive(a, b)
    if a == b:
        return float(a)
    half_a, half_b = 0.5 * a, 0.5 * b
    weight = half_a / (half_a + half_b)
    return math.exp(weight * math.log(a) + (1.0 - weight) * math.log(b))


_MEAN_TABLE = {
    Mean.HARMONIC: harmonic,
    Mean.GEOMETRIC: geometric,
    Mean.LOGARITHMIC: logarithmic,
    Mean.IDENTRIC: identric,
    Mean.ARITHMETIC: arithmetic,
    Mean.GINI: gini,
}


def mean_value(kind: Mean | str, a: float, b: float) -> float:
    """Evaluate the classical mean named by `kind` at (a, b)."""
    return _MEAN_TABLE[Mean.parse(kind)](a, b)
