"""Weighted Jensen gaps, quotient means of function pairs, and moment bounds.

The Jensen gap of h at a weighted sample is

    gap(h) = sum_i p_i h(x_i) - h(sum_i p_i x_i),

nonnegative for convex h and zero when all points coincide.  For a pair
(f, g) with g strictly convex, the quotient gap(f)/gap(g) is a mean of the
sample points -- it lands in [min x, max x] for every sample -- exactly when
f''(t) = t g''(t) on the working interval.  Given g, that relation pins f up
to an affine term: f(t) = t g(t) - 2 G(t) + c t + d with G an antiderivative
of g, and affine terms never change the quotient.

The one-parameter power family realized by :func:`power_generator` (curvature
t^(s-2)) generates the bivariate lambda family: for a two-point sample with
equal weights, the quotient of the order-(s+1) and order-s gaps is
lambda_s(x1, x2).  The order-s gap itself, :func:`power_gap`, is log-convex
in s, which makes the gap quotient monotone in the order.

All power gaps share one centred kernel: gap_s = c^s sum_i p_i phi_s(x_i/c)
with c the weighted centre and phi_s = power_generator(s, .), whose terms are
nonnegative and O((x_i/c - 1)^2), so nothing cancels across points.  A gap
or gap-ratio call makes one pass over the sample: the least and largest
points, taken once, give the reach max |x_i/c - 1|, and the deviations, logs
and ratios are formed once for both orders of a ratio.  One form is chosen
per call: a moment series for small deviations (one loop over the moments
serves both orders), the expm1 closed form of phi, or that form scaled by
its largest power.  phi's coefficients (:func:`_phi_form`) and the scaled
form live in :mod:`jensenmeans._kernel`, which the two-point family in
:mod:`jensenmeans.lambda_family` shares; the series is this module's own.

The cubic special case (f = t**3/3, g = t**2, valid on all of R) yields the
third-moment bounds of :func:`cubic_moment_bounds`.  They and
:class:`MomentReport` live in :mod:`jensenmeans._moments`, which needs none of
this module, and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import wraps
from operator import mul
from typing import Callable, Sequence

from ._kernel import _check_order, _phi_form, _phi_sum, _scaled_quotient
from ._moments import CubicBounds, MomentReport, _normalized, cubic_moment_bounds
from .errors import (
    DegenerateSampleError,
    DomainError,
    InvalidPairError,
    UsageError,
    _float,
    _repr,
)

__all__ = [
    "ConvexPair",
    "CubicBounds",
    "MomentReport",
    "WeightedSample",
    "cubic_moment_bounds",
    "jensen_gap",
    "lambda_quotient",
    "log_convexity_holds",
    "mean_condition_residual",
    "pair_from_g",
    "power_gap",
    "power_gap_ratio",
    "power_generator",
    "power_generator_d1",
    "power_generator_d2",
    "power_pair",
]

Evaluator = Callable[[float], float]


@dataclass(frozen=True)
class WeightedSample:
    """Sample points with positive weights, normalized to sum 1 on construction;
    a weight that underflows to 0 there raises DomainError."""

    points: tuple[float, ...]
    weights: tuple[float, ...]

    def __init__(self, points: Sequence[float], weights: Sequence[float] | None = None):
        pts = tuple(map(_float, points))
        if len(pts) < 2:
            raise DomainError(f"a weighted sample needs at least 2 points, got {len(pts)}")
        if not all(math.isfinite(x) for x in pts):
            raise DomainError("sample points must be finite")
        if weights is None:
            wts = (1.0 / len(pts),) * len(pts)
        else:
            raw = tuple(map(_float, weights))
            if len(raw) != len(pts):
                raise DomainError(
                    f"got {len(pts)} points but {len(raw)} weights"
                )
            if not all(math.isfinite(w) and w > 0.0 for w in raw):
                raise DomainError("weights must be finite and strictly positive")
            try:
                total = math.fsum(raw)
            except OverflowError:  # their sum passes the float range: scale it down
                raw = tuple(math.ldexp(w, -len(raw).bit_length()) for w in raw)
                total = math.fsum(raw)
            wts = tuple(_normalized(raw, total))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)

    @property
    def mean(self) -> float:
        return math.fsum(map(mul, self.weights, self.points))

    @property
    def min_point(self) -> float:
        return min(self.points)

    @property
    def max_point(self) -> float:
        return max(self.points)

    def is_degenerate(self, rel: float = 0.0) -> bool:
        """Spread at most `rel` times the largest magnitude (0: all equal)."""
        return _degenerate(self.min_point, self.max_point, rel)


def _degenerate(lo: float, hi: float, rel: float = 0.0) -> bool:
    """Whether points spanning [lo, hi] span at most `rel` times their largest magnitude."""
    return hi - lo <= rel * max(abs(lo), abs(hi), 1e-300)


def _check_positive(lo: float) -> None:
    if lo <= 0.0:
        raise DomainError("this operation needs strictly positive sample points")


def jensen_gap(h: Evaluator, sample: WeightedSample) -> float:
    """sum p_i h(x_i) - h(sum p_i x_i); >= 0 for convex h, 0 if all points equal.

    Raises DomainError where the gap is not finite, as where h overflows at
    the points and the centre (inf - inf).
    """
    center = sample.mean
    terms = list(map(mul, sample.weights, map(h, sample.points)))
    at_center = h(center)
    try:
        gap = math.fsum(terms) - at_center
    except ValueError:  # fsum of inf and -inf
        gap = math.nan
    if not math.isfinite(gap):
        raise DomainError(f"the Jensen gap is not finite at this sample: {gap!r}")
    return gap


def _fd_second(h: Evaluator, t: float) -> float:
    # Central second difference with one Richardson step.  The relative step
    # 1e-4 sits near the eps**(1/4) roundoff/truncation optimum for second
    # differences; smaller steps push the eps/h^2 noise floor above the 1e-6
    # certification tolerance.
    step = 1e-4 * max(1.0, abs(t))
    coarse = (h(t + step) - 2.0 * h(t) + h(t - step)) / (step * step)
    half = 0.5 * step
    fine = (h(t + half) - 2.0 * h(t) + h(t - half)) / (half * half)
    return (4.0 * fine - coarse) / 3.0


@dataclass(frozen=True)
class ConvexPair:
    """Evaluators for a pair (f, g) intended to satisfy f'' = t g''.

    Second derivatives are optional; when absent they are estimated by
    Richardson-extrapolated central differences.  `interval` is the open
    domain both functions are defined on; operations never evaluate outside
    it.
    """

    f: Evaluator
    g: Evaluator
    g_second: Evaluator | None = None
    f_second: Evaluator | None = None
    antiderivative: Evaluator | None = None
    interval: tuple[float, float] = (0.0, math.inf)

    def f_second_at(self, t: float) -> float:
        return self.f_second(t) if self.f_second is not None else _fd_second(self.f, t)

    def g_second_at(self, t: float) -> float:
        return self.g_second(t) if self.g_second is not None else _fd_second(self.g, t)

    def check_hull(self, lo: float, hi: float) -> None:
        if not (self.interval[0] < lo and hi < self.interval[1]):
            raise DomainError(
                f"sample hull [{lo}, {hi}] leaves the pair's interval {self.interval}"
            )


def lambda_quotient(pair: ConvexPair, sample: WeightedSample) -> float:
    """Quotient of Jensen gaps gap(f)/gap(g) at the sample.

    A mean of the points whenever the pair satisfies the curvature relation
    on the hull.  Degenerate samples are rejected (0/0), as are pairs whose
    g-gap fails to be strictly positive.
    """
    lo, hi = min(sample.points), max(sample.points)
    if _degenerate(lo, hi, 1e-13):
        raise DegenerateSampleError("all sample points coincide; the quotient is 0/0")
    pair.check_hull(lo, hi)
    if isinstance(pair, _PowerPair):
        return _gap_ratio(pair.order, sample, lo, hi)
    gap_g = jensen_gap(pair.g, sample)
    if not gap_g > 0.0:
        raise InvalidPairError(
            f"g-gap must be strictly positive (g strictly convex); got {gap_g!r}"
        )
    quotient = jensen_gap(pair.f, sample) / gap_g
    if not math.isfinite(quotient):
        raise DomainError(f"the gap quotient exceeds the float range at this sample: "
                          f"{quotient!r}")
    return quotient


def pair_from_g(
    g: Evaluator,
    g_second: Evaluator,
    antiderivative: Evaluator | None = None,
    interval: tuple[float, float] = (0.0, math.inf),
) -> ConvexPair:
    """Build the mean-generating partner f(t) = t g(t) - 2 G(t) of g.

    G is an antiderivative of g with G(1) = 0; when not supplied it falls
    back to mpmath quadrature from 1 (declared tolerance 1e-10).  The
    affine constants of the general solution are dropped -- they never
    affect a gap quotient.  f'' = t g'' then holds identically; the residual
    check recovers it by finite differences to ~1e-6.
    """
    if antiderivative is None:
        from .highprec import _MP_LOCK, mp

        def antiderivative(t: float, _g=g) -> float:
            with _MP_LOCK, mp.workdps(15):
                return float(mp.quad(lambda u: _g(float(u)), [1.0, t]))

    def f(t: float) -> float:
        return t * g(t) - 2.0 * antiderivative(t)

    return ConvexPair(
        f=f, g=g, g_second=g_second, f_second=None,
        antiderivative=antiderivative, interval=interval,
    )


def mean_condition_residual(pair: ConvexPair, grid: Sequence[float]) -> float:
    """max over the grid of |f''(t) - t g''(t)|.

    Uses supplied second derivatives when present, finite differences
    otherwise.  Zero (to tolerance) certifies that the quotient is a mean on
    the gridded interval; a clearly positive residual flags a non-mean pair.
    Raises DomainError at a grid point where the residual is NaN, or where
    finite f'' and g'' give a residual past the float range; an infinite
    f'' or g'' gives an infinite residual.
    """
    worst = 0.0
    for t in grid:
        if not (pair.interval[0] < t < pair.interval[1]):
            raise DomainError(f"grid point {_repr(t)} leaves the pair's interval")
        f_second, g_second = pair.f_second_at(t), pair.g_second_at(t)
        residual = abs(f_second - t * g_second)
        if math.isnan(residual):
            raise DomainError(f"f'' - t g'' is NaN at grid point {_repr(t)}")
        if residual == math.inf and math.isfinite(f_second) and math.isfinite(g_second):
            raise DomainError(f"f'' - t g'' exceeds the float range at grid point {_repr(t)}")
        worst = max(worst, residual)
    return worst


# ---------------------------------------------------------------------------
# the power family
# ---------------------------------------------------------------------------


# Largest deviation |x_i/c - 1| whose gaps are summed as a moment series.
_T_SWITCH = 1e-3
# Relative rounding bound of the kernel's log gaps, as log_convexity_holds
# compares them.  The kernel is not uniform in the reach: just past the
# series switch, for reach in [1e-3, 1.5e-3], its gaps are off by up to
# 6.3e-13 (2-6 points, orders in [-50, 50], against 60-digit mpmath).
_LOG_GAP_SLACK = 1e-12


def _in_float_range(generator: Callable[[float, float], float]) -> Callable[[float, float], float]:
    """Check a power-family function's order and argument, and raise
    DomainError where its value leaves the float range."""

    @wraps(generator)
    def checked(s: float, t: float) -> float:
        s = _check_order(s)
        if not 0.0 < _float(t) < math.inf:
            raise DomainError(f"the power family lives on finite t > 0, got {_repr(t)}")
        try:
            value = generator(s, t)
        except OverflowError:
            value = math.inf
        if math.isinf(value):
            raise DomainError(
                f"{generator.__name__}({_repr(s)}, {_repr(t)}) exceeds the float range")
        return value

    return checked


@_in_float_range
def power_generator(s: float, t: float) -> float:
    """Normalized convex power function of order s: curvature t^(s-2).

        (t^s - s t + s - 1) / (s (s - 1)),   limits t - log t - 1 at s = 0
                                             and t log t - t + 1 at s = 1.

    Vanishes, as +0.0, with its first derivative at t = 1 for every order.
    The kernel's one closed form (:func:`_phi_form`) serves every order, the
    limits included, with no loss near 0 and 1.  Raises DomainError beyond the
    order limit, for t not finite and positive, and where the value is not.
    """
    if t == 1.0:
        return 0.0  # the form's zero would carry the signs of its factors
    scaled, power, e, c, k = _phi_form(s)
    return ((t if scaled else 1.0) * power(e * math.log(t)) + c * (t - 1.0)) / k


@_in_float_range
def power_generator_d1(s: float, t: float) -> float:
    """First derivative of :func:`power_generator`: (t^(s-1) - 1)/(s - 1).

    Raises DomainError like :func:`power_generator`.
    """
    if s == 1.0:
        return math.log(t)
    return math.expm1((s - 1.0) * math.log(t)) / (s - 1.0)


@_in_float_range
def power_generator_d2(s: float, t: float) -> float:
    """Second derivative of :func:`power_generator`: exactly t^(s-2).

    Raises DomainError like :func:`power_generator`.
    """
    return t ** (s - 2.0)


@dataclass(frozen=True)
class _PowerPair(ConvexPair):
    """A power pair remembers its order, so that its gap quotient runs
    through the centred kernel instead of differencing f and g values."""

    order: float = 0.0


def power_pair(s: float) -> ConvexPair:
    """The order-s mean-generating pair (orders s+1 over s) with exact derivatives."""
    _check_order(s)
    return _PowerPair(
        f=lambda t: power_generator(s + 1.0, t),
        g=lambda t: power_generator(s, t),
        g_second=lambda t: power_generator_d2(s, t),
        f_second=lambda t: power_generator_d2(s + 1.0, t),
        interval=(0.0, math.inf),
        order=s,
    )


def _use_series(s: float, reach: float) -> bool:
    """Whether deviations up to `reach` are summed as a moment series at order
    s; the bound on |s| reach keeps huge orders off a series that converges
    slowly (its terms shrink 20-fold or more per power)."""
    return reach < _T_SWITCH and abs(s) * reach < 0.05


def _moment_series(orders: Sequence[float], weights: Sequence[float],
                   devs: Sequence[float], reach: float) -> list[tuple[float, float, float]]:
    """(0, sum_i p_i phi_sigma(1 + d_i), 1) per order sigma, the sum as reach^2 times
    sum_{k>=2} c_k reach^(k-2) m_k with m_k = sum_i p_i (d_i / reach)^k and
    phi_sigma's Taylor coefficients at 1, c_2 = 1/2, c_(k+1) = c_k (sigma - k)/(k + 1).
    Each moment is formed once for all orders; each order stops on its own."""
    units = [d / reach for d in devs]
    powers = [p * u * u for p, u in zip(weights, units)]
    coefs = [0.5] * len(orders)  # 0 once an order has stopped
    sums = [0.0] * len(orders)
    k = 2.0
    while True:
        moment = math.fsum(powers)
        for i, sigma in enumerate(orders):
            if coef := coefs[i]:
                sums[i] += coef * moment
                coef *= (sigma - k) / (k + 1.0) * reach
                # |m_k| <= m_2 and the sum ~ m_2 / 2, so 2 |coef| bounds what is left
                coefs[i] = coef if abs(coef) > 5e-18 else 0.0
        if not any(coefs):
            return [(0.0, reach * reach * acc, 1.0) for acc in sums]
        powers = list(map(mul, powers, units))
        k += 1.0


def _closed_sums(orders: Sequence[float], points: Sequence[float], weights: Sequence[float],
                 center: float, devs: Sequence[float],
                 low: float) -> list[tuple[float, float, float]]:
    """_phi_sum per order at x_i = points[i] / c, the least deviation being
    `low`, from one column of logs and of ratios and one top per sign."""
    if low > -0.5:
        logs = list(map(math.log1p, devs))
    else:  # log x_i - log c stands in where x_i / c is below the normal range
        logs = [math.log1p(d) if d > -0.5 else math.log(r) if (r := x / center) >= 2.0 ** -1022
                else math.log(x) - math.log(center) for x, d in zip(points, devs)]
    ratios = [x / center for x in points] if max(orders) > 0.5 else None
    top_hi = max(logs) if max(orders) > 0.0 else None
    top_lo = min(logs) if min(orders) <= 0.0 else None
    return [_phi_sum(o, weights, ratios, devs, logs, top_hi if o > 0.0 else top_lo) for o in orders]


def _gap_sums(sample: WeightedSample, lo: float, hi: float,
              orders: Sequence[float]) -> tuple[float, list[tuple[float, float, float]]]:
    """The centre c and, per order, sum_i p_i phi(x_i / c) as (top, rest, k) (see
    _phi_sum) at a sample with least point lo and largest hi, formed in one pass
    in the form that the last order selects."""
    points, weights = sample.points, sample.weights
    center = math.fsum(map(mul, weights, points))
    low = (lo - center) / center  # (x - c)/c is monotone in x
    reach = max((hi - center) / center, -low)
    devs = [(x - center) / center for x in points]
    if _use_series(orders[-1], reach):
        return center, _moment_series(orders, weights, devs, reach)
    return center, _closed_sums(orders, points, weights, center, devs, low)


def power_gap(s: float, sample: WeightedSample) -> float:
    """Weighted Jensen gap of the order-s power generator.

        (sum p x^s - (sum p x)^s) / (s (s - 1)),
        log(sum p x) - sum p log x            at s = 0,
        sum p x log x - (sum p x) log(...)    at s = 1.

    Nonnegative always; zero exactly when all points coincide, mirroring
    the equal-argument branch of the mean family.  Raises DomainError when
    the gap, or the power of the centre it carries, exceeds the float range.
    """
    _check_order(s)
    lo, hi = min(sample.points), max(sample.points)
    _check_positive(lo)
    if lo == hi:
        return 0.0
    center, [(top, rest, k)] = _gap_sums(sample, lo, hi, (s,))
    # the leading point c e^top of a scaled sum, in logs where e^top underflows
    base = center * math.exp(top) if top > -700.0 else math.exp(math.log(center) + top)
    try:
        gap = base ** s * (rest / k)
    except OverflowError:
        gap = math.inf
    if gap == math.inf:
        raise DomainError(f"the order-{_repr(s)} gap of this sample exceeds the float range")
    return gap


def _log_gap(s: float, sample: WeightedSample, lo: float, hi: float) -> float:
    """log power_gap(s, sample) of a nondegenerate sample with least point lo
    and largest hi, formed from the kernel's sums without the gap itself, so it
    exists outside the float range too (-inf where the sum itself underflows,
    as a moment series can at subnormal weights)."""
    center, [(top, rest, k)] = _gap_sums(sample, lo, hi, (s,))
    if k < 0.0:  # 0 < s < 1 in the scaled form
        rest, k = -rest, -k
    if not rest > 0.0:
        return -math.inf
    return s * (math.log(center) + top) + math.log(rest) - math.log(k)


def _gap_ratio(s: float, sample: WeightedSample, lo: float, hi: float) -> float:
    """power_gap_ratio at a sample whose least and largest points are lo and hi."""
    _check_order(s)
    _check_positive(lo)
    if lo == hi:
        raise DegenerateSampleError("gap ratio is 0/0 when all points coincide")
    center, (upper, lower) = _gap_sums(sample, lo, hi, (s + 1.0, s))
    value = _scaled_quotient(s, upper, lower, center)
    # at large orders the scaled form rounds past an end point, or overflows
    # next to the float maximum, as in lambda_mean
    return lo if value < lo else hi if value > hi else value


def power_gap_ratio(s: float, sample: WeightedSample) -> float:
    """Gap quotient of consecutive orders: power_gap(s+1)/power_gap(s).

    Monotone non-decreasing in s for a fixed sample; for a two-point sample
    with equal weights it equals the bivariate family value at the points.
    Never forms c^s; rejects only a sample whose points all coincide.
    """
    return _gap_ratio(s, sample, min(sample.points), max(sample.points))


def log_convexity_holds(a: float, b: float, c: float, sample: WeightedSample) -> bool:
    """Check gap(b)^(c-a) <= gap(a)^(c-b) * gap(c)^(b-a) in log space.

    Requires a < b < c.  A degenerate sample (all gaps zero) passes by the
    0 <= 0 convention.  The comparison allows a relative slack of 1e-12,
    the kernel's rounding bound, so exact equality cases are not rejected
    by rounding.
    """
    if not (a < b < c):
        raise UsageError(
            f"orders must be strictly increasing, got {_repr(a)}, {_repr(b)}, {_repr(c)}")
    for order in (a, b, c):
        _check_order(order)
    lo, hi = min(sample.points), max(sample.points)
    _check_positive(lo)
    if lo == hi:
        return True
    log_a, log_b, log_c = (_log_gap(order, sample, lo, hi) for order in (a, b, c))
    if -math.inf in (log_a, log_b, log_c):
        return True
    lhs = (c - a) * log_b
    rhs = (c - b) * log_a + (b - a) * log_c
    return lhs <= rhs + _LOG_GAP_SLACK * max(1.0, abs(lhs), abs(rhs))
