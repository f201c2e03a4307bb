"""Certification toolkit for the quotient-mean comparison theorems.

The family lambda_s threads the classical chain H < G < L < I < A < S as the
order s grows.  Writing t = (b-a)/(b+a), every comparison reduces to a
one-variable inequality between profiles on t in (0, 1).  This module holds

* the analytic pieces of those reductions: the log defect certifying the
  order-0 vs logarithmic comparison (:func:`log_defect`), its exact-rational
  series coefficients (:func:`series_table`), the identric-over-order-1
  profile with its monotonicity and limits (:func:`identric_parts`), and the
  t -> 1 limit defect against the identric mean (:func:`identric_limit_defect`);
* the theorem's sharp orders, each with the evidence that it holds there
  and breaks just past it (:func:`solve_threshold`);
* checks that verify each claimed comparison interval at the end orders
  that bind it and hunt violation witnesses just outside its endpoints
  (:func:`verify_part`).

Where a violation exists only for astronomically unbalanced pairs (the
geometric lower endpoint is the extreme case: the first failing coordinate
sits near 1 - t ~ 1e-100), the searches probe the pairs (1 - t, 2) down to
1 - t = 1e-300 in double precision: :func:`lambda_mean` carries the small
argument and its logarithm exactly.  All evidence is floating-point at
declared tolerances; nothing here is interval-certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .classical import Mean, _mu, _nu, _profile_row, mean_value, ratio_to_a
from .errors import BracketError, DomainError, UsageError
from .lambda_family import _ratio_columns, _ratio_row, lambda_mean, lambda_ratio

__all__ = [
    "PSI_SUP",
    "IdentricParts",
    "InequalityViolation",
    "PartReport",
    "SeriesTable",
    "SharpnessWitness",
    "ThresholdResult",
    "identric_limit_defect",
    "identric_limit_defect_root",
    "identric_parts",
    "limit_ratio_at_t1",
    "log_defect",
    "series_table",
    "solve_threshold",
    "threshold_catalog",
    "verify_part",
]

#: Supremum of the identric-over-order-1 profile: 4 log(2) / e ~ 1.0200.
PSI_SUP = 4.0 * math.log(2.0) / math.e

# Margins beyond this are treated as genuine violations rather than noise.
_VIOLATION_FLOOR = 5e-12

# Worst margins within this of zero count as holding in the threshold solver.
_SIGN_SLACK = 1e-12

# log-defect evaluation: series below, direct formula above.
_DEFECT_SERIES_T = 0.2

_LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# series coefficients (exact rationals)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesTable:
    """Exact coefficients of the log-defect expansion phi(t)/t^2 = sum c_n t^(2n).

    `c_closed` comes from the harmonic-sum closed form, `c_convolution` from
    the Cauchy-product route; they agree identically.  `d` holds the harmonic
    kernel d_n = (n+2) sum_{k<=n} 1/(2k+1) - (n+1) sum_{k<=n} 1/(2k) with
    c_n = 2 d_n / ((n+1)(2n+3)); d_0 = d_1 = 0 and d_n < 0 from n = 2 on.
    Tuples are indexed by n directly.
    """

    c_closed: tuple[Fraction, ...]
    c_convolution: tuple[Fraction, ...]
    d: tuple[Fraction, ...]

    @property
    def n_max(self) -> int:
        return len(self.c_closed) - 1


def series_table(n_max: int, dual_route_up_to: int | None = None) -> SeriesTable:
    """Coefficient table up to n_max.

    The convolution route costs O(n^2) exact-rational operations, so it can
    be capped with `dual_route_up_to` when only the closed form is needed at
    large n (sign checks of d_n, say).
    """
    if not isinstance(n_max, int) or n_max < 2:
        raise UsageError(f"n_max must be an integer >= 2, got {n_max!r}")
    dual = n_max if dual_route_up_to is None else min(n_max, int(dual_route_up_to))

    odd_harmonic = Fraction(0)
    even_harmonic = Fraction(0)
    d = [Fraction(0)]
    for n in range(1, n_max + 1):
        odd_harmonic += Fraction(1, 2 * n + 1)
        even_harmonic += Fraction(1, 2 * n)
        d.append((n + 2) * odd_harmonic - (n + 1) * even_harmonic)

    c_closed = [2 * d[n] / ((n + 1) * (2 * n + 3)) for n in range(n_max + 1)]

    c_convolution = []
    for n in range(dual + 1):
        total = Fraction(-1, n + 1)
        for k in range(n + 1):
            total += Fraction(1, (2 * n - 2 * k + 1) * (k + 1) * (2 * k + 1))
        c_convolution.append(total)

    return SeriesTable(tuple(c_closed), tuple(c_convolution), tuple(d))


@lru_cache(maxsize=1)
def _defect_floats(n_max: int = 80) -> tuple[float, ...]:
    return tuple(float(c) for c in series_table(n_max, dual_route_up_to=2).c_closed)


# ---------------------------------------------------------------------------
# analytic pieces
# ---------------------------------------------------------------------------


def _check_open_unit(t: float) -> None:
    if not math.isfinite(t) or not (0.0 < t < 1.0):
        raise DomainError(f"argument must lie strictly inside (0, 1), got {t!r}")


def log_defect(t: float) -> float:
    """The defect whose sign settles the order-0 vs logarithmic comparison:

        atanh(t)/t * ((1+t)log(1+t) + (1-t)log(1-t)) + log(1 - t^2).

    Nonpositive on all of (0, 1); behaves like -t^6/90 as t -> 0, where the
    direct formula cancels catastrophically, so small arguments run through
    the all-negative coefficient series instead.
    """
    _check_open_unit(t)
    if t < _DEFECT_SERIES_T:
        coefficients = _defect_floats()
        t2 = t * t
        power = t2 * t2 * t2  # first contribution is c_2 t^6
        acc = 0.0
        for n in range(2, len(coefficients)):
            term = coefficients[n] * power
            acc += term
            if abs(term) <= 1e-18 * abs(acc):
                break
            power *= t2
        return acc
    return math.atanh(t) / t * (t * t * _nu(t)) + math.log1p(t) + math.log1p(-t)


class IdentricParts(NamedTuple):
    """Profile pieces of the identric-over-order-1 comparison at coordinate t."""

    log_i_over_a: float      # log of identric/arithmetic
    a_over_lambda1: float    # arithmetic/order-1 quotient mean
    i_over_lambda1: float    # their product: identric/order-1


def identric_parts(t: float) -> IdentricParts:
    """(log(I/A), A/lambda_1, I/lambda_1) at coordinate t in (0, 1).

    The last component increases strictly from 1 (t -> 0) to PSI_SUP
    (t -> 1); series branches keep both endpoints accurate.
    """
    _check_open_unit(t)
    exponent = _mu(t)
    scale = _nu(t)
    return IdentricParts(exponent, scale, math.exp(exponent) * scale)


def _two_power_ratio(s: float) -> float:
    """(2^(s+1) - 2) / (2^s - 2) for s != 1, stable across all magnitudes."""
    if s > 100.0:
        return 2.0  # relative departure below 2^-100
    gap = math.expm1(s * _LN2)  # 2^s - 1
    return 2.0 * gap / (gap - 1.0)


def identric_limit_defect(s: float) -> float:
    """Limit of lambda_s/I - 1 as the pair degenerates the other way (t -> 1):

        e (s-1) (2^(s+1) - 2) / (2 (s+1) (2^s - 2)) - 1.

    Defined away from the poles s = -1 and s = 1.  Its only real zero,
    s1 ~ 1.0376072818, is not the sharp lower order of the identric
    comparison: at s1 the claim I <= lambda_s still fails, by -6.9e-9, at
    1 - t ~ 5.75e-8, and the sharp order is the tangency 1.3e-8 above it.
    """
    if not math.isfinite(s):
        raise DomainError(f"order must be finite, got {s!r}")
    if abs(s - 1.0) < 1e-12 or abs(s + 1.0) < 1e-12:
        raise DomainError(f"limit defect has poles at orders 1 and -1, got {s!r}")
    return math.e * (s - 1.0) * _two_power_ratio(s) / (2.0 * (s + 1.0)) - 1.0


def _secant(fun: Callable[[float], float], x0: float, x1: float,
            tol: float) -> tuple[float, int]:
    """Secant root of fun from x0 and x1, and the steps taken.  It stops at
    a zero or after a step no longer than `tol`; a flat secant or 100 steps
    raise BracketError."""
    f0, f1 = fun(x0), fun(x1)
    for step in range(100):
        if f1 == 0.0 or step and abs(x1 - x0) <= tol:
            return x1, step
        if f1 == f0:
            break
        x0, x1, f0 = x1, x1 - f1 * (x1 - x0) / (f1 - f0), f1
        f1 = fun(x1)
    raise BracketError(f"secant search stalled at {x1!r} (value {f1:.3e})")


def identric_limit_defect_root(
    lo: float = 1.03, hi: float = 1.04, tol: float = 1e-12
) -> float:
    """The zero of the limit defect inside [lo, hi], by secant from its ends."""
    f_lo = identric_limit_defect(lo)
    f_hi = identric_limit_defect(hi)
    if min(f_lo, f_hi) > 0.0 or max(f_lo, f_hi) < 0.0:
        raise BracketError(
            f"no sign change of the limit defect on [{lo}, {hi}]: "
            f"{f_lo:.3e} vs {f_hi:.3e}"
        )
    return _secant(identric_limit_defect, lo, hi, tol)[0]


# ---------------------------------------------------------------------------
# the comparison theorem
# ---------------------------------------------------------------------------


class _Tangency(NamedTuple):
    """A sharp lower order fixed where lambda_s/mean - 1 touches zero
    inside the coordinate window [t_lo, t_hi], not at an end of (0, 1)."""

    t_lo: float
    t_hi: float


class _Row(NamedTuple):
    """One mean's sharp orders: lambda_s <= mean for every argument pair
    exactly when s <= upper, and mean <= lambda_s exactly when s >= lower."""

    mean: Mean
    upper: float
    # None when no finite order dominates the mean for all arguments
    lower: float | _Tangency | None
    limit_at_1: float | None  # profile mean/A as t -> 1; None: it tends to 0


# The theorem, in chain order; part k of verify_part (2..7) runs from row
# k-3's lower order to row k-2's upper order.  The upper orders are 2 + 6 c2
# for a mean profile 1 + c2 t^2 as t -> 0; as t -> 1, lambda_s/H -> (s-1)/(2(s+1))
# gives -3 and lambda_s/G ~ (1-t)^(-s-1/2) gives -1/2; lambda_2 is A.  The L and
# I lower orders are interior tangencies (t* ~ 0.98960, 1 - t ~ 5.75e-8).
_THEOREM = (
    _Row(Mean.HARMONIC, -4.0, -3.0, None),
    _Row(Mean.GEOMETRIC, -1.0, -0.5, None),
    _Row(Mean.LOGARITHMIC, 0.0, _Tangency(0.98, 0.995), None),
    _Row(Mean.IDENTRIC, 1.0, _Tangency(1.0 - 2.0 ** -23, 1.0 - 2.0 ** -25), 2.0 / math.e),
    _Row(Mean.ARITHMETIC, 2.0, 2.0, 1.0),
    _Row(Mean.GINI, 5.0, None, 2.0),
)

#: (mean, side) of every finite sharp order, in the threshold catalog's order.
CATALOG_ORDER = tuple(
    (row.mean, side)
    for row in _THEOREM
    for side, order in (("upper", row.upper), ("lower", row.lower))
    if order is not None
)


@lru_cache(maxsize=None)
def _sharp_order(row: _Row, side: str) -> tuple[float, int]:
    """A row's sharp order on one side and the secant steps that solved it:
    0 for a stated number.  A tangency is the order at which the
    golden-refined minimum of lambda_s/mean - 1 over its window is zero,
    solved by secant from the row's upper order and one above it; like the
    stated orders it is a constant of the theorem, solved once per row."""
    order = row.upper if side == "upper" else row.lower
    if order is None:
        raise UsageError(
            f"no finite sharp order exists for {row.mean.value}.{side}; the "
            "comparison fails for every order once the arguments are "
            "unbalanced enough"
        )
    if not isinstance(order, _Tangency):
        return order, 0

    def dip(s: float) -> float:
        def margin(t: float) -> float:
            return lambda_ratio(s, t) / ratio_to_a(row.mean, t) - 1.0

        return _golden_min(margin, order.t_lo, order.t_hi)[1]

    # the margin resolves to ~1e-16 and its slope in s is ~1 at both tangencies
    return _secant(dip, row.upper, row.upper + 1.0, 1e-15)


def _row(target: Mean) -> _Row:
    return next(row for row in _THEOREM if row.mean is target)


def limit_ratio_at_t1(s: float, target: Mean | str) -> float:
    """Closed-form limit of lambda_s/target as t -> 1, for orders s > 1.

    The family profile tends to (s-1)/(s+1) * (2^(s+1)-2)/(2^s-2); dividing
    by the target's own profile limit (2/e for identric, 1 for arithmetic,
    2 for Gini) gives the quotient limit.  Harmonic, geometric and
    logarithmic profiles vanish at t = 1, so those quotients diverge and the
    limit is +inf.
    """
    target = Mean.parse(target)
    if not math.isfinite(s) or s <= 1.0:
        raise DomainError(f"the t->1 limit needs an order s > 1, got {s!r}")
    family_limit = (s - 1.0) / (s + 1.0) * _two_power_ratio(s)
    mean_limit = _row(target).limit_at_1
    if mean_limit is None:
        return math.inf
    return family_limit / mean_limit


# ---------------------------------------------------------------------------
# worst-margin search machinery
# ---------------------------------------------------------------------------

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def _golden_min(fun: Callable[[float], float], a: float, b: float, tol: float = 1e-12):
    """Golden-section minimum of fun on [a, b]; returns (x, fun(x))."""
    if b < a:
        a, b = b, a
    h = b - a
    if h <= tol:
        x = 0.5 * (a + b)
        return x, fun(x)
    steps = int(math.ceil(math.log(tol / h) / math.log(_INV_PHI)))
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc = fun(c)
    yd = fun(d)
    for _ in range(max(steps - 1, 0)):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = fun(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = fun(d)
    return (c, yc) if yc < yd else (d, yd)


class _GridTable:
    """A coordinate grid with the row kernel's columns and, built on first
    use, each mean's profile on it."""

    def __init__(self, t_values: Sequence[float]) -> None:
        self.t = tuple(t_values)
        self.columns = _ratio_columns(self.t)
        self._profiles: dict[Mean, tuple[float, ...]] = {}

    def profile(self, mean: Mean) -> tuple[float, ...]:
        """[ratio_to_a(mean, t) for t in self.t]"""
        profile = self._profiles.get(mean)
        if profile is None:
            profile = self._profiles[mean] = tuple(_profile_row(mean, self.t))
        return profile


@lru_cache(maxsize=1)
def _probe_table() -> _GridTable:
    """The probe grid: coordinates biased toward both endpoints plus a
    uniform backbone."""
    dyadic = [2.0 ** -j for j in range(1, 41)]
    probes = set(dyadic)
    probes.update(1.0 - x for x in dyadic)
    probes.update(i / 513.0 for i in range(1, 513))
    return _GridTable(sorted(probes))


# 1 - t values beyond double resolution, probed at the pairs (1 - t, 2).
_EXTENDED_V = (1e-16, 1e-20, 1e-30, 1e-45, 1e-70, 1e-100, 1e-150, 1e-220, 1e-300)


class _Witness(NamedTuple):
    margin: float
    t: float
    one_minus_t: float


def _worst_margin(s: float, target: Mean, side: str) -> _Witness:
    """Extremal value of lambda_s/target - 1 over the coordinate probes.

    side == "lower" minimizes (the comparison target sits below the family),
    side == "upper" maximizes.  The coarse extremum and every local extremum
    of the grid that lies more than _SIGN_SLACK beyond both its neighbours
    are refined by a local golden section, since a violating dip can be
    narrower than the grid spacing; coordinates with 1 - t down to 1e-300
    are probed as well.
    """
    sign = 1.0 if side == "lower" else -1.0
    table = _probe_table()
    grid = table.t
    values = [sign * (family / mean - 1.0) for family, mean
              in zip(_ratio_row(s, table.columns), table.profile(target))]

    def signed(t: float) -> float:
        return sign * (lambda_ratio(s, t) / ratio_to_a(target, t) - 1.0)

    best_i = min(range(len(values)), key=values.__getitem__)
    best, t_best = values[best_i], grid[best_i]
    last = len(grid) - 1
    for i, value in enumerate(values):
        # a local minimum within _SIGN_SLACK of a neighbour is rounding ripple
        if i == best_i or 0 < i < last and (
                value < values[i - 1] - _SIGN_SLACK and value < values[i + 1] - _SIGN_SLACK):
            t, refined = _golden_min(signed, grid[max(i - 1, 0)], grid[min(i + 1, last)])
            if refined < best:
                best, t_best = refined, t
    witness = _Witness(sign * best, t_best, 1.0 - t_best)

    for v in _EXTENDED_V:
        margin = lambda_mean(s, v, 2.0).value / mean_value(target, v, 2.0) - 1.0
        if sign * margin < sign * witness.margin:
            witness = _Witness(margin, 1.0 - v, v)
    return witness


# ---------------------------------------------------------------------------
# threshold solving
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdResult:
    """A sharp comparison order with the evidence that it is sharp.

    The comparison holds at `critical_s`, and breaks beyond the violation
    floor at the other end of `bracket`, at the coordinate `witness_t`
    (`witness_one_minus_t` carries 1 - t exactly where t rounds to 1).  The
    bracket's width is the resolution achieved; `iterations` counts the
    secant steps that solved a tangency, 0 for a stated order.
    """

    target: str
    side: str
    critical_s: float
    bracket: tuple[float, float]
    witness_t: float
    witness_one_minus_t: float
    iterations: int


def _check_side(side: str) -> str:
    side = str(side).strip().lower()
    if side not in ("lower", "upper"):
        raise UsageError(f"side must be 'lower' or 'upper', got {side!r}")
    return side


_MAX_OFFSET = 1e-2  # the largest order offset solve_threshold probes


def solve_threshold(target: Mean | str, side: str, tol: float = 1e-10) -> ThresholdResult:
    """The sharp order of a one-sided comparison, with its evidence.

    side == "lower" gives the least order s* such that target <= lambda_s
    for every argument pair; side == "upper" the greatest order with
    lambda_s <= target.  The order is the theorem table's: a stated number,
    or a tangency solved by secant.  The comparison must hold there (worst
    margin over the coordinate probes within 1e-12 of zero); then the orders
    s* -+ delta, delta = max(tol, 5e-12) * 10^k up to 1e-2, are probed until
    it breaks beyond 5e-12.  Either failing raises BracketError.  The offset
    of the break is the resolution: about 1e-10 for linear and tangent
    crossings, 1e-5..1e-4 for the quadratic t -> 0 ones (upper orders -4,
    -1, 0, 1, 5), 1e-3 for the geometric lower order.
    """
    target = Mean.parse(target)
    side = _check_side(side)
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tolerance must be positive and finite, got {tol!r}")
    order, iterations = _sharp_order(_row(target), side)
    name = f"{target.value}.{side}"
    at_order = _worst_margin(order, target, side)
    if (at_order.margin < -_SIGN_SLACK if side == "lower" else at_order.margin > _SIGN_SLACK):
        raise BracketError(
            f"{name}: the claim fails at its sharp order {order!r} (worst margin "
            f"{at_order.margin:.3e} at 1 - t = {at_order.one_minus_t:.3g})"
        )

    base, k, step = max(tol, _VIOLATION_FLOOR), 0, (-1.0 if side == "lower" else 1.0)
    while True:
        offset = min(base * 10.0 ** k, _MAX_OFFSET)
        probe = _sharpness_probe(order, order + step * offset, target, side)
        if probe.found:
            break
        if offset == _MAX_OFFSET:
            raise BracketError(
                f"{name}: the claim still holds {_MAX_OFFSET:g} past its order "
                f"{order!r}, which is therefore not sharp"
            )
        k += 1
    return ThresholdResult(
        target=target.value,
        side=side,
        critical_s=order,
        bracket=(probe.probe_s, order) if side == "lower" else (order, probe.probe_s),
        witness_t=probe.t,
        witness_one_minus_t=probe.one_minus_t,
        iterations=iterations,
    )


def threshold_catalog(tol: float = 1e-10) -> dict[str, ThresholdResult]:
    """Every finite sharp order with its evidence; keys are 'H.upper',
    'L.lower', ..."""
    results: dict[str, ThresholdResult] = {}
    for target, side in CATALOG_ORDER:
        result = solve_threshold(target, side, tol=tol)
        results[f"{target.value}.{side}"] = result
    return results


# ---------------------------------------------------------------------------
# interval verification (the comparison theorem, part by part)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InequalityViolation:
    claim: str
    s: float
    t: float
    lhs: float
    rhs: float


@dataclass(frozen=True)
class SharpnessWitness:
    """A violation found just outside a claimed interval endpoint."""

    endpoint_s: float
    probe_s: float
    claim: str
    t: float
    one_minus_t: float
    margin: float
    found: bool


@dataclass(frozen=True)
class Tightness:
    """Where a claim came closest to failing at the order it was checked at:
    the refined worst margin lambda_s/mean - 1, at coordinate t (1 - t kept
    exactly where t rounds to 1)."""

    claim: str
    s: float
    t: float
    one_minus_t: float
    margin: float


@dataclass(frozen=True)
class PartReport:
    part: int
    passed: bool
    checks: int
    violations: tuple[InequalityViolation, ...]
    sharpness: tuple[SharpnessWitness, ...]
    notes: tuple[str, ...]
    # one entry per claim checked at its end order, none for an explicit
    # order grid or for parts 1 and 8; kept out of repr, so that every
    # report prints the six fields all of them fill
    tightest: tuple[Tightness, ...] = field(default=(), repr=False)


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _default_t_grid(n: int = 2000) -> list[float]:
    return _linspace(1e-6, 1.0 - 1e-6, n)


@lru_cache(maxsize=2)
def _default_table(n: int) -> _GridTable:
    """verify_part's default coordinate grid of n points, built once."""
    return _GridTable(_default_t_grid(n))


def _claim(mean: Mean, side: str) -> str:
    return f"{mean.value} <= lambda" if side == "lower" else f"lambda <= {mean.value}"


def _sharpness_probe(
    endpoint_s: float,
    probe_s: float,
    target: Mean,
    broken_side: str,
) -> SharpnessWitness:
    witness = _worst_margin(probe_s, target, broken_side)
    return SharpnessWitness(
        endpoint_s=endpoint_s,
        probe_s=probe_s,
        claim=_claim(target, broken_side),
        t=witness.t,
        one_minus_t=witness.one_minus_t,
        margin=witness.margin,
        found=(witness.margin < -_VIOLATION_FLOOR if broken_side == "lower"
               else witness.margin > _VIOLATION_FLOOR),
    )


def _row_violations(
    s: float,
    family: Sequence[float],
    claims: Sequence[tuple],
    profiles: Sequence[Sequence[float]],
    t_values: Sequence[float],
    rel_slack: float,
) -> list[InequalityViolation]:
    """The claims (mean, side, ...) that one row of family profiles breaks
    against the means' profiles, t-major."""
    found = []  # (t index, claim index, violation), reported in that order
    for k, ((mean, side, *_), profile) in enumerate(zip(claims, profiles)):
        pairs = zip(profile, family) if side == "lower" else zip(family, profile)
        found += [
            (i, k, InequalityViolation(_claim(mean, side), s, t_values[i], lhs, rhs))
            for i, (lhs, rhs) in enumerate(pairs)
            if lhs - rhs > rel_slack * (rhs if rhs > lhs else lhs)  # max(lhs, rhs)
        ]
    return [violation for _, _, violation in sorted(found)]


def _sides_at(s: float, target: Mean, witness: _Witness) -> tuple[float, float]:
    """The target's and the family's profile values at a _worst_margin witness."""
    if witness.one_minus_t == 1.0 - witness.t:  # a coordinate double precision holds
        return ratio_to_a(target, witness.t), lambda_ratio(s, witness.t)
    # a probe at the pair (1 - t, 2), whose arithmetic mean rounds to 1
    v = witness.one_minus_t
    return mean_value(target, v, 2.0), lambda_mean(s, v, 2.0).value


def _verify_interval_part(
    part: int,
    below: _Row | None,
    above: _Row,
    s_values: Sequence[float] | None,
    table: _GridTable,
    rel_slack: float,
    sharpness: bool,
    probe_offset: float,
) -> PartReport:
    # (mean, side, sharp order) per claim, the lower claim first
    claims = [(above.mean, "upper", above.upper)]
    if below is not None:
        claims.insert(0, (below.mean, "lower", _sharp_order(below, "lower")[0]))
    profiles = [table.profile(mean) for mean, *_ in claims]

    t_values, columns = table.t, table.columns
    violations: list[InequalityViolation] = []
    tightest: list[Tightness] = []
    end_notes: list[str] = []
    if s_values is not None:
        for s in s_values:
            violations += _row_violations(s, _ratio_row(s, columns), claims, profiles,
                                          t_values, rel_slack)
        checks = len(s_values) * len(t_values) * len(claims)
    else:
        # lambda_s is nondecreasing in s (part 1), so a lower claim holds on
        # the whole interval when it holds at its left end, an upper claim
        # when it holds at its right end: one order per claim, on the
        # coordinate grid and through the refined probes
        for claim, profile in zip(claims, profiles):
            mean, side, s = claim
            name = _claim(mean, side)
            violations += _row_violations(s, _ratio_row(s, columns), [claim], [profile],
                                          t_values, rel_slack)
            witness = _worst_margin(s, mean, side)
            target, family = _sides_at(s, mean, witness)
            broken = _row_violations(s, [family], [claim], [[target]], [witness.t],
                                     rel_slack)
            violations += broken
            tightest.append(Tightness(name, s, witness.t, witness.one_minus_t, witness.margin))
            note = (f"{name} checked at s = {s}; with part 1's monotonicity this "
                    f"covers every s {'>=' if side == 'lower' else '<='} {s}")
            if not broken and (witness.margin < 0.0 if side == "lower"
                               else witness.margin > 0.0):
                note += (f"; its worst margin {witness.margin:+.1e} (t = {witness.t:.6g}, "
                         f"1 - t = {witness.one_minus_t:.3g}) is inside rel_slack = "
                         f"{rel_slack:g}, which carries the claim")
            end_notes.append(note)
        checks = len(claims) * (len(t_values) + 1)

    witnesses: list[SharpnessWitness] = []
    if sharpness:
        for mean, side, order in claims:
            step = -probe_offset if side == "lower" else probe_offset
            witnesses.append(_sharpness_probe(order, order + step, mean, side))

    notes: list[str] = []
    if below is not None and below.upper < claims[0][2]:
        # an order between the row's upper order and its sharp lower order
        # compares with neither side for all arguments: scanned for the
        # record, nothing asserted
        gap_lo, gap_hi = below.upper, claims[0][2]
        mid = 0.5 * (gap_lo + gap_hi)
        fails_upper = _worst_margin(mid, below.mean, "upper")
        fails_lower = _worst_margin(mid, below.mean, "lower")
        notes.append(
            f"unclassified gap ({gap_lo}, {gap_hi}): at s = {mid} the "
            f"{below.mean.name.lower()} comparison fails both ways "
            f"(upper margin {fails_upper.margin:+.2e} at t = {fails_upper.t:.4g}, "
            f"lower margin {fails_lower.margin:+.2e} at t = {fails_lower.t:.4g})"
        )

    passed = not violations and all(w.found for w in witnesses)
    return PartReport(
        part=part,
        passed=passed,
        checks=checks,
        violations=tuple(violations),
        sharpness=tuple(witnesses),
        notes=tuple(notes + end_notes),
        tightest=tuple(tightest),
    )


def _verify_monotonicity(
    s_values: Sequence[float], table: _GridTable, rel_slack: float
) -> PartReport:
    ordered = sorted(s_values)
    t_values = table.t
    # the scan runs t-major: its first coordinate meets every order before
    # any other coordinate is looked at, so that column raises first
    first = _ratio_columns(t_values[:1])
    for s in ordered:
        _ratio_row(s, first)
    rows = [_ratio_row(s, table.columns) for s in ordered]
    violations: list[InequalityViolation] = []
    checks = 0
    for i, t in enumerate(t_values):
        previous = None
        for s, row in zip(ordered, rows):
            value = row[i]
            if previous is not None:
                checks += 1
                if previous - value > rel_slack * max(abs(previous), abs(value)):
                    violations.append(
                        InequalityViolation(
                            "lambda non-decreasing in order", s, t, previous, value
                        )
                    )
            previous = value
    return PartReport(
        part=1,
        passed=not violations,
        checks=checks,
        violations=tuple(violations),
        sharpness=(),
        notes=(),
    )


def _verify_no_global_gini_bound(s_values: Sequence[float]) -> PartReport:
    """No finite order keeps the family above the Gini mean everywhere."""
    violations: list[InequalityViolation] = []
    witnesses: list[SharpnessWitness] = []
    checks = 0
    s_min = _THEOREM[-1].upper  # the Gini row: an upper order, no lower one
    for s in s_values:
        if s <= s_min:
            raise UsageError(
                f"the no-global-bound check probes orders above {s_min:g}, got {s!r}"
            )
        checks += 1
        limit = limit_ratio_at_t1(s, Mean.GINI)
        if not limit < 1.0:
            violations.append(
                InequalityViolation("t->1 limit of lambda/S < 1", s, 1.0, limit, 1.0)
            )
        # concrete unbalanced witness: arguments in ratio 2000:1
        t = 1999.0 / 2001.0
        family = lambda_ratio(s, t)
        gini_profile = ratio_to_a(Mean.GINI, t)
        margin = family / gini_profile - 1.0
        found = margin < -_VIOLATION_FLOOR
        witnesses.append(
            SharpnessWitness(
                endpoint_s=math.inf,
                probe_s=s,
                claim="S <= lambda fails for unbalanced arguments",
                t=t,
                one_minus_t=1.0 - t,
                margin=margin,
                found=found,
            )
        )
        checks += 1
    passed = not violations and all(w.found for w in witnesses)
    return PartReport(
        part=8,
        passed=passed,
        checks=checks,
        violations=tuple(violations),
        sharpness=tuple(witnesses),
        notes=(),
    )


def verify_part(
    part: int,
    s_values: Sequence[float] | None = None,
    t_values: Sequence[float] | None = None,
    rel_slack: float = 1e-12,
    sharpness: bool = True,
    probe_offset: float = 1e-3,
) -> PartReport:
    """Verify one part of the comparison theorem.

    Parts and their order intervals:

        1  monotonicity of the family in its order (s in [-10, 10] by default)
        2  lambda <= H on s <= -4
        3  H <= lambda <= G on [-3, -1]
        4  G <= lambda <= L on [-1/2, 0]
        5  L <= lambda <= I on [s*, 1]   (s* ~ 0.0874893, a tangency at t ~ 0.9896)
        6  I <= lambda <= A on [s_I, 2]  (s_I ~ 1.0376073, a tangency at 1 - t ~ 5.75e-8)
        7  A <= lambda <= S on [2, 5]
        8  no finite order bounds S from below (orders 5.5, 6, 10 by default)

    Without `s_values`, parts 2-7 check each claim once, at the end order
    that binds it: mean <= lambda at the interval's left end and
    lambda <= mean at its right end.  Since lambda_s is nondecreasing in s
    (part 1), that covers the whole interval; a note per claim names the
    implication.  There the claim is compared on the coordinate grid
    (`t_values`, by default 2,000 points from 1e-6 to 1 - 1e-6) and at the
    probes of the sharpness searches: a grid dense toward both ends of
    (0, 1), golden refinement of its local minima, and 1 - t from 1e-16
    down to 1e-300.  A probe that breaks the claim by more than `rel_slack`
    is a violation like a grid point, and `tightest` holds each claim's
    worst margin.  `checks` counts the grid points plus one refined worst
    margin per claim.  An explicit `s_values` compares every claim at every
    given order on the coordinate grid alone, and reports no tightness.

    Violations are recorded with their location; with `sharpness`, each
    two-sided part also hunts a violation witness `probe_offset` outside
    every interval endpoint, down to 1 - t = 1e-300 where the violating
    coordinates require it.

    Parts 2-7 read every keyword.  Part 1 reads `rel_slack` but not
    `sharpness` or `probe_offset`; part 8 reads only `s_values`.
    """
    if part not in range(1, 9):
        raise UsageError(f"part must be an integer in 1..8, got {part!r}")
    if part == 1:
        s_grid = (list(s_values) if s_values is not None
                  else _linspace(-10.0, 10.0, 50))
        table = _GridTable(t_values) if t_values is not None else _default_table(200)
        return _verify_monotonicity(s_grid, table, rel_slack)
    if part == 8:
        s_grid = list(s_values) if s_values is not None else [5.5, 6.0, 10.0]
        return _verify_no_global_gini_bound(s_grid)
    # part k claims row k-3's mean <= lambda_s <= row k-2's mean; part 2 has
    # no lower claim
    below, above = (_THEOREM[part - 3] if part > 2 else None), _THEOREM[part - 2]
    s_grid = list(s_values) if s_values is not None else None
    table = _GridTable(t_values) if t_values is not None else _default_table(2000)
    return _verify_interval_part(
        part, below, above, s_grid, table, rel_slack, sharpness, probe_offset
    )
