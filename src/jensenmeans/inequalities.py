"""Certification toolkit for the quotient-mean comparison theorems.

The family lambda_s threads the classical chain H < G < L < I < A < S as the
order s grows.  Writing t = (b-a)/(b+a), every comparison reduces to a
one-variable inequality between profiles on t in (0, 1).  This module holds

* the analytic pieces of those reductions: the log defect certifying the
  order-0 vs logarithmic comparison (:func:`log_defect`), its exact-rational
  series coefficients (:func:`series_table`), the identric-over-order-1
  profile with its monotonicity and limits (:func:`identric_parts`), and the
  t -> 1 limit defect against the identric mean (:func:`identric_limit_defect`);
* grid scanners that verify each claimed comparison interval and hunt
  violation witnesses just outside its endpoints (:func:`verify_part`);
* a bisection solver that recovers the sharp order at which a comparison
  first holds for all arguments (:func:`solve_threshold`).

Where a violation exists only for astronomically unbalanced pairs (the
geometric lower endpoint is the extreme case: the first failing coordinate
sits near 1 - t ~ 1e-100), the searches probe the pairs (1 - t, 2) down to
1 - t = 1e-300 in double precision: :func:`lambda_mean` carries the small
argument and its logarithm exactly.  All evidence is floating-point at
declared tolerances; nothing here is interval-certified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .classical import Mean, _mu, _nu, mean_value, ratio_to_a
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
    "default_bracket",
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

    Defined away from the poles s = -1 and s = 1.  Its only real zero, near
    1.0376, is the sharp lower order for the identric comparison.
    """
    if not math.isfinite(s):
        raise DomainError(f"order must be finite, got {s!r}")
    if abs(s - 1.0) < 1e-12 or abs(s + 1.0) < 1e-12:
        raise DomainError(f"limit defect has poles at orders 1 and -1, got {s!r}")
    return math.e * (s - 1.0) * _two_power_ratio(s) / (2.0 * (s + 1.0)) - 1.0


def identric_limit_defect_root(
    lo: float = 1.03, hi: float = 1.04, tol: float = 1e-12
) -> float:
    """Bisection root of the limit defect inside [lo, hi]."""
    f_lo = identric_limit_defect(lo)
    f_hi = identric_limit_defect(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo < 0.0) == (f_hi < 0.0):
        raise BracketError(
            f"no sign change of the limit defect on [{lo}, {hi}]: "
            f"{f_lo:.3e} vs {f_hi:.3e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = identric_limit_defect(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid < 0.0) == (f_lo < 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# the comparison theorem
# ---------------------------------------------------------------------------


@lru_cache(maxsize=2)
def _solved_lower_endpoint_l() -> float:
    return solve_threshold(Mean.LOGARITHMIC, "lower", tol=1e-10).critical_s


class _Row(NamedTuple):
    """One mean's sharp orders: lambda_s <= mean for every argument pair
    exactly when s <= upper, and mean <= lambda_s exactly when s >= lower."""

    mean: Mean
    upper: float
    upper_bracket: tuple[float, float]
    # a number, a function returning the solved order, or None when no
    # finite order dominates the mean for all arguments
    lower: float | Callable[[], float] | None
    lower_bracket: tuple[float, float] | None
    limit_at_1: float | None  # profile mean/A as t -> 1; None: it tends to 0


# The theorem, in chain order.  Each bracket straddles its order for the
# bisection solver; part k of verify_part (2..7) runs from row k-3's lower
# order to row k-2's upper order.
_THEOREM = (
    _Row(Mean.HARMONIC, -4.0, (-4.5, -3.5), -3.0, (-3.5, -2.5), None),
    _Row(Mean.GEOMETRIC, -1.0, (-1.5, -0.75), -0.5, (-0.65, -0.35), None),
    _Row(Mean.LOGARITHMIC, 0.0, (-0.4, 0.4),
         _solved_lower_endpoint_l, (1.0 / 12.0, 1.0 / 11.0), None),
    _Row(Mean.IDENTRIC, 1.0, (0.6, 1.5),
         identric_limit_defect_root, (1.03, 1.04), 2.0 / math.e),
    _Row(Mean.ARITHMETIC, 2.0, (1.5, 2.5), 2.0, (1.5, 2.5), 1.0),
    _Row(Mean.GINI, 5.0, (4.5, 5.5), None, None, 2.0),
)

#: (mean, side) of every finite sharp order, in the threshold catalog's order.
CATALOG_ORDER = tuple(
    (row.mean, side)
    for row in _THEOREM
    for side, bracket in (("upper", row.upper_bracket), ("lower", row.lower_bracket))
    if bracket is not None
)

# Orders reach +-this far where the theorem leaves an interval unbounded
# (part 2 below, and the monotonicity check of part 1).
_ORDER_REACH = 10.0


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


@lru_cache(maxsize=1)
def _probe_grid() -> tuple[float, ...]:
    """Coordinates biased toward both endpoints plus a uniform backbone."""
    dyadic = [2.0 ** -j for j in range(1, 41)]
    probes = set(dyadic)
    probes.update(1.0 - x for x in dyadic)
    probes.update(i / 513.0 for i in range(1, 513))
    return tuple(sorted(probes))


@lru_cache(maxsize=1)
def _probe_columns():
    return _ratio_columns(_probe_grid())


# 1 - t values beyond double resolution, probed at the pairs (1 - t, 2).
_EXTENDED_V = (1e-16, 1e-20, 1e-30, 1e-45, 1e-70, 1e-100, 1e-150, 1e-220, 1e-300)


@lru_cache(maxsize=8)
def _target_profile(target: Mean) -> tuple[float, ...]:
    return tuple(ratio_to_a(target, t) for t in _probe_grid())


class _Witness(NamedTuple):
    margin: float
    t: float
    one_minus_t: float


def _worst_margin(s: float, target: Mean, side: str) -> _Witness:
    """Extremal value of lambda_s/target - 1 over the coordinate probes.

    side == "lower" minimizes (the comparison target sits below the family),
    side == "upper" maximizes.  The coarse extremum and every strict local
    extremum of the grid are refined by a local golden section, since a
    violating dip can be narrower than the grid spacing; coordinates with
    1 - t down to 1e-300 are probed as well.
    """
    sign = 1.0 if side == "lower" else -1.0
    grid = _probe_grid()
    values = [sign * (family / mean - 1.0) for family, mean
              in zip(_ratio_row(s, _probe_columns()), _target_profile(target))]

    def signed(t: float) -> float:
        return sign * (lambda_ratio(s, t) / ratio_to_a(target, t) - 1.0)

    best_i = min(range(len(values)), key=values.__getitem__)
    best, t_best = values[best_i], grid[best_i]
    last = len(grid) - 1
    for i, value in enumerate(values):
        if i == best_i or 0 < i < last and values[i - 1] > value < values[i + 1]:
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
    """A sharp comparison order recovered by bisection.

    `witness_t` is the coordinate at which the comparison is tight (or, at
    the failing side, violated); `witness_one_minus_t` carries 1 - t exactly
    when the binding coordinate is too close to 1 for a double.
    """

    target: str
    side: str
    critical_s: float
    bracket: tuple[float, float]
    tolerance: float
    witness_t: float
    witness_one_minus_t: float
    iterations: int


def default_bracket(target: Mean | str, side: str) -> tuple[float, float]:
    """The built-in bisection bracket for a target/side combination."""
    row = _row(Mean.parse(target))
    bracket = row.upper_bracket if _check_side(side) == "upper" else row.lower_bracket
    if bracket is None:
        raise UsageError(
            f"no finite sharp order exists for {row.mean.value}.{side}; "
            "the comparison fails for every order once the arguments are "
            "unbalanced enough"
        )
    return bracket


def _check_side(side: str) -> str:
    side = str(side).strip().lower()
    if side not in ("lower", "upper"):
        raise UsageError(f"side must be 'lower' or 'upper', got {side!r}")
    return side


def solve_threshold(
    target: Mean | str,
    side: str,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-10,
) -> ThresholdResult:
    """Bisection for the sharp order of a one-sided comparison.

    side == "lower" finds the least order s* such that target <= lambda_s
    for every argument pair; side == "upper" the greatest order with
    lambda_s <= target.  Each bisection step evaluates the worst-case margin
    over the coordinate probes (monotonicity of the family in its order
    makes the holds-predicate monotone in s).  Margins within 1e-12 of zero
    count as holding, which keeps evaluation noise at the inner extremum from
    flipping the predicate.  Bisection stops once the bracket is no wider than
    `tol` or its ends are adjacent floats.

    Reported precision is grid-limited: thresholds that bind only in the
    t -> 1 limit inherit the resolution of the 1 - t probes, and thresholds
    whose crossing is quadratic in (s - s*) resolve to roughly 1e-6, the
    square root of that slack.
    """
    target = Mean.parse(target)
    side = _check_side(side)
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"tolerance must be positive and finite, got {tol!r}")
    if bracket is None:
        bracket = default_bracket(target, side)
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise UsageError(f"bracket must be a finite increasing pair, got {bracket!r}")

    def holds(order: float) -> tuple[bool, _Witness]:
        witness = _worst_margin(order, target, side)
        if side == "lower":
            return witness.margin >= -_SIGN_SLACK, witness
        return witness.margin <= _SIGN_SLACK, witness

    holds_lo, witness_lo = holds(lo)
    holds_hi, witness_hi = holds(hi)
    # lower thresholds hold above the critical order, upper ones below it
    expect_lo, expect_hi = (False, True) if side == "lower" else (True, False)
    if holds_lo != expect_lo or holds_hi != expect_hi:
        raise BracketError(
            f"{target.value}.{side}: bracket [{lo}, {hi}] does not straddle the "
            f"threshold (holds at ends: {holds_lo}, {holds_hi}; worst margins "
            f"{witness_lo.margin:.3e}, {witness_hi.margin:.3e})"
        )

    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # adjacent floats: nothing left to halve
            break
        if holds(mid)[0] == expect_lo:
            lo = mid
        else:
            hi = mid
        iterations += 1

    critical = 0.5 * (lo + hi)
    witness = _worst_margin(critical, target, side)
    return ThresholdResult(
        target=target.value,
        side=side,
        critical_s=critical,
        bracket=(lo, hi),
        tolerance=tol,
        witness_t=witness.t,
        witness_one_minus_t=witness.one_minus_t,
        iterations=iterations,
    )


def threshold_catalog(tol: float = 1e-10) -> dict[str, ThresholdResult]:
    """Solve every finite sharp order; keys are 'H.upper', 'L.lower', ..."""
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
class PartReport:
    part: int
    passed: bool
    checks: int
    violations: tuple[InequalityViolation, ...]
    sharpness: tuple[SharpnessWitness, ...]
    notes: tuple[str, ...]


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    if n < 2:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _default_t_grid(n: int = 2000) -> list[float]:
    return _linspace(1e-6, 1.0 - 1e-6, n)


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


def _verify_interval_part(
    part: int,
    below: _Row | None,
    above: _Row,
    s_values: Sequence[float],
    t_values: Sequence[float],
    rel_slack: float,
    sharpness: bool,
    probe_offset: float,
) -> PartReport:
    # (mean, side, sharp order) per claim, the lower claim first
    claims = [(above.mean, "upper", above.upper)]
    if below is not None:
        claims.insert(0, (below.mean, "lower", below.lower))
    profiles = [[ratio_to_a(mean, t) for t in t_values] for mean, _, _ in claims]

    columns = _ratio_columns(t_values)
    violations: list[InequalityViolation] = []
    for s in s_values:
        family = _ratio_row(s, columns)
        found = []  # (t index, claim index, violation), reported in that order
        for k, ((mean, side, _), profile) in enumerate(zip(claims, profiles)):
            pairs = zip(profile, family) if side == "lower" else zip(family, profile)
            found += [
                (i, k, InequalityViolation(_claim(mean, side), s, t_values[i], lhs, rhs))
                for i, (lhs, rhs) in enumerate(pairs)
                if lhs - rhs > rel_slack * (rhs if rhs > lhs else lhs)  # max(lhs, rhs)
            ]
        violations += [violation for _, _, violation in sorted(found)]
    checks = len(s_values) * len(t_values) * len(claims)

    witnesses: list[SharpnessWitness] = []
    if sharpness:
        for mean, side, order in claims:
            endpoint = order() if callable(order) else order
            step = -probe_offset if side == "lower" else probe_offset
            witnesses.append(_sharpness_probe(endpoint, endpoint + step, mean, side))

    notes: list[str] = []
    if below is not None and isinstance(below.lower, float) and below.upper < below.lower:
        # an order between the row's two exact orders compares with neither
        # side for all arguments: scanned for the record, nothing asserted
        gap_lo, gap_hi = below.upper, below.lower
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
        notes=tuple(notes),
    )


def _verify_monotonicity(
    s_values: Sequence[float], t_values: Sequence[float], rel_slack: float
) -> PartReport:
    ordered = sorted(s_values)
    # the scan runs t-major: its first coordinate meets every order before
    # any other coordinate is looked at, so that column raises first
    first = _ratio_columns(t_values[:1])
    for s in ordered:
        _ratio_row(s, first)
    columns = _ratio_columns(t_values)
    rows = [_ratio_row(s, columns) for s in ordered]
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
    """Grid-verify one part of the comparison theorem.

    Parts and their default order intervals:

        1  monotonicity of the family in its order (s in [-10, 10])
        2  lambda <= H on s <= -4
        3  H <= lambda <= G on [-3, -1]
        4  G <= lambda <= L on [-1/2, 0]
        5  L <= lambda <= I on [s*, 1]   (s* the solved sharp order, < 1/11)
        6  I <= lambda <= A on [s1, 2]   (s1 the limit-defect root, < 1.04)
        7  A <= lambda <= S on [2, 5]
        8  no finite order bounds S from below (orders 5.5, 6, 10 by default)

    Violations are recorded with their grid location; with `sharpness`, each
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
                  else _linspace(-_ORDER_REACH, _ORDER_REACH, 50))
        t_grid = list(t_values) if t_values is not None else _default_t_grid(200)
        return _verify_monotonicity(s_grid, t_grid, rel_slack)
    if part == 8:
        s_grid = list(s_values) if s_values is not None else [5.5, 6.0, 10.0]
        return _verify_no_global_gini_bound(s_grid)
    # part k claims row k-3's mean <= lambda_s <= row k-2's mean; part 2 has
    # no lower claim, and a solved lower order lies just under its bracket's top
    below, above = (_THEOREM[part - 3] if part > 2 else None), _THEOREM[part - 2]
    s_lo = (-_ORDER_REACH if below is None
            else below.lower_bracket[1] if callable(below.lower) else below.lower)
    s_grid = list(s_values) if s_values is not None else _linspace(s_lo, above.upper, 50)
    t_grid = list(t_values) if t_values is not None else _default_t_grid(2000)
    return _verify_interval_part(
        part, below, above, s_grid, t_grid, rel_slack, sharpness, probe_offset
    )
