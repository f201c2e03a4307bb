"""The one-parameter quotient-mean family lambda_s.

For a real order s the value lambda_s(a, b) is, generically,

    (s-1)/(s+1) * (a^(s+1) + b^(s+1) - 2 A^(s+1)) / (a^s + b^s - 2 A^s)

with A = (a+b)/2, extended by its limits at s in {-1, 0, 1}.  The family is
symmetric, homogeneous of order one, bounded by min(a, b) and max(a, b),
monotone increasing in s, and coincides with the arithmetic mean at s = 2.

Evaluation is fully normalized: with t = (b-a)/(b+a),

    lambda_s(a, b) = A * R(s, t),     R(s, t) = lambda_s(1+t, 1-t).

Writing q_sigma(t) = phi_sigma(1+t) + phi_sigma(1-t), with phi_sigma the
normalized power generator (so q_sigma(t) = ((1+t)^sigma + (1-t)^sigma - 2)
/ (sigma (sigma - 1)) away from its limits at sigma = 0 and 1), the profile
is the smooth positive quotient

    R(s, t) = q_{s+1}(t) / q_s(t),

which reproduces every branch of the case table at once.  It is the
two-point, equal-weight case of the n-point gap quotient and is evaluated by
the same centred kernel (:mod:`jensenmeans.jensen`), uniformly accurate in
the order; only the exact limit orders carry their own branch tag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import cycle
from typing import NamedTuple, Sequence

from . import classical
from .classical import _check_coordinate, symmetric_coordinate
from .errors import DomainError, UsageError
from .jensen import (T_SWITCH, _SHIFT_LOG, _PhiForm, _check_order, _moment_series,
                     _phi_above_half, _phi_below_half, _phi_form, _phi_sum,
                     _scaled_quotient, _use_series)

__all__ = [
    "BRANCH_EQUAL",
    "BRANCH_GENERIC",
    "BRANCH_LIMIT_NEG1",
    "BRANCH_LIMIT_ZERO",
    "BRANCH_LIMIT_ONE",
    "BRANCH_SERIES",
    "LambdaValue",
    "T_SWITCH",
    "lambda_closed_form",
    "lambda_mean",
    "lambda_ratio",
    "small_t_series",
]

BRANCH_GENERIC = "generic"
BRANCH_LIMIT_NEG1 = "limit-1"
BRANCH_LIMIT_ZERO = "limit0"
BRANCH_LIMIT_ONE = "limit1"
BRANCH_SERIES = "series-small-t"
BRANCH_EQUAL = "degenerate-equal"

_LIMIT_TAGS = {-1.0: BRANCH_LIMIT_NEG1, 0.0: BRANCH_LIMIT_ZERO, 1.0: BRANCH_LIMIT_ONE}


@dataclass(frozen=True)
class LambdaValue:
    """A family value together with the evaluation branch that produced it."""

    value: float
    branch: str

    def __float__(self) -> float:
        return self.value


def _pair_series(s: float, t: float, terms: int | None) -> float:
    # the equal-weight deviations +-1 have moments 1 at even powers, 0 at odd
    return (_moment_series(s + 1.0, cycle((1.0, 0.0)), t, terms)
            / _moment_series(s, cycle((1.0, 0.0)), t, terms))


def _pair_quotient(s: float, upper: _PhiForm, lower: _PhiForm, x_hi: float, t: float,
                   log_hi: float, x_lo: float, log_lo: float) -> float:
    """q_{s+1}(t) / q_s(t), given the phi forms of the orders s + 1 and s."""
    s_up = s + 1.0
    return ((upper(s_up, x_hi, t, log_hi) + upper(s_up, x_lo, -t, log_lo))
            / (lower(s, x_hi, t, log_hi) + lower(s, x_lo, -t, log_lo)))


def _ratio_branches(s: float, t: float, x_lo: float, log_lo: float,
                    scale: float) -> tuple[float, str]:
    """scale * R(s, t) and its branch; the lower point x_lo = 1 - t and its
    log are passed in at the precision the caller has them."""
    if t == 0.0:
        return scale, BRANCH_EQUAL
    if s == 2.0:
        # Identically the arithmetic mean; keep the identity bit-exact.
        return scale, BRANCH_GENERIC
    if t < T_SWITCH and _use_series(s, t):
        return scale * _pair_series(s, t, None), BRANCH_SERIES
    log_hi = math.log1p(t)
    x_hi = 1.0 + t
    if (abs(s) + 1.0) * -log_lo > _SHIFT_LOG:
        pair = ((0.5, 0.5), (x_hi, x_lo), (t, -t), (log_hi, log_lo))
        value = _scaled_quotient(s, _phi_sum(s + 1.0, *pair), _phi_sum(s, *pair), scale)
    else:
        value = scale * _pair_quotient(s, _phi_form(s + 1.0), _phi_form(s),
                                       x_hi, t, log_hi, x_lo, log_lo)
    return value, _LIMIT_TAGS.get(s, BRANCH_GENERIC)


def lambda_ratio(s: float, t: float) -> float:
    """Profile lambda_s(1+t, 1-t) = lambda_s(a, b)/A(a, b) at t = (b-a)/(b+a).

    Continuous at t -> 0 with limit 1; t must lie in [0, 1).
    """
    s = _check_order(s)
    if not math.isfinite(t) or t < 0.0 or t >= 1.0:
        raise DomainError(f"symmetric coordinate must lie in [0, 1), got {t!r}")
    return _ratio_branches(s, t, 1.0 - t, math.log1p(-t), 1.0)[0]


class _Columns(NamedTuple):
    """A coordinate grid with everything of its points that no order changes."""

    t: tuple[float, ...]
    x_hi: tuple[float, ...]       # 1 + t
    x_lo: tuple[float, ...]       # 1 - t
    log_hi: tuple[float, ...]     # log1p(t)
    log_lo: tuple[float, ...]     # log1p(-t)
    invalid: tuple[float, ...]    # the first coordinate outside [0, 1), if any


def _ratio_columns(t_values: Sequence[float]) -> _Columns:
    """The columns of a coordinate grid for :func:`_ratio_row`.  A coordinate
    outside [0, 1) is kept back and raised by the row, after its order is
    checked, as lambda_ratio does."""
    ts = tuple(t_values)
    for t in ts:
        try:
            _check_coordinate(t)
        except DomainError:
            return _Columns(ts, (), (), (), (), (t,))
    return _Columns(ts, tuple(1.0 + t for t in ts), tuple(1.0 - t for t in ts),
                    tuple(map(math.log1p, ts)), tuple(math.log1p(-t) for t in ts), ())


def _ratio_row(s: float, columns: _Columns) -> list[float]:
    """[lambda_ratio(s, t) for t in columns.t], bit for bit.

    The order is checked, the s = 2 identity applied and the phi forms of
    s + 1 and s chosen once per row.  Each generic pair of forms has its own
    loop with the order's constants hoisted and _pair_quotient's operations
    written out in their order; the limit orders keep _pair_quotient, and
    coordinates in the series range or the scaled form go through
    _ratio_branches as lambda_ratio sends them.
    """
    if not columns.t:
        return []
    s = _check_order(s)
    if columns.invalid:
        _check_coordinate(*columns.invalid)
    if s == 2.0:
        return [1.0] * len(columns.t)
    s_up = s + 1.0
    upper, lower = _phi_form(s_up), _phi_form(s)
    reach = abs(s) + 1.0
    expm1 = math.expm1
    points = zip(*columns[:5])
    # the closed form is taken where _ratio_branches would take it: t >=
    # T_SWITCH rules out both t == 0 and the series
    if lower is _phi_above_half:
        # s > 1/2, so s + 1 is above 1/2 too: (x expm1((sigma - 1) log x) +
        # (1 - sigma) d) / (sigma (sigma - 1)) at sigma = s + 1 and s, d = t and -t
        e_up, c_up, k_up = s_up - 1.0, 1.0 - s_up, s_up * (s_up - 1.0)
        e_lo, c_lo, k_lo = s - 1.0, 1.0 - s, s * (s - 1.0)
        return [
            ((x_hi * expm1(e_up * log_hi) + c_up * t) / k_up
             + (x_lo * expm1(e_up * log_lo) + c_up * -t) / k_up)
            / ((x_hi * expm1(e_lo * log_hi) + c_lo * t) / k_lo
               + (x_lo * expm1(e_lo * log_lo) + c_lo * -t) / k_lo)
            if t >= T_SWITCH and not reach * -log_lo > _SHIFT_LOG
            else _ratio_branches(s, t, x_lo, log_lo, 1.0)[0]
            for t, x_hi, x_lo, log_hi, log_lo in points]
    if upper is _phi_above_half and lower is _phi_below_half:
        # the lower order's form is (expm1(sigma log x) + sigma (0 - d)) /
        # (sigma (sigma - 1)), and 0 - d is -t at d = t, t at d = -t
        e_up, c_up, k_up = s_up - 1.0, 1.0 - s_up, s_up * (s_up - 1.0)
        k_lo = s * (s - 1.0)
        return [
            ((x_hi * expm1(e_up * log_hi) + c_up * t) / k_up
             + (x_lo * expm1(e_up * log_lo) + c_up * -t) / k_up)
            / ((expm1(s * log_hi) + s * -t) / k_lo
               + (expm1(s * log_lo) + s * t) / k_lo)
            if t >= T_SWITCH and not reach * -log_lo > _SHIFT_LOG
            else _ratio_branches(s, t, x_lo, log_lo, 1.0)[0]
            for t, x_hi, x_lo, log_hi, log_lo in points]
    if upper is _phi_below_half:
        # s + 1 <= 1/2, so s is below 1/2 too
        k_up, k_lo = s_up * (s_up - 1.0), s * (s - 1.0)
        return [
            ((expm1(s_up * log_hi) + s_up * -t) / k_up
             + (expm1(s_up * log_lo) + s_up * t) / k_up)
            / ((expm1(s * log_hi) + s * -t) / k_lo
               + (expm1(s * log_lo) + s * t) / k_lo)
            if t >= T_SWITCH and not reach * -log_lo > _SHIFT_LOG
            else _ratio_branches(s, t, x_lo, log_lo, 1.0)[0]
            for t, x_hi, x_lo, log_hi, log_lo in points]
    # a limit order: phi_0 or phi_1 on one side
    return [
        _pair_quotient(s, upper, lower, x_hi, t, log_hi, x_lo, log_lo)
        if t >= T_SWITCH and not reach * -log_lo > _SHIFT_LOG
        else _ratio_branches(s, t, x_lo, log_lo, 1.0)[0]
        for t, x_hi, x_lo, log_hi, log_lo in points]


def lambda_mean(s: float, a: float, b: float) -> LambdaValue:
    """lambda_s(a, b) with the branch that evaluated it.

    Symmetric and homogeneous of order one by construction (the pair is
    canonicalized and reduced to its profile coordinate), with
    min(a, b) <= value <= max(a, b).
    """
    s = _check_order(s)
    classical._check_positive(a, b)
    if a == b:
        return LambdaValue(float(a), BRANCH_EQUAL)
    lo, hi = (a, b) if a <= b else (b, a)
    t = symmetric_coordinate(lo, hi)
    mid = 0.5 * lo + 0.5 * hi
    # lo/A keeps its precision as t -> 1, where 1 - t has none left (the two
    # logs stand in once lo/A is below the float range)
    x_lo = lo / mid
    log_lo = (math.log1p(-t) if t < 0.5 else math.log(x_lo) if x_lo > 0.0
              else math.log(lo) - math.log(mid))
    return LambdaValue(*_ratio_branches(s, t, x_lo, log_lo, mid))


def small_t_series(s: float, t: float, terms: int = 8) -> float:
    """Profile via the even-power series, truncated to `terms` even powers.

    Only valid below T_SWITCH; the relative truncation error is bounded by
    the ratio of the first omitted term to the retained sum.  The
    coefficients are polynomials in the order: at s = 2 the series
    telescopes to 1 identically.
    """
    s = _check_order(s)
    if not isinstance(terms, int) or terms < 1:
        raise UsageError(f"terms must be a positive integer, got {terms!r}")
    if not math.isfinite(t) or t < 0.0 or t >= T_SWITCH:
        raise UsageError(
            f"small_t_series requires 0 <= t < {T_SWITCH}, got {t!r}; "
            "use lambda_ratio for the full coordinate range"
        )
    return _pair_series(s, t, terms)


def lambda_closed_form(s: float, a: float, b: float) -> float:
    """The limit orders from classical means, as an independent cross-check.

        order -1:  2 G^2 log(A/G) / (A - H)
        order  0:  A log(S/A) / log(A/G)
        order  1:  (A - H) / (2 log(S/A))

    Requires a != b (each form is 0/0 at equal arguments).  Combined exactly
    as written from the classical mean values, so accuracy degrades as the
    arguments approach each other; intended as a verification route, not the
    evaluation path.
    """
    s = _check_order(s)
    if s not in (-1.0, 0.0, 1.0):
        raise UsageError(f"closed forms exist only for orders -1, 0, 1; got {s!r}")
    classical._check_positive(a, b)
    if a == b:
        raise DomainError("closed forms are 0/0 at a == b; use lambda_mean instead")
    mean_a = classical.arithmetic(a, b)
    mean_g = classical.geometric(a, b)
    mean_h = classical.harmonic(a, b)
    mean_s = classical.gini(a, b)
    if s == -1.0:
        return 2.0 * mean_g * mean_g * math.log(mean_a / mean_g) / (mean_a - mean_h)
    if s == 0.0:
        return mean_a * math.log(mean_s / mean_a) / math.log(mean_a / mean_g)
    return (mean_a - mean_h) / (2.0 * math.log(mean_s / mean_a))
