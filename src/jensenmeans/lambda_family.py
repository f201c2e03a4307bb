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
two-point, equal-weight case of the n-point gap quotient and shares phi's
coefficients with it in :mod:`jensenmeans._kernel`, but needs none of its
moment series: with h = log(1 - t^2)/2 and tau = atanh(t), (1 +- t)^sigma =
e^(sigma (h +- tau)), and q_sigma splits into an even and an odd part in
which no term is a difference of O(t) values.  That symmetric form serves
(|s| + 1) t <= 1/2; beyond it the expm1 form of phi at 1 + t and 1 - t is
accurate, and scaled by its largest power where that would leave the float
range.  Accuracy is uniform in the order; the exact limit orders and the
scaled form carry their own branch tags.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import pos
from typing import NamedTuple, Sequence

from . import classical
from ._kernel import _SHIFT_LOG, _check_order, _phi_form, _phi_sum, _scaled_quotient
from .classical import _check_coordinate, symmetric_coordinate
from .errors import DomainError, UsageError, _repr

__all__ = [
    "BRANCH_EQUAL",
    "BRANCH_GENERIC",
    "BRANCH_LIMIT_NEG1",
    "BRANCH_LIMIT_ZERO",
    "BRANCH_LIMIT_ONE",
    "BRANCH_SCALED",
    "LambdaValue",
    "lambda_closed_form",
    "lambda_mean",
    "lambda_ratio",
]

BRANCH_GENERIC = "generic"
BRANCH_LIMIT_NEG1 = "limit-1"
BRANCH_LIMIT_ZERO = "limit0"
BRANCH_LIMIT_ONE = "limit1"
BRANCH_SCALED = "scaled"
BRANCH_EQUAL = "degenerate-equal"

_LIMIT_TAGS = {-1.0: BRANCH_LIMIT_NEG1, 0.0: BRANCH_LIMIT_ZERO, 1.0: BRANCH_LIMIT_ONE}

# Below this (|s| + 2) t^2, |R(s, t) - 1|, about |s - 2| t^2 / 6 there, is
# under half an ulp of 1, so the profile is exactly 1.0.
_TINY_SPREAD = 2.0 ** -52
# The symmetric form serves (|s| + 1) t <= 1/2: there t <= 1/2 and each
# 1 + A = e^(e h) of _pair_half_sum stays above 0.86, so it keeps its digits.
_SYMMETRIC_REACH = 0.5
# From this order magnitude on, R(s, t) is clamped into [1 - t, 1 + t].  R lies
# within about 2/|s| of the end it tends to, and rounding a phi form's
# exponent, at most _SHIFT_LOG, moves R by up to _SHIFT_LOG half-ulps
# relative: the two meet near |s| = 2^54 / _SHIFT_LOG, 4 times this bound.
_PAST_ENDS = 2.0 ** 52 / _SHIFT_LOG


class LambdaValue(NamedTuple):
    """A family value together with the evaluation branch that produced it."""

    value: float
    branch: str

    def __float__(self) -> float:
        return self.value


def _pair_half_sum(sigma: float, t: float, half_log: float, atanh_t: float) -> float:
    """q_sigma(t) / 2 from the symmetric logs h = log(1 - t^2)/2 and
    tau = atanh(t), in which (1 +- t)^sigma = e^(sigma (h +- tau)).

    In phi's form of sigma, (scaled, P, e, c, k), the c d terms of the two
    points cancel and e (h +- tau) splits the two powers into an even and an
    odd part.  With A = expm1(e h) and S = sinh(e tau / 2) the sum is

        (A + (1 + A) (2 S^2 + [t sinh(e tau) where phi is scaled by x])) / k,

    and at the limit orders, where P is the identity, e h + [t tau at order
    1].  No term is a difference of O(t) values.  _ratio_row writes the
    same operations out as one template, with u = 1 and f = e/2 except at
    the limit orders (u = f = 0, and the identity for sinh):

        (P(e h) + (1 + u P(e h)) (2 sinh(f tau)^2 + [t W(e tau)])) / k.
    """
    scaled, power, e, _, k = _phi_form(sigma)
    if power is pos:
        return e * half_log + t * atanh_t if scaled else e * half_log
    a = math.expm1(e * half_log)
    half = math.sinh(0.5 * e * atanh_t)
    even = 2.0 * half * half
    return (a + (1.0 + a) * (even + t * math.sinh(e * atanh_t) if scaled else even)) / k


def _pair_sum(sigma: float, x_hi: float, t: float, log_hi: float, x_lo: float,
              log_lo: float) -> float:
    """q_sigma(t) = phi_sigma(1 + t) + phi_sigma(1 - t) in the phi form of sigma."""
    scaled, power, e, c, k = _phi_form(sigma)
    m_hi = x_hi if scaled else 1.0
    m_lo = x_lo if scaled else 1.0
    return (m_hi * power(e * log_hi) + c * t) / k + (m_lo * power(e * log_lo) + c * -t) / k


def _ratio_branches(s: float, t: float, x_lo: float, log_lo: float,
                    scale: float) -> tuple[float, str]:
    """scale * R(s, t) and its branch; the lower point x_lo = 1 - t and its
    log are passed in at the precision the caller has them."""
    if t == 0.0:
        return scale, BRANCH_EQUAL
    if s == 2.0:
        # Identically the arithmetic mean; keep the identity bit-exact.
        return scale, BRANCH_GENERIC
    reach = abs(s) + 1.0
    if reach * t <= _SYMMETRIC_REACH:
        if (abs(s) + 2.0) * t * t < _TINY_SPREAD:
            value = scale
        else:
            half_log, atanh_t = 0.5 * math.log1p(-t * t), math.atanh(t)
            value = scale * (_pair_half_sum(s + 1.0, t, half_log, atanh_t)
                             / _pair_half_sum(s, t, half_log, atanh_t))
    else:
        x_hi, log_hi = 1.0 + t, math.log1p(t)
        if reach * -log_lo > _SHIFT_LOG:
            pair = ((0.5, 0.5), (x_hi, x_lo), (t, -t), (log_hi, log_lo))
            value = _scaled_quotient(s, _phi_sum(s + 1.0, *pair), _phi_sum(s, *pair), scale)
            return value, _LIMIT_TAGS.get(s, BRANCH_SCALED)
        value = scale * (_pair_sum(s + 1.0, x_hi, t, log_hi, x_lo, log_lo)
                         / _pair_sum(s, x_hi, t, log_hi, x_lo, log_lo))
    return value, _LIMIT_TAGS.get(s, BRANCH_GENERIC)


def lambda_ratio(s: float, t: float) -> float:
    """Profile lambda_s(1+t, 1-t) = lambda_s(a, b)/A(a, b) at t = (b-a)/(b+a).

    Continuous at t -> 0 with limit 1; t must lie in [0, 1), and the value
    in [1 - t, 1 + t].
    """
    s = _check_order(s)
    if not 0.0 <= t < 1.0:
        _check_coordinate(t)
    value = _ratio_branches(s, t, 1.0 - t, math.log1p(-t), 1.0)[0]
    return value if -_PAST_ENDS < s < _PAST_ENDS else classical._clamp(value, 1.0 - t, 1.0 + t)


class _Columns(NamedTuple):
    """A coordinate grid with everything of its points that no order changes."""

    t: tuple[float, ...]
    x_hi: tuple[float, ...]       # 1 + t
    x_lo: tuple[float, ...]       # 1 - t
    log_hi: tuple[float, ...]     # log1p(t)
    log_lo: tuple[float, ...]     # log1p(-t)
    half_log: tuple[float, ...]   # log1p(-t t) / 2
    atanh: tuple[float, ...]      # atanh(t)
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
            return _Columns(ts, (), (), (), (), (), (), (t,))
    return _Columns(ts, tuple(1.0 + t for t in ts), tuple(1.0 - t for t in ts),
                    tuple(map(math.log1p, ts)), tuple(math.log1p(-t) for t in ts),
                    tuple(0.5 * math.log1p(-t * t) for t in ts), tuple(map(math.atanh, ts)),
                    ())


def _ratio_row(s: float, columns: _Columns) -> list[float]:
    """[lambda_ratio(s, t) for t in columns.t], bit for bit.

    The order is checked, the s = 2 identity applied and the symmetric and
    phi forms of s + 1 and s chosen once per row.  Every order then runs one
    loop with _ratio_branches' tests and the operations of _pair_half_sum
    and _pair_sum written out in their order, 1.0 standing in for x where a
    phi form is not scaled by x; only coordinates in the scaled form go
    through _ratio_branches.  Orders past _PAST_ENDS are clamped after the
    loop, as in lambda_ratio.
    """
    if not columns.t:
        return []
    s = _check_order(s)
    if columns.invalid:
        _check_coordinate(*columns.invalid)
    if s == 2.0:
        return [1.0] * len(columns.t)
    (scaled_up, p_up, e_up, c_up, k_up), (scaled_lo, p_lo, e_lo, c_lo, k_lo) = (
        _phi_form(s + 1.0), _phi_form(s))
    # the symmetric template's coefficients (see _pair_half_sum)
    u_up, u_lo = (0.0 if p is pos else 1.0 for p in (p_up, p_lo))
    f_up, f_lo = 0.5 * e_up * u_up, 0.5 * e_lo * u_lo
    w_up, w_lo = ((math.sinh if u else pos) if scaled else None
                  for u, scaled in ((u_up, scaled_up), (u_lo, scaled_lo)))
    ones = repeat(1.0)
    reach = abs(s) + 1.0
    spread = abs(s) + 2.0
    sinh, tiny, symmetric, shift = math.sinh, _TINY_SPREAD, _SYMMETRIC_REACH, _SHIFT_LOG
    row = [
        (1.0 if spread * t * t < tiny
         else ((a_up := p_up(e_up * h))
               + (1.0 + u_up * a_up) * (2.0 * (half_up := sinh(f_up * tau)) * half_up
                                        + (t * w_up(e_up * tau) if w_up else 0.0))) / k_up
         / (((a_lo := p_lo(e_lo * h))
             + (1.0 + u_lo * a_lo) * (2.0 * (half_lo := sinh(f_lo * tau)) * half_lo
                                      + (t * w_lo(e_lo * tau) if w_lo else 0.0))) / k_lo))
        if reach * t <= symmetric
        else ((m_up_hi * p_up(e_up * log_hi) + c_up * t) / k_up
              + (m_up_lo * p_up(e_up * log_lo) + c_up * -t) / k_up)
        / ((m_lo_hi * p_lo(e_lo * log_hi) + c_lo * t) / k_lo
           + (m_lo_lo * p_lo(e_lo * log_lo) + c_lo * -t) / k_lo)
        if not reach * -log_lo > shift
        else _ratio_branches(s, t, 1.0 - t, log_lo, 1.0)[0]
        for t, log_hi, log_lo, h, tau, m_up_hi, m_up_lo, m_lo_hi, m_lo_lo in zip(
            columns.t, columns.log_hi, columns.log_lo, columns.half_log, columns.atanh,
            columns.x_hi if scaled_up else ones, columns.x_lo if scaled_up else ones,
            columns.x_hi if scaled_lo else ones, columns.x_lo if scaled_lo else ones)]
    if -_PAST_ENDS < s < _PAST_ENDS:
        return row
    return [classical._clamp(value, 1.0 - t, 1.0 + t) for value, t in zip(row, columns.t)]


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
    if lo < 2.0 ** -1021 and hi < 2.0 ** 960:
        # the half of a subnormal rounds, and so may a subnormal value: by
        # homogeneity, evaluate the pair 2^64 times larger and scale back once
        scaled = lambda_mean(s, math.ldexp(lo, 64), math.ldexp(hi, 64))
        return LambdaValue(math.ldexp(scaled.value, -64), scaled.branch)
    t = symmetric_coordinate(lo, hi)
    mid = 0.5 * lo + 0.5 * hi
    # lo/A keeps its precision as t -> 1, where 1 - t has none left (the two
    # logs stand in once lo/A is below the normal range, where it has lost digits)
    x_lo = lo / mid
    log_lo = (math.log1p(-t) if t < 0.5 else math.log(x_lo) if x_lo >= 2.0 ** -1022
              else math.log(lo) - math.log(mid))
    value, branch = _ratio_branches(s, t, x_lo, log_lo, mid)
    if not lo <= value <= hi:
        # at large orders the scaled form's exp(shift) turns the rounding of
        # log(lo/A) into up to 2e-13 relative, and near the float maximum
        # into an overflow
        value = classical._clamp(value, lo, hi)
    return LambdaValue(value, branch)


def lambda_closed_form(s: float, a: float, b: float) -> float:
    """The limit orders from classical means, as an independent cross-check.

        order -1:  2 G^2 log(A/G) / (A - H)
        order  0:  A log(S/A) / log(A/G)
        order  1:  (A - H) / (2 log(S/A))

    Combined exactly as written from the classical mean values, so accuracy
    degrades as the arguments approach each other; intended as a
    verification route, not the evaluation path.  Where that leaves no value
    inside [min(a, b), max(a, b)] (each form is 0/0 at a == b), it raises
    DomainError.
    """
    s = _check_order(s)
    if s not in (-1.0, 0.0, 1.0):
        raise UsageError(f"closed forms exist only for orders -1, 0, 1; got {_repr(s)}")
    classical._check_positive(a, b)
    mean_a = classical.arithmetic(a, b)
    mean_g = classical.geometric(a, b)
    mean_h = classical.harmonic(a, b)
    mean_s = classical.gini(a, b)
    if s == -1.0:
        top, bottom = 2.0 * mean_g * mean_g * math.log(mean_a / mean_g), mean_a - mean_h
    elif s == 0.0:
        top, bottom = mean_a * math.log(mean_s / mean_a), math.log(mean_a / mean_g)
    else:
        top, bottom = mean_a - mean_h, 2.0 * math.log(mean_s / mean_a)
    value = top / bottom if bottom else math.nan
    if not min(a, b) <= value <= max(a, b):
        raise DomainError(f"the order {s:g} closed form has no value inside [min, max] "
                          f"at ({_repr(a)}, {_repr(b)}); use lambda_mean instead")
    return value
