"""phi's closed form, shared by the two-point and the n-point families.

The normalized power generator phi_sigma (curvature x^(sigma - 2), zero with
its slope at x = 1) carries every gap of the package: the n-point gaps of
:mod:`jensenmeans.jensen` are weighted sums of it over a sample, and the
two-point profile of :mod:`jensenmeans.lambda_family` is the quotient of
such sums at the pair (1 + t, 1 - t).  Both take from here the order check,
phi's coefficients per order (:func:`_phi_form`), its weighted sum scaled by
the largest power where that would leave the float range (:func:`_phi_sum`)
and the quotient of two such sums (:func:`_scaled_quotient`).  The module
holds no moment series and no sample type, so the two-point family loads
nothing of the n-point one.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import pos
from typing import Callable, Sequence

from .errors import DomainError, _repr

# Largest order magnitude the kernel takes: sigma (sigma - 1) stays in range.
_ORDER_MAX = 1e150
# Beyond this exponent order * log(x_i/c) a power sum is scaled by its largest power.
_SHIFT_LOG = 600.0
# The least normal double: a quotient of sums below it has lost digits.
_NORMAL_MIN = 2.0 ** -1022


def _check_order(s: float) -> float:
    if not abs(s) <= _ORDER_MAX:
        raise DomainError(
            f"order parameter must be a finite real of magnitude <= {_ORDER_MAX:g}, "
            f"got {_repr(s)}")
    return float(s)


# Below this order magnitude phi_sigma is phi_0 to double precision (they
# differ by O(sigma log x)), while the closed form's products sigma log x
# and sigma d reach the subnormal range and lose every digit.
_ORDER_FLAT = 1e-200

# phi_sigma's closed form as (scaled, power, e, c, k): at x = 1 + d,
# phi_sigma(x) = ((x if scaled else 1) power(e log x) + c d) / k
_PhiForm = tuple[bool, Callable[[float], float], float, float, float]
_PHI_AT_0: _PhiForm = (False, pos, -1.0, 1.0, 1.0)  # d - log x
_PHI_AT_1: _PhiForm = (True, pos, 1.0, -1.0, 1.0)   # x log x - d

_expm1 = math.expm1


def _phi_form(sigma: float) -> _PhiForm:
    """The one closed form of the power generator,
    phi_sigma(x) = (x^sigma - 1 - sigma d) / (sigma (sigma - 1)) at x = 1 + d,
    as the coefficients of ((x or 1) power(e log x) + c d) / k, with x, d and
    log x each given at the precision the caller has them.

    The coefficients depend on sigma alone, so a caller evaluating one order
    at many points chooses them once.  The expm1 split keeps the factor
    vanishing at sigma = 0 or 1 inside each term, so accuracy is uniform in
    sigma; the limit orders take power = identity.
    """
    if sigma > 0.5:
        if sigma == 1.0:
            return _PHI_AT_1
        # x^s - 1 - s d = x (x^(s-1) - 1) + (1 - s) d
        return True, _expm1, sigma - 1.0, 1.0 - sigma, sigma * (sigma - 1.0)
    if -_ORDER_FLAT < sigma < _ORDER_FLAT:
        return _PHI_AT_0
    # x^s - 1 - s d = (x^s - 1) - s d
    return False, _expm1, sigma, -sigma, sigma * (sigma - 1.0)


def _phi_sum(sigma: float, weights: Sequence[float], ratios: Sequence[float] | None,
             devs: Sequence[float], logs: Sequence[float],
             top: float | None = None) -> tuple[float, float, float]:
    """sum_i p_i phi_sigma(x_i) = exp(sigma top) rest / k at x_i = ratios[i] =
    1 + devs[i], as (top, rest, k): top = 0 and k = 1, or the log x_i of the
    largest power and k = sigma (sigma - 1) once some sigma log x_i exceeds
    _SHIFT_LOG (never at sigma = 1, where x log x does not overflow before x
    does); there rest / k may underflow although its log does not.  A caller
    may pass `top`, the max (sigma > 0) or min of logs; ratios are read at
    sigma > 1/2 only."""
    if top is None:
        top = max(logs) if sigma > 0.0 else min(logs)
    if sigma * top <= _SHIFT_LOG or sigma == 1.0:
        scaled, power, e, c, k = _phi_form(sigma)
        total = math.fsum([p * ((x * power(e * log_x) + c * d) / k) for p, x, d, log_x
                           in zip(weights, ratios if scaled else repeat(1.0), devs, logs)])
        return 0.0, total, 1.0
    floor = math.exp(-sigma * top)
    if floor:
        rest = math.fsum(p * (math.exp(sigma * (log_x - top)) - floor * (1.0 + sigma * d))
                         for p, d, log_x in zip(weights, devs, logs))
    else:  # the floor terms sum to floor itself (sum_i p_i d_i = 0), below the float
        # range; each alone can be 0 * inf where sigma d_i overflows
        rest = math.fsum(p * math.exp(sigma * (log_x - top)) for p, log_x in zip(weights, logs))
    return top, rest, sigma * (sigma - 1.0)


def _scaled_quotient(s: float, upper: tuple[float, float, float],
                     lower: tuple[float, float, float], scale: float) -> float:
    """scale times the quotient of the (top, rest, k) sums of orders s + 1 and s."""
    (top_hi, rest_hi, k_hi), (top_lo, rest_lo, k_lo) = upper, lower
    above, below = rest_hi / k_hi, rest_lo / k_lo
    if above >= _NORMAL_MIN and below >= _NORMAL_MIN:  # sums of phi >= 0
        ratio = above / below
    else:  # a rest / k leaves the normal range at huge orders, where k is huge
        ratio = rest_hi / rest_lo * (k_lo / k_hi)
    # one shared point x: x^(s+1) / x^s = x, without a difference of products
    shift = top_hi if top_hi == top_lo else (s + 1.0) * top_hi - s * top_lo
    if abs(shift) < 700.0:
        return scale * (ratio * math.exp(shift))
    # the quotient itself may lie outside the float range; its product not
    return math.exp(shift + math.log(ratio) + math.log(scale))
