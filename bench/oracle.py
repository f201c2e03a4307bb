"""Independent mpmath references for the benchmark's accuracy sentinels.

The library's own high-precision module (``jensenmeans.highprec``) is one of
the layers under test, so nothing here imports it: every reference is built
from the defining formulas at 60 significant digits plus the digits that the
formula is known to cancel for the given input.

* :func:`gap_quotient` -- the weighted Jensen-gap quotient
  gap_{s+1} / gap_s of the normalized power generator, with the exact
  s = 0 and s = 1 limit forms.  With two equally weighted points it is the
  bivariate family value lambda_s(a, b).
* :func:`classical_mean` -- the six classical means H, G, L, I, A, S.
* :func:`identric_lower_root` and :func:`threshold_references` -- the sharp
  orders of the comparison theorem that have a closed form.
"""

from __future__ import annotations

import math
from functools import lru_cache

from mpmath import mp, mpf

BASE_DPS = 60


def _lost_digits(rel_spread: float, *orders: float) -> int:
    """Digits the defining formulas cancel at this input.

    The gap sum_i p x_i^sigma - c^sigma vanishes like spread^2, and its
    normalizer sigma (sigma - 1) like the distance of sigma to 0 or 1.
    """
    lost = 5
    if 0.0 < rel_spread < 1.0:
        lost += 2 * math.ceil(-math.log10(rel_spread))
    for s in orders:
        for pole in (0.0, 1.0):
            distance = abs(s - pole)
            if 0.0 < distance < 1.0:
                lost += math.ceil(-math.log10(distance))
    return lost


def _gap(sigma, points, weights, center):
    """Weighted Jensen gap of the normalized power generator of order sigma."""
    if sigma == 0:
        return mp.log(center) - mp.fsum(p * mp.log(x) for p, x in zip(weights, points))
    if sigma == 1:
        return mp.fsum(p * x * mp.log(x) for p, x in zip(weights, points)) - center * mp.log(center)
    power_sum = mp.fsum(p * mp.power(x, sigma) for p, x in zip(weights, points))
    return (power_sum - mp.power(center, sigma)) / (sigma * (sigma - 1))


def gap_quotient(s: float, points, weights=None) -> float:
    """gap_{s+1} / gap_s at the weighted sample, rounded once to a double.

    Points and weights are taken exactly as the binary64 values given;
    weights are normalized to sum 1 in extended precision.
    """
    lo, hi = min(points), max(points)
    spread = (hi - lo) / lo
    dps = BASE_DPS + _lost_digits(spread, s, s + 1.0)
    with mp.workdps(dps):
        xs = [mpf(x) for x in points]
        if weights is None:
            ws = [mpf(1) / len(xs)] * len(xs)
        else:
            raw = [mpf(w) for w in weights]
            total = mp.fsum(raw)
            ws = [w / total for w in raw]
        center = mp.fsum(p * x for p, x in zip(ws, xs))
        order = mpf(s)
        return float(_gap(order + 1, xs, ws, center) / _gap(order, xs, ws, center))


def lambda_mean(s: float, a: float, b: float) -> float:
    """lambda_s(a, b): the two-point, equal-weight gap quotient."""
    if a == b:
        return float(a)
    return gap_quotient(s, (a, b))


def classical_mean(kind: str, a: float, b: float) -> float:
    """The classical mean `kind` (one of H, G, L, I, A, S) of a != b."""
    lo, hi = min(a, b), max(a, b)
    with mp.workdps(BASE_DPS + _lost_digits((hi - lo) / lo)):
        x, y = mpf(a), mpf(b)
        if kind == "H":
            value = 2 * x * y / (x + y)
        elif kind == "G":
            value = mp.sqrt(x * y)
        elif kind == "L":
            value = (y - x) / (mp.log(y) - mp.log(x))
        elif kind == "I":
            value = mp.exp((y * mp.log(y) - x * mp.log(x)) / (y - x) - 1)
        elif kind == "A":
            value = (x + y) / 2
        elif kind == "S":
            value = mp.exp((x * mp.log(x) + y * mp.log(y)) / (x + y))
        else:
            raise ValueError(f"unknown mean {kind!r}")
        return float(value)


@lru_cache(maxsize=1)
def identric_lower_root() -> float:
    """Root near 1.0376 of the t -> 1 identric limit defect

        e (s - 1) (2^(s+1) - 2) / (2 (s + 1) (2^s - 2)) - 1,

    the sharp lower order of the identric comparison.
    """
    with mp.workdps(50):
        def defect(s):
            return mp.e * (s - 1) * (mp.power(2, s + 1) - 2) / (2 * (s + 1) * (mp.power(2, s) - 2)) - 1

        return float(mp.findroot(defect, (mpf("1.03"), mpf("1.04")), solver="anderson"))


def threshold_references() -> dict[str, float]:
    """Exact sharp orders for the catalog entries that have one.

    L.lower has no closed form and is left out.
    """
    return {
        "H.upper": -4.0,
        "H.lower": -3.0,
        "G.upper": -1.0,
        "G.lower": -0.5,
        "L.upper": 0.0,
        "I.upper": 1.0,
        "I.lower": identric_lower_root(),
        "A.upper": 2.0,
        "A.lower": 2.0,
        "S.upper": 5.0,
    }
