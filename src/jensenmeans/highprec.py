"""Arbitrary-precision reference evaluations (mpmath).

Independent oracles for the double-precision paths, at 50+ digits, with
v = 1 - t kept as the exact working variable so that coordinates down to
1 - t = 1e-300 and beyond are evaluated without loss.  No library path
imports this module eagerly: the tests compare against it, and
:func:`jensenmeans.pair_from_g` borrows its lock and context only for its
quadrature fallback.  The evaluators themselves live in
:mod:`jensenmeans.lambda_family` and :mod:`jensenmeans.classical`.
"""

from __future__ import annotations

import threading

from mpmath import mp, mpf

from .classical import Mean
from .errors import DomainError, _repr

# mp.workdps swaps a process-global precision; serialize all uses so the
# double-precision solvers stay safe to run concurrently.
_MP_LOCK = threading.RLock()

__all__ = [
    "lambda_mean_mp",
    "lambda_ratio_mp",
    "margin_mp",
    "mean_ratio_mp",
]

_LIMIT_SNAP = mpf("1e-20")


def _gap_mp(sigma, v):
    """q_sigma at the pair (2 - v, v), i.e. at t = 1 - v."""
    u = 2 - v
    if abs(sigma) < _LIMIT_SNAP:
        return -(mp.log(u) + mp.log(v))
    if abs(sigma - 1) < _LIMIT_SNAP:
        return u * mp.log(u) + v * mp.log(v)
    return (mp.power(u, sigma) + mp.power(v, sigma) - 2) / (sigma * (sigma - 1))


def _ratio_from_v(s, v):
    return _gap_mp(s + 1, v) / _gap_mp(s, v)


def lambda_ratio_mp(s, t, dps: int = 50):
    """lambda_s(1+t, 1-t) at `dps` digits.  Accepts exact strings for t."""
    with _MP_LOCK, mp.workdps(dps):
        tv = mpf(t)
        if not (0 <= tv < 1):
            raise DomainError(f"coordinate must lie in [0, 1), got {_repr(t)}")
        if tv == 0:
            return mpf(1)
        return _ratio_from_v(mpf(s), 1 - tv)


def lambda_mean_mp(s, a, b, dps: int = 50):
    """lambda_s(a, b) at `dps` digits."""
    with _MP_LOCK, mp.workdps(dps):
        av, bv = mpf(a), mpf(b)
        if av <= 0 or bv <= 0:
            raise DomainError("arguments must be positive")
        if av == bv:
            return av
        lo, hi = (av, bv) if av < bv else (bv, av)
        scale = (lo + hi) / 2
        return scale * _ratio_from_v(mpf(s), lo / scale)


def mean_ratio_mp(kind: Mean | str, v, dps: int = 50):
    """Profile M(2-v, v) of a classical mean, with v = 1 - t exact."""
    kind = Mean.parse(kind)
    with _MP_LOCK, mp.workdps(dps):
        vv = mpf(v)
        if not (0 < vv <= 1):
            raise DomainError(f"v = 1 - t must lie in (0, 1], got {_repr(v)}")
        u = 2 - vv
        if kind is Mean.HARMONIC:
            return u * vv
        if kind is Mean.GEOMETRIC:
            return mp.sqrt(u * vv)
        if kind is Mean.LOGARITHMIC:
            return (u - vv) / (mp.log(u) - mp.log(vv))
        if kind is Mean.IDENTRIC:
            return mp.exp((u * mp.log(u) - vv * mp.log(vv)) / (u - vv) - 1)
        if kind is Mean.ARITHMETIC:
            return mpf(1)
        return mp.exp((u * mp.log(u) + vv * mp.log(vv)) / 2)


def margin_mp(s, kind: Mean | str, v, dps: int = 60) -> float:
    """float(lambda_s / M - 1) at t = 1 - v, v carried exactly.

    The reference for the quantity the sharpness searches sign-test; v may
    be as small as 1e-300 and beyond without loss.
    """
    kind = Mean.parse(kind)
    with _MP_LOCK, mp.workdps(dps):
        vv = mpf(v)
        if not (0 < vv < 1):
            raise DomainError(f"v = 1 - t must lie in (0, 1), got {_repr(v)}")
        lam = _ratio_from_v(mpf(s), vv)
        return float(lam / mean_ratio_mp(kind, v, dps) - 1)
