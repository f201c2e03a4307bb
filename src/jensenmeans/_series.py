"""Exact-rational coefficients of the log-defect expansion.

The log defect of :func:`jensenmeans.inequalities.log_defect` behaves like
-t^6/90 near 0, where its direct formula cancels; its series phi(t)/t^2 =
sum c_n t^(2n) has coefficients that are exact rationals.  This module
builds them by two routes, the harmonic-sum closed form and the Cauchy
product, so that their agreement and the signs of the harmonic kernel are
exact facts, not rounded ones.

It imports only :mod:`jensenmeans.errors` (and ``fractions`` when a table is
built): the ``series`` subcommand loads none of the certifier,
:mod:`jensenmeans.inequalities`, which re-exports these names.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

from .errors import SERIES_N_MAX, UsageError, _repr

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = ["SeriesTable", "series_table"]


class SeriesTable(NamedTuple):
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

    The convolution route costs O(n^2) exact-rational operations, so it runs
    to at most SERIES_N_MAX, and can be capped lower with `dual_route_up_to`
    when only the closed form is needed at large n (sign checks of d_n, say).
    The closed form alone runs to 10 * SERIES_N_MAX (under a second).
    Arguments past either bound, or a cap that is not a nonnegative integer,
    raise UsageError before any work.
    """
    if not isinstance(n_max, int) or not 2 <= n_max <= 10 * SERIES_N_MAX:
        raise UsageError(
            f"n_max must be an integer in 2..{10 * SERIES_N_MAX}, got {_repr(n_max)}")
    cap = n_max if dual_route_up_to is None else dual_route_up_to
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise UsageError(f"dual_route_up_to must be a nonnegative integer, got {_repr(cap)}")
    dual = min(n_max, cap)
    if dual > SERIES_N_MAX:
        raise UsageError(f"the convolution route runs to n = {SERIES_N_MAX} at most, "
                         f"got {dual}; cap it with dual_route_up_to")
    from fractions import Fraction  # here, so that no other path pays for importing it

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
