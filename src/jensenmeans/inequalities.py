"""Certification toolkit for the quotient-mean comparison theorems.

The family lambda_s threads the classical chain H < G < L < I < A < S as the
order s grows.  Writing t = (b-a)/(b+a), every comparison reduces to a
one-variable inequality between profiles on t in (0, 1).  This module holds

* the analytic pieces of those reductions: the log defect certifying the
  order-0 vs logarithmic comparison (:func:`log_defect`), its exact-rational
  series coefficients (:func:`series_table`, from :mod:`jensenmeans._series`),
  the identric-over-order-1 profile with its monotonicity and limits
  (:func:`identric_parts`), and the t -> 1 limit defect against the
  identric mean (:func:`identric_limit_defect`);
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
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

from .classical import (
    Mean, _finite, _linspace, _mu, _nu, _profile_row, mean_value, ratio_to_a,
)
from ._series import SeriesTable, series_table
from .errors import BracketError, DomainError, UsageError, _repr
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

# The rounding bound of a margin lambda_s/mean - 1: every verdict of this
# module reads it.  The probes are off the 60-digit margin by at most 1.4e-13,
# and every probe past a sharp order breaks its claim by at least 1.77e-12.
_EPS = 1e-12

# log-defect evaluation: series below, direct formula above.
_DEFECT_SERIES_T = 0.2

_LN2 = math.log(2.0)


def _breaks(margin: float, side: str) -> bool:
    """Whether a margin lambda_s/mean - 1 breaks the claim on `side` (mean <=
    lambda_s for "lower", lambda_s <= mean for "upper"): it lies beyond _EPS
    on the claim's failing side."""
    return margin < -_EPS if side == "lower" else margin > _EPS


# ---------------------------------------------------------------------------
# series coefficients (exact rationals, built in jensenmeans._series)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _defect_floats(n_max: int = 80) -> tuple[float, ...]:
    return tuple(float(c) for c in series_table(n_max, dual_route_up_to=2).c_closed)


# ---------------------------------------------------------------------------
# analytic pieces
# ---------------------------------------------------------------------------


def _check_open_unit(t: float) -> None:
    if not 0.0 < t < 1.0:  # also nan, and ints beyond the float range
        raise DomainError(f"argument must lie strictly inside (0, 1), got {_repr(t)}")


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


def _family_limit_at_1(s: float) -> float:
    """lambda_s/A as t -> 1, (s-1)/(s+1) * (2^(s+1) - 2)/(2^s - 2) for s != -1,
    at every magnitude: it tends to 2 and 1 as s -> +-inf, and to 1/(2 ln 2)
    at the removable point s = 1."""
    if s == 1.0:  # where the form below is 0/0
        return 0.5 / _LN2
    gap = math.expm1(min(s, 100.0) * _LN2)  # 2^s - 1; past 100 the ratio rounds to 2
    # 2^s - 2 is gap - 1, which cancels as s -> 1; below 1.5 it is 2 (2^(s-1) - 1)
    low = gap - 1.0 if s >= 1.5 else 2.0 * math.expm1((s - 1.0) * _LN2)
    return (s - 1.0) / (s + 1.0) * (2.0 * gap / low)


def identric_limit_defect(s: float) -> float:
    """Limit of lambda_s/I - 1 as the pair degenerates the other way (t -> 1):

        e (s-1) (2^(s+1) - 2) / (2 (s+1) (2^s - 2)) - 1.

    Defined at every finite order but its pole s = -1; at s = 1 it takes its
    limit e/(4 ln 2) - 1, and it tends to e - 1 and e/2 - 1 as s -> +inf and
    -inf.  Its only real zero,
    s1 ~ 1.0376072818, is not the sharp lower order of the identric
    comparison: at s1 the claim I <= lambda_s still fails, by -6.9e-9, at
    1 - t ~ 5.75e-8, and the sharp order is the tangency 1.3e-8 above it.
    """
    if not _finite(s):
        raise DomainError(f"order must be finite, got {_repr(s)}")
    if s == -1.0:
        raise DomainError(f"limit defect has a pole at order -1, got {_repr(s)}")
    return math.e * _family_limit_at_1(s) / 2.0 - 1.0


def identric_limit_defect_root() -> float:
    """The only real zero s1 of the limit defect: the root at 60 digits,
    stated to 40, which Python rounds correctly."""
    return 1.037607281844356696805872626329372780110


# ---------------------------------------------------------------------------
# the comparison theorem
# ---------------------------------------------------------------------------


class _Row(NamedTuple):
    """One mean's sharp orders: lambda_s <= mean for every argument pair
    exactly when s <= upper, and mean <= lambda_s exactly when s >= lower;
    the probes break each claim `upper_break` above or `lower_break` below."""

    mean: Mean
    upper: float
    # None when no finite order dominates the mean for all arguments
    lower: float | None
    limit_at_1: float | None  # profile mean/A as t -> 1; None: it tends to 0
    upper_break: float = 1e-10
    lower_break: float = 1e-10


# The theorem, in chain order; part k of verify_part (2..7) runs from row
# k-3's lower order to row k-2's upper order.  The upper orders are 2 + 6 c2
# for a mean profile 1 + c2 t^2 as t -> 0; as t -> 1, lambda_s/H -> (s-1)/(2(s+1))
# gives -3 and lambda_s/G ~ (1-t)^(-s-1/2) gives -1/2; lambda_2 is A.  The L and
# I lower orders are interior tangencies, where the margin and its slope in
# log(1 - t) vanish together (t* ~ 0.98960 and the pair (5.75e-8, 2)): the 2x2
# Newton solution at 60 digits, stated to 40, which Python rounds correctly.
# A probe 1e-10 past its order breaks a claim beyond _EPS, except past the
# quadratic t -> 0 crossings, where the probes' largest margin grows like
# delta^2 with the offset delta (1.8e-12 to 6.3e-11 at the offsets below),
# and below G.lower, which breaks at 1 - t ~ exp(-0.217 / delta); a tenth of
# each of those offsets leaves the claim holding.
_THEOREM = (
    _Row(Mean.HARMONIC, -4.0, -3.0, None, upper_break=1e-5),
    _Row(Mean.GEOMETRIC, -1.0, -0.5, None, upper_break=1e-5, lower_break=1e-3),
    _Row(Mean.LOGARITHMIC, 0.0, 0.08748927344881567512938710524640894388571, None,
         upper_break=1e-5),
    _Row(Mean.IDENTRIC, 1.0, 1.037607295256628815795138010571272023535, 2.0 / math.e,
         upper_break=1e-6),
    _Row(Mean.ARITHMETIC, 2.0, 2.0, 1.0),
    _Row(Mean.GINI, 5.0, None, 2.0, upper_break=1e-5),
)

#: (mean, side) of every finite sharp order, in the threshold catalog's order.
CATALOG_ORDER = tuple(
    (row.mean, side)
    for row in _THEOREM
    for side, order in (("upper", row.upper), ("lower", row.lower))
    if order is not None
)


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
    if not _finite(s) or s <= 1.0:
        raise DomainError(f"the t->1 limit needs an order s > 1, got {_repr(s)}")
    family_limit = _family_limit_at_1(s)
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
    """Golden-section minimum of fun on [a, b], a <= b; returns (x, fun(x))."""
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


def _worst_margin(s: float, target: Mean, side: str) -> Tightness:
    """Extremal value of lambda_s/target - 1 over the coordinate probes, as
    the claim on `side` at order s with its witness coordinate.

    side == "lower" minimizes (the comparison target sits below the family),
    side == "upper" maximizes.  The coarse extremum and every local extremum
    of the grid that lies more than _EPS beyond both its neighbours
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
        # a local minimum within _EPS of a neighbour is rounding ripple
        if i == best_i or 0 < i < last and (
                value < values[i - 1] - _EPS and value < values[i + 1] - _EPS):
            t, refined = _golden_min(signed, grid[max(i - 1, 0)], grid[min(i + 1, last)])
            if refined < best:
                best, t_best = refined, t
    worst, v_best = sign * best, 1.0 - t_best

    for v in _EXTENDED_V:
        margin = lambda_mean(s, v, 2.0).value / mean_value(target, v, 2.0) - 1.0
        if sign * margin < sign * worst:
            worst, t_best, v_best = margin, 1.0 - v, v
    return Tightness(_claim(target, side), s, t_best, v_best, worst)


# ---------------------------------------------------------------------------
# threshold solving
# ---------------------------------------------------------------------------


class ThresholdResult(NamedTuple):
    """A sharp comparison order with the evidence that it is sharp.

    The comparison holds at `critical_s`, and breaks beyond the rounding
    bound 1e-12 at the other end of `bracket`, at the coordinate `witness_t`
    (`witness_one_minus_t` carries 1 - t exactly where t rounds to 1).  The
    bracket's width is the resolution achieved.  Every order is stated in
    the theorem table, so nothing is solved and `iterations` is 0.
    """

    target: str
    side: str
    critical_s: float
    bracket: tuple[float, float]
    witness_t: float
    witness_one_minus_t: float
    iterations: int


def _check_side(side: str) -> str:
    if isinstance(side, str):
        side = side.strip().lower()
    if side not in ("lower", "upper"):
        raise UsageError(f"side must be 'lower' or 'upper', got {_repr(side)}")
    return side


_MAX_OFFSET = 1e-2  # the farthest past its order a claim is probed


def solve_threshold(target: Mean | str, side: str, tol: float = 1e-10) -> ThresholdResult:
    """The sharp order of a one-sided comparison, with its evidence.

    side == "lower" gives the least order s* such that target <= lambda_s
    for every argument pair; side == "upper" the greatest order with
    lambda_s <= target.  The order is the theorem table's stated number
    (UsageError where there is none).  One rounding bound, 1e-12, decides
    both verdicts on the margin lambda_s/target - 1: the worst margin over
    the coordinate probes must stay inside it at the order, and lie beyond
    it on the failing side at the one probe past the order,
    s* -+ min(max(tol, offset), 1e-2), with the table's offset for that
    order; either failing raises BracketError.  The offset is the
    resolution of the evidence: 1e-10 for linear and tangent crossings,
    1e-6..1e-5 for the quadratic t -> 0 ones (upper orders -4, -1, 0, 1, 5),
    1e-3 for the geometric lower order.
    """
    target = Mean.parse(target)
    side = _check_side(side)
    if not (_finite(tol) and tol > 0.0):
        raise UsageError(f"tolerance must be positive and finite, got {_repr(tol)}")
    row = _row(target)
    order = row.upper if side == "upper" else row.lower
    if order is None:
        raise UsageError(
            f"no finite sharp order exists for {target.value}.{side}; the "
            "comparison fails for every order once the arguments are "
            "unbalanced enough"
        )
    name = f"{target.value}.{side}"
    at_order = _worst_margin(order, target, side)
    if _breaks(at_order.margin, side):
        raise BracketError(
            f"{name}: the claim fails at its sharp order {order!r} (worst margin "
            f"{at_order.margin:.3e} at 1 - t = {at_order.one_minus_t:.3g})"
        )
    probe = _sharpness_witness(row, side, order, tol)
    if not probe.found:
        raise BracketError(
            f"{name}: the claim still holds at {probe.probe_s!r}, past its order "
            f"{order!r}, which is therefore not sharp"
        )
    return ThresholdResult(
        target=target.value,
        side=side,
        critical_s=order,
        bracket=(probe.probe_s, order) if side == "lower" else (order, probe.probe_s),
        witness_t=probe.t,
        witness_one_minus_t=probe.one_minus_t,
        iterations=0,
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


class InequalityViolation(NamedTuple):
    claim: str
    s: float
    t: float
    lhs: float
    rhs: float


class SharpnessWitness(NamedTuple):
    """A violation found just outside a claimed interval endpoint."""

    endpoint_s: float
    probe_s: float
    claim: str
    t: float
    one_minus_t: float
    margin: float
    found: bool


class Tightness(NamedTuple):
    """Where a claim comes closest to failing at order s over the coordinate
    probes: the refined worst margin lambda_s/mean - 1, at coordinate t
    (1 - t kept exactly where t rounds to 1)."""

    claim: str
    s: float
    t: float
    one_minus_t: float
    margin: float


class PartReport(NamedTuple):
    part: int
    passed: bool
    checks: int
    violations: tuple[InequalityViolation, ...]
    sharpness: tuple[SharpnessWitness, ...]
    notes: tuple[str, ...]
    # one entry per claim checked at its end order, none for an explicit
    # order grid or for parts 1 and 8; kept out of repr, so that every
    # report prints the six fields all of them fill
    tightest: tuple[Tightness, ...] = ()

    def __repr__(self) -> str:
        return (f"PartReport(part={self.part!r}, passed={self.passed!r}, "
                f"checks={self.checks!r}, violations={self.violations!r}, "
                f"sharpness={self.sharpness!r}, notes={self.notes!r})")


def _default_t_grid(n: int = 2000) -> list[float]:
    return _linspace(1e-6, 1.0 - 1e-6, n)


@lru_cache(maxsize=2)
def _default_table(n: int) -> _GridTable:
    """verify_part's default coordinate grid of n points, built once."""
    return _GridTable(_default_t_grid(n))


def _claim(mean: Mean, side: str) -> str:
    return f"{mean.value} <= lambda" if side == "lower" else f"lambda <= {mean.value}"


def _sharpness_witness(row: _Row, side: str, order: float, tol: float) -> SharpnessWitness:
    """A row's claim on one side probed past its order by the table's
    offset, or by `tol` where farther, but no farther than _MAX_OFFSET."""
    offset = min(max(tol, row.lower_break if side == "lower" else row.upper_break),
                 _MAX_OFFSET)
    probe_s = order - offset if side == "lower" else order + offset
    witness = _worst_margin(probe_s, row.mean, side)
    return SharpnessWitness(
        endpoint_s=order,
        probe_s=probe_s,
        claim=witness.claim,
        t=witness.t,
        one_minus_t=witness.one_minus_t,
        margin=witness.margin,
        found=_breaks(witness.margin, side),
    )


def _scan(rows: Sequence[tuple], t_values: Sequence[float]) -> list[InequalityViolation]:
    """The coordinates at which rows (claim, side, s, family, reference) break
    their claims: where the family value lies beyond _EPS of the reference
    value on the claim's failing side.  Reported t-major, rows in their order
    at one coordinate, with lhs and rhs in claim order."""
    found = sorted((i, k) for k, (_, side, _, family, reference) in enumerate(rows)
                   for i, (value, target) in enumerate(zip(family, reference))
                   if _breaks(value / target - 1.0, side))
    violations = []
    for i, k in found:
        claim, side, s, family, reference = rows[k]
        lhs, rhs = (reference[i], family[i]) if side == "lower" else (family[i], reference[i])
        violations.append(InequalityViolation(claim, s, t_values[i], lhs, rhs))
    return violations


def _sides_at(target: Mean, witness: Tightness) -> tuple[float, float]:
    """The target's and the family's profile values at a _worst_margin witness."""
    s, t, v = witness.s, witness.t, witness.one_minus_t
    if v == 1.0 - t:  # a coordinate double precision holds
        return ratio_to_a(target, t), lambda_ratio(s, t)
    # a probe at the pair (1 - t, 2), whose arithmetic mean rounds to 1
    return mean_value(target, v, 2.0), lambda_mean(s, v, 2.0).value


def _verify_interval_part(
    part: int,
    below: _Row | None,
    above: _Row,
    s_values: Sequence[float] | None,
    table: _GridTable,
) -> PartReport:
    # (mean, side, sharp order) per claim, the lower claim first
    claims = [(above.mean, "upper", above.upper)]
    if below is not None:
        claims.insert(0, (below.mean, "lower", below.lower))
    profiles = [table.profile(mean) for mean, *_ in claims]

    t_values, columns = table.t, table.columns
    violations: list[InequalityViolation] = []
    tightest: list[Tightness] = []
    end_notes: list[str] = []
    if s_values is not None:
        for s in s_values:
            family = _ratio_row(s, columns)
            violations += _scan([(_claim(mean, side), side, s, family, profile)
                                 for (mean, side, _), profile in zip(claims, profiles)],
                                t_values)
        checks = len(s_values) * len(t_values) * len(claims)
    else:
        # lambda_s is nondecreasing in s (part 1), so a lower claim holds on
        # the whole interval when it holds at its left end, an upper claim
        # when it holds at its right end: one order per claim, on the
        # coordinate grid and through the refined probes
        for (mean, side, s), profile in zip(claims, profiles):
            claim = _claim(mean, side)
            violations += _scan([(claim, side, s, _ratio_row(s, columns), profile)], t_values)
            witness = _worst_margin(s, mean, side)
            target, family = _sides_at(mean, witness)
            broken = _scan([(claim, side, s, (family,), (target,))], (witness.t,))
            violations += broken
            tightest.append(witness)
            note = (f"{witness.claim} checked at s = {s}; with part 1's monotonicity this "
                    f"covers every s {'>=' if side == 'lower' else '<='} {s}")
            if not broken and (witness.margin < 0.0 if side == "lower"
                               else witness.margin > 0.0):
                note += (f"; its worst margin {witness.margin:+.1e} (t = {witness.t:.6g}, "
                         f"1 - t = {witness.one_minus_t:.3g}) is inside the rounding "
                         f"bound {_EPS:g}, which carries the claim")
            end_notes.append(note)
        checks = len(claims) * (len(t_values) + 1)

    witnesses = [_sharpness_witness(_row(mean), side, order, 0.0)
                 for mean, side, order in claims]

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


def _verify_monotonicity(s_values: Sequence[float], table: _GridTable) -> PartReport:
    ordered = sorted(s_values)
    t_values = table.t
    # the scan runs t-major: its first coordinate meets every order before
    # any other coordinate is looked at, so that column raises first
    first = _ratio_columns(t_values[:1])
    for s in ordered:
        _ratio_row(s, first)
    rows = [_ratio_row(s, table.columns) for s in ordered]
    # each order against the next smaller one
    steps = [("lambda non-decreasing in order", "lower", s, row, previous)
             for s, row, previous in zip(ordered[1:], rows[1:], rows)]
    violations = _scan(steps, t_values)
    return PartReport(
        part=1,
        passed=not violations,
        checks=len(steps) * len(t_values),
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
                f"the no-global-bound check probes orders above {s_min:g}, got {_repr(s)}"
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
        witnesses.append(
            SharpnessWitness(
                endpoint_s=math.inf,
                probe_s=s,
                claim="S <= lambda fails for unbalanced arguments",
                t=t,
                one_minus_t=1.0 - t,
                margin=margin,
                found=_breaks(margin, "lower"),
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
    coordinate probes: a grid dense toward both ends of (0, 1), golden
    refinement of its local minima, and 1 - t from 1e-16 down to 1e-300.
    A grid point or probe where the margin lambda_s/mean - 1 lies beyond
    the rounding bound 1e-12 on the claim's failing side is a violation,
    and `tightest` holds each claim's worst margin.
    `checks` counts the grid points plus one refined worst margin per
    claim.  An explicit `s_values` compares every claim at every given
    order on the coordinate grid alone, and reports no tightness.

    `sharpness` holds one witness per claim, the probe just past its sharp
    order of its :func:`threshold_catalog` entry; a part passes when
    nothing is violated and every witness breaks its claim.  Part 8 reads
    only `s_values`.  Part 1 reports a violation where lambda_s falls below
    its value at the next smaller order by more than the same bound,
    relatively.  Raises UsageError for a part that is not an integer in
    1..8.
    """
    if not (isinstance(part, int) and not isinstance(part, bool) and 1 <= part <= 8):
        raise UsageError(f"part must be an integer in 1..8, got {_repr(part)}")
    if part == 1:
        s_grid = (list(s_values) if s_values is not None
                  else _linspace(-10.0, 10.0, 50))
        table = _GridTable(t_values) if t_values is not None else _default_table(200)
        return _verify_monotonicity(s_grid, table)
    if part == 8:
        s_grid = list(s_values) if s_values is not None else [5.5, 6.0, 10.0]
        return _verify_no_global_gini_bound(s_grid)
    # part k claims row k-3's mean <= lambda_s <= row k-2's mean; part 2 has
    # no lower claim
    below, above = (_THEOREM[part - 3] if part > 2 else None), _THEOREM[part - 2]
    s_grid = list(s_values) if s_values is not None else None
    table = _GridTable(t_values) if t_values is not None else _default_table(2000)
    return _verify_interval_part(part, below, above, s_grid, table)
