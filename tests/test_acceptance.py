"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The whole suite finishes in well under a minute.
"""

import math
import random
import time

import numpy as np
import pytest

from jensenmeans import (
    ConvexPair,
    Mean,
    MomentReport,
    PSI_SUP,
    WeightedSample,
    arithmetic,
    cubic_moment_bounds,
    gini,
    identric_limit_defect_root,
    identric_parts,
    lambda_closed_form,
    lambda_mean,
    lambda_quotient,
    lambda_ratio,
    limit_ratio_at_t1,
    power_pair,
    ratio_to_a,
    series_table,
    solve_threshold,
    verify_part,
)


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {status}: {label}{suffix}")
    assert passed, f"criterion {number}: {label}{suffix}"


def random_pairs(count: int, ratio_lo: float, ratio_hi: float, seed: int):
    rng = random.Random(seed)
    log_lo, log_hi = math.log(ratio_lo), math.log(ratio_hi)
    for _ in range(count):
        ratio = math.exp(rng.uniform(log_lo, log_hi))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        yield scale, scale * ratio


def test_criterion_01_order_two_is_arithmetic():
    worst = 0.0
    for a, b in random_pairs(10_000, 1.0 + 1e-9, 1e6, seed=101):
        value = lambda_mean(2.0, a, b).value
        worst = max(worst, abs(value / arithmetic(a, b) - 1.0))
    report(1, "order 2 coincides with the arithmetic mean", worst <= 1e-12,
           f"worst |ratio-1| = {worst:.2e} over 10^4 pairs")


def test_criterion_02_closed_form_cross_checks():
    worst = 0.0
    for a, b in random_pairs(1_000, 1.01, 1e4, seed=202):
        for s in (-1.0, 0.0, 1.0):
            direct = lambda_mean(s, a, b).value
            closed = lambda_closed_form(s, a, b)
            worst = max(worst, abs(direct / closed - 1.0))
    report(2, "limit orders match their closed forms", worst <= 1e-10,
           f"worst rel diff = {worst:.2e} over 10^3 pairs x 3 orders")


def test_criterion_03_monotone_in_order():
    s_grid = [-10.0 + 20.0 * i / 199 for i in range(200)]
    t_grid = [1e-6 + (1.0 - 2e-6) * j / 199 for j in range(200)]
    worst_inversion = 0.0
    for t in t_grid:
        previous = None
        for s in s_grid:
            value = lambda_ratio(s, t)
            if previous is not None and value < previous:
                worst_inversion = max(
                    worst_inversion,
                    (previous - value) / max(abs(previous), abs(value)),
                )
            previous = value
    report(3, "family is monotone in the order on a 200x200 grid",
           worst_inversion <= 1e-12,
           f"worst relative inversion = {worst_inversion:.2e}")


def test_criterion_04_series_constants():
    table = series_table(200)
    ok = table.c_closed[0] == 0 and table.c_closed[1] == 0
    ok &= table.c_convolution[0] == 0 and table.c_convolution[1] == 0
    ok &= abs(float(table.c_closed[2]) + 1.0 / 90.0) <= 1e-15
    dual = all(
        table.c_convolution[n] == table.c_closed[n]  # exact rationals
        for n in range(201)
    )
    deep = series_table(1000, dual_route_up_to=2)
    signs = all(deep.d[n] < 0 for n in range(2, 1001))
    report(4, "series constants (c0=c1=0, c2=-1/90, dual route, d_n<0)",
           ok and dual and signs,
           "dual route agrees exactly for n<=200; d_n<0 for n<=1000")


def test_criterion_05_identric_profile_bounds():
    grid = [0.01 + (0.999 - 0.01) * i / 9999 for i in range(10_000)]
    values = [identric_parts(t).i_over_lambda1 for t in grid]
    increasing = all(hi > lo for lo, hi in zip(values, values[1:]))
    in_bounds = all(1.0 - 1e-12 <= v <= PSI_SUP + 1e-12 for v in values)
    lo_limit = abs(identric_parts(1e-9).i_over_lambda1 - 1.0) <= 1e-6
    hi_limit = abs(identric_parts(1.0 - 1e-9).i_over_lambda1 - PSI_SUP) <= 1e-6
    four_decimals = abs(PSI_SUP - 1.0200) <= 5e-5
    report(5, "identric/order-1 profile: monotone, bounded, correct limits",
           increasing and in_bounds and lo_limit and hi_limit and four_decimals,
           f"sup = {PSI_SUP:.6f}")


def test_criterion_06_limit_defect_root():
    root = identric_limit_defect_root()
    solved = solve_threshold("I", "lower", tol=1e-8).critical_s
    report(6, "limit-defect root matches the identric lower threshold",
           abs(root - 1.0376) <= 5e-4 and abs(root - solved) <= 1e-6,
           f"root = {root:.7f}, threshold = {solved:.7f}, "
           f"delta = {abs(root - solved):.1e}")


def test_criterion_07_logarithmic_lower_threshold():
    result = solve_threshold("L", "lower", tol=1e-10)
    inside = 1.0 / 12.0 < result.critical_s < 1.0 / 11.0
    report(7, "logarithmic lower threshold strictly inside (1/12, 1/11)",
           inside, f"critical order = {result.critical_s:.8f}")


@pytest.mark.parametrize("part", [2, 3, 4, 5, 6, 7])
def test_criterion_08_interval_verifications(part):
    spec_s = {
        2: (-10.0, -4.0), 3: (-3.0, -1.0), 4: (-0.5, 0.0),
        5: (1.0 / 11.0, 1.0), 6: (1.04, 2.0), 7: (2.0, 5.0),
    }[part]
    s_grid = [spec_s[0] + (spec_s[1] - spec_s[0]) * i / 49 for i in range(50)]
    t_grid = [1e-6 + (1.0 - 2e-6) * j / 1999 for j in range(2000)]
    result = verify_part(part, s_values=s_grid, t_values=t_grid)
    witnesses = ", ".join(
        f"{w.claim} breaks at s={w.probe_s:.5g} "
        f"(1-t={w.one_minus_t:.3g}, margin={w.margin:+.2e})"
        for w in result.sharpness
    )
    report(8, f"part {part}: zero violations on 50x2000 grid + sharpness",
           result.passed and not result.violations
           and all(w.found for w in result.sharpness),
           witnesses or f"{result.checks} checks")


def test_criterion_09_no_global_gini_bound():
    ok = True
    details = []
    for s in (5.5, 6.0, 10.0):
        limit = limit_ratio_at_t1(s, "S")
        a, b = 1.0, 2000.0  # ratio >= 10^3
        concrete = lambda_mean(s, a, b).value < gini(a, b)
        ok &= limit < 1.0 and concrete
        details.append(f"s={s:g}: limit={limit:.6f}")
    expected = 315.0 / 434.0
    ok &= abs(limit_ratio_at_t1(6.0, "S") - expected) <= 1e-12
    report(9, "no order dominates the Gini mean for unbalanced pairs",
           ok, "; ".join(details))


def test_criterion_10_quotient_mean_property():
    rng = random.Random(4242)
    failures = 0
    for _ in range(10_000):
        s = rng.uniform(-3.0, 4.0)
        n = rng.randint(2, 64)
        points = [10.0 ** rng.uniform(-1.0, 1.0) for _ in range(n)]
        weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
        sample = WeightedSample(points, weights)
        if sample.is_degenerate(1e-13):
            continue
        value = lambda_quotient(power_pair(s), sample)
        span = sample.max_point - sample.min_point
        if not (sample.min_point - 1e-9 * span
                <= value <= sample.max_point + 1e-9 * span):
            failures += 1

    # the non-conforming pair (t^4, t^2) must produce an escape witness
    quartic = ConvexPair(f=lambda t: t ** 4, g=lambda t: t * t,
                         f_second=lambda t: 12.0 * t * t,
                         g_second=lambda t: 2.0,
                         interval=(-math.inf, math.inf))
    witness = None
    for i in range(90):
        ratio = 1.1 + 0.1 * i
        value = lambda_quotient(quartic, WeightedSample((1.0, ratio)))
        if value > ratio or value < 1.0:
            witness = (ratio, value)
            break

    # cubic special case is a mean on all of R
    cubic = ConvexPair(f=lambda t: t ** 3 / 3.0, g=lambda t: t * t,
                       f_second=lambda t: 2.0 * t, g_second=lambda t: 2.0,
                       interval=(-math.inf, math.inf))
    cubic_ok = True
    for _ in range(2_000):
        n = rng.randint(2, 16)
        points = [rng.uniform(-40.0, 40.0) for _ in range(n)]
        sample = WeightedSample(points, [rng.uniform(0.05, 1.0) for _ in range(n)])
        if sample.is_degenerate(1e-13):
            continue
        value = lambda_quotient(cubic, sample)
        span = sample.max_point - sample.min_point
        cubic_ok &= (sample.min_point - 1e-9 * span
                     <= value <= sample.max_point + 1e-9 * span)

    report(10, "n-point quotient mean property + necessity witness",
           failures == 0 and witness is not None and cubic_ok,
           f"0 escapes in 10^4 samples; quartic witness at ratio "
           f"{witness[0]:.2f} -> {witness[1]:.2f}" if witness else "no witness")


def test_criterion_11_third_moment_bounds():
    start = time.time()
    two_point = cubic_moment_bounds(MomentReport.from_values([0.0, 1.0]))
    analytic_ok = (two_point.lower == pytest.approx(0.125, abs=1e-15)
                   and two_point.upper == pytest.approx(0.875, abs=1e-15)
                   and two_point.holds)
    rng = np.random.default_rng(0)
    draws = rng.uniform(0.0, 1.0, 100_000)
    empirical = cubic_moment_bounds(MomentReport.from_values(draws.tolist()))
    elapsed = time.time() - start
    report(11, "third-moment bounds: analytic two-point + seeded Monte Carlo",
           analytic_ok and empirical.holds and elapsed <= 5.0,
           f"bounds ({two_point.lower:g}, {two_point.upper:g}); "
           f"MC holds in {elapsed:.2f}s")


def test_criterion_12_small_t_asymptotics():
    ok = True
    details = []
    h = 1e-3
    for s in (0.5, 1.0, 2.0):
        quotient = (lambda_ratio(s, h) / ratio_to_a(Mean.LOGARITHMIC, h)) - 1.0
        coefficient = quotient / (h * h)  # t^2 coefficient, expect s/6
        deviation = abs(coefficient / (s / 6.0) - 1.0)
        ok &= deviation <= 0.01
        details.append(f"s={s:g}: {coefficient:.6f} vs {s / 6.0:.6f}")
    report(12, "family/logarithmic gap opens like (s/6) t^2", ok,
           "; ".join(details))
