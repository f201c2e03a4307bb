import functools
import inspect
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from mpmath import mp, mpf

import jensenmeans
from jensenmeans import inequalities
from jensenmeans import (
    BracketError,
    DomainError,
    Mean,
    PSI_SUP,
    UsageError,
    identric,
    identric_limit_defect,
    identric_limit_defect_root,
    identric_parts,
    lambda_mean,
    lambda_ratio,
    limit_ratio_at_t1,
    log_convexity_holds,
    log_defect,
    mean_value,
    ratio_to_a,
    series_table,
    solve_threshold,
    threshold_catalog,
    verify_part,
)
from jensenmeans.errors import SERIES_N_MAX
from jensenmeans.highprec import margin_mp
from jensenmeans.lambda_family import _ratio_columns, _ratio_row

# mpmath references at 50 digits
PHI_HALF = -0.0002586520705259335317958
PHI_09 = -0.04249392207306952090209
PHI_01 = -1.127162136770769834974e-8
PSI_HALF = 1.000218991803434701027
PSI_06 = 1.000511840823408460832
# the only real zero of the t -> 1 identric limit defect, to 40 digits
TAU_ROOT_40 = "1.037607281844356696805872626329372780110"
TAU_ROOT = float(TAU_ROOT_40)
# The two tangent lower orders, where F = lambda_s/M - 1 and dF/dx vanish
# together (x = log(1 - t)): mpmath Newton on the 2x2 system F = dF/dx = 0 at
# 60 digits, from the definitions, rounded to 40 digits.
L_LOWER_40 = "0.08748927344881567512938710524640894388571"  # at t* = 0.98960143608272858679
I_LOWER_40 = "1.037607295256628815795138010571272023535"  # at the pair (5.7462002747e-8, 2)
L_LOWER = float(L_LOWER_40)
I_LOWER = float(I_LOWER_40)
L_TOUCH_T = 0.98960143608272858679
I_TOUCH_V = 5.7462002747e-8  # the small argument of the pair (v, 2)


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


class TestSeriesTable:
    def test_low_order_values(self):
        table = series_table(4)
        assert table.c_closed[0] == 0 and table.c_closed[1] == 0
        assert table.c_convolution[0] == 0 and table.c_convolution[1] == 0
        assert table.c_closed[2] == Fraction(-1, 90)
        assert table.c_convolution[2] == Fraction(-1, 90)
        assert table.d[1] == 0
        assert table.d[2] == Fraction(-7, 60)

    def test_dual_route_exact_agreement(self):
        table = series_table(60)
        for n in range(61):
            assert table.c_convolution[n] == table.c_closed[n]

    def test_signs(self):
        table = series_table(300, dual_route_up_to=2)
        assert all(c <= 0 for c in table.c_closed)
        assert all(d < 0 for d in table.d[2:])

    def test_usage_guard(self):
        with pytest.raises(UsageError):
            series_table(1)

    @pytest.mark.parametrize("n_max, dual", [
        (SERIES_N_MAX + 1, None), (10**400, None),
        (10 * SERIES_N_MAX + 1, 2), (10**400, 2), (10**5000, 2),
    ], ids=["bound+1", "10**400", "closed bound+1", "closed 10**400", "closed 10**5000"])
    def test_orders_past_the_bound_are_refused_before_any_work(self, n_max, dual):
        # the O(n^2) work would never end at 10**400; the refusal is immediate
        with pytest.raises(UsageError):
            series_table(n_max, dual_route_up_to=dual)

    @pytest.mark.parametrize("dual", [math.nan, math.inf, "x", 2.5, -1, True],
                             ids=["nan", "inf", "str", "2.5", "-1", "True"])
    def test_cap_that_is_not_a_nonnegative_integer_is_refused(self, dual):
        with pytest.raises(UsageError, match="dual_route_up_to must be a nonnegative integer"):
            series_table(10, dual_route_up_to=dual)


class TestLogDefect:
    def test_nonpositive_on_dense_grid(self):
        for i in range(1, 999):
            assert log_defect(i / 999.0) <= 0.0

    def test_reference_values(self):
        assert rel(log_defect(0.5), PHI_HALF) <= 1e-12
        assert rel(log_defect(0.9), PHI_09) <= 1e-13
        assert rel(log_defect(0.1), PHI_01) <= 1e-10

    def test_leading_series_behavior(self):
        # defect ~ -t^6/90 as t -> 0
        for t in (1e-3, 1e-2):
            assert log_defect(t) == pytest.approx(-t ** 6 / 90.0, rel=1e-4)

    def test_series_matches_direct_in_overlap(self):
        table = series_table(60, dual_route_up_to=2)
        for t in (0.25, 0.3, 0.4, 0.6):
            direct = log_defect(t)
            powered = t * t
            total = 0.0
            for n in range(2, 53):
                total += float(table.c_closed[n]) * powered ** (n + 1)
            assert rel(direct, total) <= 1e-8

    def test_endpoints_rejected(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(DomainError):
                log_defect(bad)


class TestIdentricParts:
    def test_reference_values(self):
        assert rel(identric_parts(0.5).i_over_lambda1, PSI_HALF) <= 1e-13
        assert rel(identric_parts(0.6).i_over_lambda1, PSI_06) <= 1e-13

    def test_limits(self):
        assert identric_parts(1e-9).i_over_lambda1 == pytest.approx(1.0, abs=1e-6)
        assert identric_parts(1.0 - 1e-9).i_over_lambda1 == pytest.approx(
            PSI_SUP, abs=1e-6)
        assert PSI_SUP == pytest.approx(1.0200, abs=5e-5)

    def test_monotone_and_bounded(self):
        previous = None
        for i in range(1, 10_000):
            t = 0.01 + (0.999 - 0.01) * i / 9999.0
            value = identric_parts(t).i_over_lambda1
            assert 1.0 - 1e-12 <= value <= PSI_SUP + 1e-12
            if previous is not None:
                assert value > previous
            previous = value

    def test_matches_mean_quotient(self):
        for t in (0.05, 0.3, 0.8):
            a, b = 1.0 - t, 1.0 + t
            quotient = identric(a, b) / lambda_mean(1.0, a, b).value
            assert rel(identric_parts(t).i_over_lambda1, quotient) <= 1e-12

    def test_parts_consistent(self):
        parts = identric_parts(0.37)
        assert parts.i_over_lambda1 == pytest.approx(
            math.exp(parts.log_i_over_a) * parts.a_over_lambda1, rel=1e-15)
        assert ratio_to_a("I", 0.37) == pytest.approx(
            math.exp(parts.log_i_over_a), rel=1e-15)

    def test_derivative_identity(self):
        # d(psi)/dt = -exp(mu) * defect / t^3, checked by five-point stencil
        h = 1e-3
        for t in (0.05, 0.2, 0.5, 0.75, 0.95):
            vals = [identric_parts(t + k * h).i_over_lambda1 for k in (-2, -1, 1, 2)]
            fd = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
            parts = identric_parts(t)
            rhs = -math.exp(parts.log_i_over_a) * log_defect(t) / t ** 3
            assert rel(fd, rhs) <= 1e-6

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1):
            with pytest.raises(DomainError):
                identric_parts(bad)


class TestLimitDefect:
    def test_hand_value_at_two(self):
        assert identric_limit_defect(2.0) == pytest.approx(math.e / 2.0 - 1.0,
                                                           rel=1e-14)

    def test_poles_rejected(self):
        # -1 is the one pole; 1 is removable, (s - 1)/(2^s - 2) -> 1/(2 ln 2)
        with pytest.raises(DomainError):
            identric_limit_defect(-1.0)
        with mp.workdps(40):
            limit = mp.e / (4 * mp.log(2)) - 1
        assert abs(identric_limit_defect(1.0) - limit) <= 1e-15
        # the removable point continues its neighbours, which are unchanged
        for s in (1.0 - 1e-11, 1.0 + 1e-11, 1.0 - 1e-13, 1.0 + 1e-13):
            assert abs(identric_limit_defect(s) - limit) <= 1e-11

    def test_root_location(self):
        root = identric_limit_defect_root()
        assert root == TAU_ROOT
        assert 1.03 < root < 1.04
        assert identric_limit_defect(root) == pytest.approx(0.0, abs=1e-11)
        assert identric_limit_defect(1.02) < 0.0 < identric_limit_defect(1.05)

    def test_sign_change_at_the_stated_root(self):
        below = above = TAU_ROOT
        for _ in range(4):
            below, above = math.nextafter(below, 0.0), math.nextafter(above, 2.0)
        assert identric_limit_defect(below) < 0.0 < identric_limit_defect(above)

    def test_stated_root_is_the_60_digit_zero(self):
        with mp.workdps(60):
            def defect(s):
                return (mp.e * (s - 1) * (2 ** (s + 1) - 2)
                        / (2 * (s + 1) * (2 ** s - 2)) - 1)

            zero = mp.findroot(defect, mpf("1.0376"))
            # 40 significant digits: within half a unit of the 40th
            assert abs(zero - mpf(TAU_ROOT_40)) <= mpf("5e-40")

    def test_matches_family_near_t_one(self):
        # the defect is the t -> 1 limit of lambda_s/I - 1
        for s in (1.2, 2.0, 3.7):
            direct = margin_mp(s, "I", 1e-25)
            assert rel(direct, identric_limit_defect(s)) <= 1e-10

    @pytest.mark.parametrize("s, limit", [(1.7e308, math.e - 1.0),
                                          (-1.7e308, math.e / 2.0 - 1.0)])
    def test_limits_at_huge_orders(self, s, limit):
        # e (s - 1) overflowed to inf over the infinite 2 (s + 1): nan
        assert identric_limit_defect(s) == pytest.approx(limit, rel=1e-15)

    def test_root_is_not_the_identric_lower_order(self):
        # at the root the claim I <= lambda_s still fails next to t = 1; the
        # sharp order is the tangency 1.34e-8 above it
        root = identric_limit_defect_root()
        witness = inequalities._worst_margin(root, Mean.IDENTRIC, "lower")
        assert witness.margin == pytest.approx(-6.876e-9, rel=1e-3)
        assert witness.one_minus_t == pytest.approx(5.75e-8, rel=1e-2)
        assert witness.one_minus_t == 1.0 - witness.t  # a coordinate doubles hold
        assert rel(witness.margin, margin_mp(root, "I", witness.one_minus_t)) <= 1e-6
        assert I_LOWER - root == pytest.approx(1.34e-8, rel=1e-2)


class TestLimitRatios:
    def test_gini_values(self):
        assert limit_ratio_at_t1(6.0, "S") == pytest.approx(315.0 / 434.0, rel=1e-14)
        assert limit_ratio_at_t1(5.0, "S") == pytest.approx(62.0 / 90.0, rel=1e-14)

    def test_arithmetic_identity_order(self):
        assert limit_ratio_at_t1(2.0, "A") == pytest.approx(1.0, rel=1e-14)

    def test_identric_consistency_with_defect(self):
        for s in (1.5, 4.0):
            assert rel(limit_ratio_at_t1(s, "I") - 1.0,
                       identric_limit_defect(s)) <= 1e-12

    def test_vanishing_profiles_diverge(self):
        for kind in ("H", "G", "L"):
            assert limit_ratio_at_t1(3.0, kind) == math.inf

    def test_accurate_just_above_order_one(self):
        # 2^s - 2 is taken as 2 (2^(s-1) - 1) there, not as (2^s - 1) - 1,
        # which cancels to nothing as s -> 1
        assert limit_ratio_at_t1(1.0 + 2.0 ** -52, "A") == pytest.approx(
            1.0 / (2.0 * math.log(2.0)), rel=1e-15)
        orders = [1.0 + 2.0 ** -52, 1.0 + 1e-12, 1.0 + 1e-10, TAU_ROOT, 1.25, 1.5]
        orders += [1.0 + 10.0 ** (-15 + 14.7 * k / 40) for k in range(41)]
        with mp.workdps(50):
            for s in orders:
                x = mpf(s)
                exact = (x - 1) / (x + 1) * (2 ** (x + 1) - 2) / (2 ** x - 2)
                assert rel(limit_ratio_at_t1(s, "A"), float(exact)) <= 1e-15, s

    def test_domain(self):
        with pytest.raises(DomainError):
            limit_ratio_at_t1(1.0, "S")
        with pytest.raises(DomainError):
            limit_ratio_at_t1(0.5, "S")


class TestSmallCoordinateAsymptotics:
    def test_family_minus_logarithmic_coefficient(self):
        # lambda_s/L - 1 opens like (s/6) t^2
        h = 1e-3
        for s in (0.5, 1.0, 2.0):
            gap = lambda_ratio(s, h) / ratio_to_a("L", h) - 1.0
            assert gap / (h * h) == pytest.approx(s / 6.0, rel=0.01)

    def test_family_minus_identric_coefficient(self):
        # (lambda_s - I)/A opens like ((s-1)/6) t^2
        h = 1e-3
        for s in (1.5, 2.0, 3.0):
            gap = lambda_ratio(s, h) - ratio_to_a("I", h)
            assert gap / (h * h) == pytest.approx((s - 1.0) / 6.0, rel=0.01)


class TestThresholds:
    STATED = {"H.upper": -4.0, "H.lower": -3.0, "G.upper": -1.0, "G.lower": -0.5,
              "L.upper": 0.0, "I.upper": 1.0, "A.upper": 2.0, "A.lower": 2.0,
              "S.upper": 5.0}

    def test_arithmetic_upper_is_two(self):
        result = solve_threshold("A", "upper", tol=1e-10)
        assert result.critical_s == 2.0
        assert result.bracket[0] == result.critical_s < result.bracket[1]
        assert result.bracket[1] - result.bracket[0] == pytest.approx(1e-10, rel=1e-6)

    def test_arithmetic_lower_is_two(self):
        result = solve_threshold("A", "lower", tol=1e-10)
        assert abs(result.critical_s - 2.0) <= 1e-8

    def test_logarithmic_lower_inside_bracket(self):
        result = solve_threshold("L", "lower")
        assert 1.0 / 12.0 < result.critical_s < 1.0 / 11.0
        assert 0.9 < result.witness_t < 1.0  # binds at an interior coordinate

    def test_identric_lower_matches_defect_root(self):
        result = solve_threshold("I", "lower", tol=1e-8)
        assert abs(result.critical_s - identric_limit_defect_root()) <= 1e-6

    def test_harmonic_lower_is_minus_three(self):
        result = solve_threshold("H", "lower", tol=1e-10)
        assert abs(result.critical_s + 3.0) <= 1e-7

    def test_integer_thresholds_at_grid_resolution(self):
        # the orders are exact; the t -> 0 crossings are quadratic in s - s*,
        # so the claim first breaks beyond the rounding bound 1e-6..1e-5 past them
        for target, side, expected in (("H", "upper", -4.0), ("G", "upper", -1.0),
                                       ("L", "upper", 0.0), ("I", "upper", 1.0),
                                       ("S", "upper", 5.0)):
            result = solve_threshold(target, side, tol=1e-8)
            assert result.critical_s == expected
            assert 5e-7 < result.bracket[1] - result.bracket[0] <= 1.1e-5

    def test_geometric_lower_needs_extended_probes(self):
        result = solve_threshold("G", "lower", tol=1e-6)
        assert abs(result.critical_s + 0.5) <= 1e-3
        assert result.witness_one_minus_t <= 1e-45  # far past double range

    def test_full_catalog(self):
        catalog = threshold_catalog()
        assert list(catalog) == ["H.upper", "H.lower", "G.upper", "G.lower", "L.upper",
                                 "L.lower", "I.upper", "I.lower", "A.upper", "A.lower",
                                 "S.upper"]
        stated = dict(self.STATED, **{"L.lower": L_LOWER, "I.lower": I_LOWER})
        for key, result in catalog.items():
            assert result.critical_s == stated[key], key
            assert result.iterations == 0, key
            mean, side = Mean(result.target), result.side
            lower = side == "lower"
            # the claim holds at the order within the rounding bound, and
            # breaks beyond it at the bracket's other end
            eps = inequalities._EPS
            held = inequalities._worst_margin(result.critical_s, mean, side).margin
            assert (held >= -eps if lower else held <= eps), key
            assert result.bracket[1 if lower else 0] == result.critical_s, key
            broken = inequalities._worst_margin(result.bracket[0 if lower else 1], mean, side)
            assert (broken.margin < -eps if lower else broken.margin > eps), key
            assert (broken.t, broken.one_minus_t) == (
                result.witness_t, result.witness_one_minus_t), key
        # the resolution achieved: linear and tangent crossings break at the
        # first offset, the geometric lower order only 1e-3 below it
        widths = {key: result.bracket[1] - result.bracket[0]
                  for key, result in catalog.items()}
        for key in ("H.lower", "L.lower", "I.lower", "A.upper", "A.lower"):
            assert widths[key] == pytest.approx(1e-10, rel=1e-6), key
        assert widths["G.lower"] == pytest.approx(1e-3)

    def test_tangent_orders_touch_zero(self):
        # the 40-digit references against the mpmath margin: zero at the
        # touching point, and negative there 1e-9 below the order; the
        # theorem table states exactly their doubles
        rows = {row.mean: row for row in inequalities._THEOREM}
        assert rows[Mean.LOGARITHMIC].lower == L_LOWER
        assert rows[Mean.IDENTRIC].lower == I_LOWER
        for order, kind, v in ((L_LOWER_40, "L", 1.0 - L_TOUCH_T),
                               (I_LOWER_40, "I", 2.0 * I_TOUCH_V / (2.0 + I_TOUCH_V))):
            assert abs(margin_mp(order, kind, v)) <= 1e-15
            assert margin_mp(float(order) - 1e-9, kind, v) < -1e-10
            for neighbour in (0.99 * v, 1.01 * v):
                assert margin_mp(order, kind, neighbour) > 0.0

    def test_violating_dip_narrower_than_the_grid_is_found(self):
        # just below the logarithmic lower order the violation is a dip about
        # 5e-4 wide around t* ~ 0.9896, inside one spacing of the probe grid
        witness = inequalities._worst_margin(0.0874850, Mean.LOGARITHMIC, "lower")
        assert witness.margin < 0.0
        assert abs(witness.t - 0.9896) <= 1e-3

    def test_rounding_ripples_are_not_refined(self, monkeypatch):
        # next to the identity order 2 the margin against A is flat to ~6e-12,
        # and its grid minima are rounding ripples: only the arg-min is refined
        refined = []

        def counting(fun, a, b, **kwargs):
            refined.append((a, b))
            return golden(fun, a, b, **kwargs)

        golden = inequalities._golden_min
        monkeypatch.setattr(inequalities, "_golden_min", counting)
        for side in ("lower", "upper"):
            refined.clear()
            witness = inequalities._worst_margin(1.9999999999708962, Mean.ARITHMETIC, side)
            assert len(refined) == 1, side
            assert abs(witness.margin) <= 1e-11

    def test_no_gini_lower_bracket(self):
        with pytest.raises(UsageError):
            solve_threshold("S", "lower")

    def test_wrong_stated_order_is_detected(self, monkeypatch):
        # lambda_3 <= A fails; lambda_s <= A at s = 1.5 holds, but also 1e-2 above
        for upper in (3.0, 1.5):
            theorem = tuple(row._replace(upper=upper) if row.mean is Mean.ARITHMETIC
                            else row for row in inequalities._THEOREM)
            monkeypatch.setattr(inequalities, "_THEOREM", theorem)
            with pytest.raises(BracketError):
                solve_threshold("A", "upper")

    def test_usage_guards(self):
        with pytest.raises(UsageError):
            solve_threshold("A", "sideways")
        with pytest.raises(UsageError):
            solve_threshold("A", "upper", tol=-1.0)


def _catalog_key(claim):
    """'H <= lambda' -> 'H.lower', 'lambda <= G' -> 'G.upper'."""
    left, right = claim.split(" <= ")
    return f"{left}.lower" if right == "lambda" else f"{right}.upper"


class TestOneSharpnessProbe:
    """The catalog and verify_part take each order's witness from one probe,
    past the order by the offset the theorem table states for it."""

    COARSE = {"H.upper": 1e-5, "G.upper": 1e-5, "G.lower": 1e-3, "L.upper": 1e-5,
              "I.upper": 1e-6, "S.upper": 1e-5}

    def test_stated_offsets(self):
        offsets = {f"{mean.value}.{side}": getattr(inequalities._row(mean), f"{side}_break")
                   for mean, side in inequalities.CATALOG_ORDER}
        assert offsets == {key: self.COARSE.get(key, 1e-10) for key in offsets}

    def test_part_witnesses_are_the_catalog_entries(self):
        catalog = threshold_catalog()
        seen = []
        for part in range(2, 8):
            report = verify_part(part)
            assert report.passed, part
            for witness in report.sharpness:
                key = _catalog_key(witness.claim)
                entry, lower = catalog[key], key.endswith("lower")
                assert witness.found, key
                assert witness.endpoint_s == entry.critical_s, key
                assert witness.probe_s == entry.bracket[0 if lower else 1], key
                assert (witness.t, witness.one_minus_t) == (
                    entry.witness_t, entry.witness_one_minus_t), key
                seen.append(key)
        assert sorted(seen) == sorted(catalog)

    @pytest.mark.parametrize("key", sorted(COARSE))
    def test_a_tenth_of_a_coarse_offset_does_not_break(self, key):
        # the table states the sharpest offset the probes can show: a tenth of
        # it leaves the margin inside the rounding bound
        name, side = key.split(".")
        row = inequalities._row(Mean(name))
        order = solve_threshold(name, side).critical_s
        stated = inequalities._sharpness_witness(row, side, order, 0.0)
        closer = inequalities._sharpness_witness(
            row._replace(**{f"{side}_break": self.COARSE[key] / 10.0}), side, order, 0.0)
        assert stated.found and not closer.found
        assert abs(closer.probe_s - order) == pytest.approx(self.COARSE[key] / 10.0, rel=1e-9)

    @pytest.mark.parametrize("tol", [1e-8, 1e-3, 1.0])
    def test_tolerance_moves_the_probe_out_to_the_cap(self, tol):
        for key, result in threshold_catalog(tol=tol).items():
            lower = result.side == "lower"
            offset = min(max(tol, self.COARSE.get(key, 1e-10)), 1e-2)
            probe = result.critical_s - offset if lower else result.critical_s + offset
            assert result.bracket == ((probe, result.critical_s) if lower
                                      else (result.critical_s, probe)), key

    def test_verify_part_has_no_sharpness_knobs(self):
        # the rounding bound is the module's, not the caller's
        assert list(inspect.signature(verify_part).parameters) == [
            "part", "s_values", "t_values"]
        assert list(inspect.signature(log_convexity_holds).parameters) == [
            "a", "b", "c", "sample"]


class TestProbesPastDoubleRange:
    """The probes at 1 - t below double resolution, and a sample of the probe
    grid, against the mpmath margin: off by a quarter of the rounding bound
    at most, so that no verdict turns on a probe's rounding."""

    ORDERS = sorted(
        [0.5 * k for k in range(-12, 13)]  # -6..6, with -4, -3, -1, -1/2, 0, 1, 2, 5
        + [-5.3 + 0.7 * k for k in range(16)]
        + [L_LOWER, TAU_ROOT]
        + [pole + step for pole in (-1.0, 0.0, 1.0) for step in (-1e-9, 1e-9)]
    )
    BOUND = inequalities._EPS / 4.0

    @pytest.mark.parametrize("kind", ["H", "G", "L", "I", "A", "S"])
    def test_double_probe_matches_the_oracle(self, kind):
        for s in self.ORDERS:
            for v in inequalities._EXTENDED_V:
                # the probe _worst_margin evaluates at the pair (1 - t, 2)
                probe = lambda_mean(s, v, 2.0).value / mean_value(kind, v, 2.0) - 1.0
                reference = margin_mp(s, kind, v)
                assert abs(probe - reference) <= self.BOUND * max(1.0, abs(reference)), (s, v)

    @pytest.mark.parametrize("kind", ["H", "G", "L", "I", "A", "S"])
    def test_grid_probe_matches_the_oracle(self, kind):
        table = inequalities._probe_table()
        for s in self.ORDERS[::3]:
            # the coarse margins _worst_margin scans, at every 12th coordinate
            margins = [family / mean - 1.0 for family, mean
                       in zip(_ratio_row(s, table.columns), table.profile(kind))]
            for t, probe in list(zip(table.t, margins))[::12]:
                with mp.workdps(60):
                    v = 1 - mpf(t)  # exact
                reference = margin_mp(s, kind, v)
                assert abs(probe - reference) <= self.BOUND * max(1.0, abs(reference)), (s, t)


class TestVerifyParts:
    def test_part_1_monotone(self):
        report = verify_part(1)
        assert report.passed and not report.violations

    @pytest.mark.parametrize("part", [2, 3, 4, 5, 6, 7])
    def test_interval_parts_on_coarse_grids(self, part):
        s_grid = None
        t_grid = [i / 200.0 for i in range(1, 200)]
        report = verify_part(part, t_values=t_grid)
        assert report.passed, report.violations[:3]
        assert report.checks > 0

    def test_part_5_spec_interval(self):
        report = verify_part(5, s_values=[0.1 + 0.9 * i / 9 for i in range(10)],
                             t_values=[i / 100.0 for i in range(1, 100)])
        assert report.passed

    def test_part_2_deep_orders(self):
        report = verify_part(2, s_values=[-4.0, -5.0, -20.0, -60.0],
                             t_values=[i / 100.0 for i in range(1, 100)])
        assert report.passed

    def test_part_8(self):
        report = verify_part(8)
        assert report.passed
        assert all(w.found for w in report.sharpness)
        with pytest.raises(UsageError):
            verify_part(8, s_values=[4.0])

    def test_part_4_lower_witness_needs_extended_probes(self):
        # at offset 1e-3 below the geometric lower endpoint the first failing
        # coordinate is near 1 - t ~ 1e-100, far past the probe grid's 2^-40
        t_grid = [i / 50.0 for i in range(1, 50)]
        report = verify_part(4, s_values=[-0.5, -0.25, 0.0], t_values=t_grid)
        lower = [w for w in report.sharpness if w.claim == "G <= lambda"]
        assert lower and lower[0].found
        assert lower[0].one_minus_t <= 1e-45

    def test_gap_notes_present(self):
        # parts 5 and 6 end at the tangent orders s* and s_I
        for part in (3, 4, 5, 6):
            report = verify_part(part, t_values=[i / 50.0 for i in range(1, 50)])
            assert report.notes and "unclassified gap" in report.notes[0], part

    def test_part_domain(self):
        with pytest.raises(UsageError):
            verify_part(0)
        with pytest.raises(UsageError):
            verify_part(9)

    @pytest.mark.parametrize("part", [1.0, 3.0, 8.0, True, "3"])
    def test_part_must_be_an_int(self, part):
        with pytest.raises(UsageError, match="part must be an integer"):
            verify_part(part)

    def test_violation_reported_for_false_claim(self):
        # order 3 exceeds the arithmetic mean, so part 6's upper claim breaks
        report = verify_part(6, s_values=[3.0],
                             t_values=[0.1, 0.5])
        assert not report.passed
        assert any(v.claim == "lambda <= A" for v in report.violations)


class TestEndOrders:
    """By default parts 2-7 check each claim once, at the end order that binds it."""

    END_ORDERS = {
        2: [("lambda <= H", -4.0)],
        3: [("H <= lambda", -3.0), ("lambda <= G", -1.0)],
        4: [("G <= lambda", -0.5), ("lambda <= L", 0.0)],
        5: [("L <= lambda", "L"), ("lambda <= I", 1.0)],
        6: [("I <= lambda", "I"), ("lambda <= A", 2.0)],
        7: [("A <= lambda", 2.0), ("lambda <= S", 5.0)],
    }
    T_GRID = [i / 100.0 for i in range(1, 100)]

    @pytest.mark.parametrize("part", range(2, 8))
    def test_each_claim_is_checked_at_its_end_order(self, part):
        report = verify_part(part, t_values=self.T_GRID)
        assert report.passed and not report.violations
        # parts 5 and 6 check their lower claims at exactly s* and s_I
        expected = [(claim, solve_threshold(s, "lower").critical_s if isinstance(s, str) else s)
                    for claim, s in self.END_ORDERS[part]]
        assert [(entry.claim, entry.s) for entry in report.tightest] == expected
        # one grid row and one refined worst margin per claim
        assert report.checks == len(expected) * (len(self.T_GRID) + 1)
        for claim, s in expected:
            covers = ">=" if claim.endswith("lambda") else "<="
            assert any(note.startswith(f"{claim} checked at s = {s}; with part 1's "
                                       f"monotonicity this covers every s {covers} {s}")
                       for note in report.notes), claim
        # every claim is tight at its end order, to within rounding
        assert all(abs(entry.margin) <= 1e-12 for entry in report.tightest)

    def test_slack_that_carries_a_claim_is_named(self):
        # H <= lambda_{-3} binds as t -> 1, where its worst margin is -6.8e-14
        report = verify_part(3, t_values=self.T_GRID)
        [harmonic] = [entry for entry in report.tightest if entry.claim == "H <= lambda"]
        assert -inequalities._EPS < harmonic.margin < 0.0 and harmonic.one_minus_t < 1e-16
        [note] = [note for note in report.notes if note.startswith("H <= lambda")]
        assert "inside the rounding bound 1e-12, which carries the claim" in note

    def test_refined_probe_reports_a_dip_the_grid_misses(self, monkeypatch):
        # just below the logarithmic lower order the violation is a dip about
        # 5e-4 wide around t* ~ 0.9896: the 2,000-point grid steps over it
        order = L_LOWER - 1e-7
        assert verify_part(5, s_values=[order]).violations == ()
        theorem = tuple(row._replace(lower=order) if row.mean is Mean.LOGARITHMIC else row
                        for row in inequalities._THEOREM)
        monkeypatch.setattr(inequalities, "_THEOREM", theorem)
        report = verify_part(5)
        assert not report.passed
        [violation] = report.violations
        assert violation.claim == "L <= lambda" and violation.s == order
        assert abs(violation.t - 0.9896) <= 1e-3 and violation.lhs > violation.rhs
        assert report.tightest[0].margin == pytest.approx(-1.1e-7, rel=0.05)

    def test_the_limit_defect_root_fails_part_6(self, monkeypatch):
        # with the identric lower order set to the limit-defect root, the
        # probes break I <= lambda next to t = 1, past the coordinate grid
        root = identric_limit_defect_root()
        theorem = tuple(row._replace(lower=root) if row.mean is Mean.IDENTRIC else row
                        for row in inequalities._THEOREM)
        monkeypatch.setattr(inequalities, "_THEOREM", theorem)
        report = verify_part(6)
        assert not report.passed
        [violation] = report.violations
        assert violation.claim == "I <= lambda" and violation.s == root
        assert 1.0 - violation.t == pytest.approx(5.75e-8, rel=1e-2)
        assert violation.rhs / violation.lhs - 1.0 == pytest.approx(-6.876e-9, rel=1e-3)
        assert report.tightest[0].margin == pytest.approx(-6.876e-9, rel=1e-3)

    def test_grid_violation_at_an_end_order(self, monkeypatch):
        # with the arithmetic row's upper order moved to 3, part 6 checks a
        # false claim there, and both the grid and the probes break it
        theorem = tuple(row._replace(upper=3.0) if row.mean is Mean.ARITHMETIC else row
                        for row in inequalities._THEOREM)
        monkeypatch.setattr(inequalities, "_THEOREM", theorem)
        report = verify_part(6, t_values=[0.1, 0.5])
        assert [(v.claim, v.s, v.t) for v in report.violations] == [
            ("lambda <= A", 3.0, 0.1), ("lambda <= A", 3.0, 0.5),
            ("lambda <= A", 3.0, report.tightest[1].t)]
        assert all(v.lhs > v.rhs for v in report.violations)

    def test_explicit_orders_scan_every_claim(self):
        report = verify_part(5, s_values=[0.5, 0.9], t_values=[0.5])
        assert report.checks == 2 * 1 * 2
        # no end-order note: the one note is the (0, s*) gap's
        assert report.tightest == () and len(report.notes) == 1
        assert report.notes[0].startswith("unclassified gap (0.0, ")
        assert "tightest" not in repr(report)

    def test_probe_verdict_is_the_witness_margin(self):
        # an end order's probe violation is scanned from the two profile
        # values at its witness, which give back the witness's margin bit for
        # bit: at the order, where the claim holds, and past it, where not
        for mean, side in inequalities.CATALOG_ORDER:
            row = inequalities._row(mean)
            order = row.lower if side == "lower" else row.upper
            probe_s = inequalities._sharpness_witness(row, side, order, 0.0).probe_s
            for s, broken in ((order, False), (probe_s, True)):
                witness = inequalities._worst_margin(s, mean, side)
                target, family = inequalities._sides_at(mean, witness)
                assert family / target - 1.0 == witness.margin, (mean, side, s)
                assert inequalities._breaks(witness.margin, side) is broken
                scanned = inequalities._scan([(witness.claim, side, s, (family,), (target,))],
                                             (witness.t,))
                assert len(scanned) == broken


class TestComparisonTable:
    def test_catalog_order(self):
        from jensenmeans.inequalities import CATALOG_ORDER

        keys = [f"{mean.value}.{side}" for mean, side in CATALOG_ORDER]
        assert keys == ["H.upper", "H.lower", "G.upper", "G.lower", "L.upper", "L.lower",
                        "I.upper", "I.lower", "A.upper", "A.lower", "S.upper"]

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_non_finite_tolerance_rejected(self, tol):
        with pytest.raises(UsageError):
            solve_threshold("A", "upper", tol=tol)

    @pytest.mark.parametrize("part,gap", [(3, "(-4.0, -3.0)"), (4, "(-1.0, -0.5)")])
    def test_gap_notes_from_rows_with_two_exact_orders(self, part, gap):
        report = verify_part(part, s_values=[], t_values=[0.5])
        assert len(report.notes) == 1 and gap in report.notes[0]

    @pytest.mark.parametrize("part", [5, 6])
    def test_gap_notes_below_tangent_orders(self, part):
        # between the upper order and the tangent lower order the comparison
        # fails both ways: lambda_s rises above the mean somewhere and falls
        # below it somewhere else
        row = inequalities._THEOREM[part - 3]
        lower = solve_threshold(row.mean, "lower").critical_s
        report = verify_part(part, s_values=[], t_values=[0.5])
        [note] = report.notes
        assert note.startswith(f"unclassified gap ({row.upper}, {lower}): ")
        mid = 0.5 * (row.upper + lower)
        assert inequalities._worst_margin(mid, row.mean, "upper").margin > 1e-4
        assert inequalities._worst_margin(mid, row.mean, "lower").margin < -1e-3

    @pytest.mark.parametrize("part", [2, 7])
    def test_no_gap_note_elsewhere(self, part):
        report = verify_part(part, s_values=[], t_values=[0.5])
        assert report.notes == ()

    def test_lower_claim_violation_reports_mean_first(self):
        # order 0.5 lies below the identric lower order ~1.0376
        report = verify_part(6, s_values=[0.5], t_values=[0.9])
        assert report.checks == 2
        [violation] = report.violations
        assert violation.claim == "I <= lambda"
        assert violation.lhs == ratio_to_a("I", 0.9)
        assert violation.rhs == lambda_ratio(0.5, 0.9)
        assert violation.lhs > violation.rhs

    def test_violations_reported_t_major(self, monkeypatch):
        # a bound of -1 breaks every claim within a factor 2 of its mean, so
        # both claims report at each t
        monkeypatch.setattr(inequalities, "_EPS", -1.0)
        report = verify_part(3, s_values=[-2.0], t_values=[0.3, 0.6])
        assert [(v.t, v.claim) for v in report.violations] == [
            (0.3, "H <= lambda"), (0.3, "lambda <= G"),
            (0.6, "H <= lambda"), (0.6, "lambda <= G")]
        assert report.checks == 4


def _scalar_row(s, columns):
    return [lambda_ratio(s, t) for t in columns.t]


def _scalar_profile_row(kind, t_values):
    return [ratio_to_a(kind, t) for t in t_values]


class TestRowKernelScanners:
    """The scanners give the reports of the scalar scan they replaced."""

    # orders inside each part's interval and on both sides of it, so that
    # both claims are violated at some coordinates
    ORDERS = {
        1: [3.0, -2.0, 0.0, 0.5, 2.0, 1.0, -1.0, -1e-17],
        2: [-12.0, -4.0, -3.9, -2.0],
        3: [-4.5, -3.0, -2.0, -1.0, -0.5],
        4: [-1.5, -0.5, -0.25, -1e-17, 0.3],
        5: [-0.2, 0.09, 0.5, 1.0, 1.5],
        6: [0.7, 1.04, 1.5, 2.0, 2.6],
        7: [1.2, 2.0, 3.5, 5.0, 7.0],
    }
    T_GRID = [0.0, 1e-9, 5e-4, 0.001, 0.02, 0.3, 0.5, 0.77, 0.95, 0.999999,
              1.0 - 2.0 ** -40]

    def scan_both_ways(self, monkeypatch, scan):
        fast = scan()
        monkeypatch.setattr(inequalities, "_ratio_row", _scalar_row)
        return fast, scan()

    @pytest.mark.parametrize("part", range(1, 8))
    def test_reports_equal_the_scalar_scan(self, monkeypatch, part):
        # part 1's monotonicity holds, so a negative bound makes every small
        # step a recorded violation
        if part == 1:
            monkeypatch.setattr(inequalities, "_EPS", -1e-3)
        fast, scalar = self.scan_both_ways(monkeypatch, lambda: verify_part(
            part, self.ORDERS[part], self.T_GRID))
        assert fast.violations  # the grids exercise the violation order
        assert repr(fast) == repr(scalar)

    def test_part_1_violations_follow_a_nested_loop(self, monkeypatch):
        # t-major: at each coordinate, each order against the next smaller
        # one, in increasing order; the bound -1e-3 breaks every small step
        monkeypatch.setattr(inequalities, "_EPS", -1e-3)
        orders = sorted(self.ORDERS[1])
        expected = []
        for t in self.T_GRID:
            for previous, s in zip(orders, orders[1:]):
                lower, upper = lambda_ratio(previous, t), lambda_ratio(s, t)
                if upper / lower - 1.0 < 1e-3:
                    expected.append(inequalities.InequalityViolation(
                        "lambda non-decreasing in order", s, t, lower, upper))
        assert len({violation.t for violation in expected}) == len(self.T_GRID)
        assert len(expected) > 2 * len(self.T_GRID)
        report = verify_part(1, self.ORDERS[1], self.T_GRID)
        assert report.violations == tuple(expected)
        assert report.checks == (len(orders) - 1) * len(self.T_GRID)

    def test_default_pass_equals_the_scalar_pass(self, monkeypatch):
        # the catalog and the default parts, against the same pass with the
        # row kernel and the profile row replaced by the scalar profiles, the
        # cached default grids by explicit ones, and the probe table built
        # afresh under those replacements
        catalog = repr(threshold_catalog())
        parts = [repr(verify_part(part)) for part in range(1, 8)]
        # a passing report holds no grid value, so the cached default grids
        # are also compared with explicit ones directly
        for n in (200, 2000):
            table, grid = inequalities._default_table(n), inequalities._default_t_grid(n)
            assert table.t == tuple(grid) and table.columns == _ratio_columns(grid)
            for mean in Mean:
                assert table.profile(mean) == tuple(_scalar_profile_row(mean, grid))
        monkeypatch.setattr(inequalities, "_ratio_row", _scalar_row)
        monkeypatch.setattr(inequalities, "_profile_row", _scalar_profile_row)
        fresh_probe_table = functools.lru_cache(maxsize=1)(inequalities._probe_table.__wrapped__)
        monkeypatch.setattr(inequalities, "_probe_table", fresh_probe_table)
        assert repr(threshold_catalog()) == catalog
        default_grid = inequalities._default_t_grid
        assert [repr(verify_part(part, t_values=default_grid(200 if part == 1 else 2000)))
                for part in range(1, 8)] == parts

    def test_threshold_equals_the_scalar_search(self, monkeypatch):
        fast, scalar = self.scan_both_ways(monkeypatch, lambda: solve_threshold(
            "I", "upper", tol=1e-4))
        assert repr(fast) == repr(scalar)

    @pytest.mark.parametrize("part, s_values, t_values, message", [
        (2, None, [0.5, 1.0], "symmetric coordinate must lie in [0, 1), got 1.0"),
        (3, [-2.0, math.nan], [0.5],
         "order parameter must be a finite real of magnitude <= 1e+150, got nan"),
        (1, [0.0, math.nan], [0.5, 1.0],
         "order parameter must be a finite real of magnitude <= 1e+150, got nan"),
        (1, [0.0, math.nan], [1.0, 0.5], "symmetric coordinate must lie in [0, 1), got 1.0"),
        (1, [0.0, 1.0], [0.5, 1.0], "symmetric coordinate must lie in [0, 1), got 1.0"),
    ])
    def test_errors_are_the_scalar_scan_errors(self, part, s_values, t_values, message):
        with pytest.raises(DomainError) as error:
            verify_part(part, s_values, t_values)
        assert str(error.value) == message

    def test_empty_coordinate_grid_checks_no_order(self):
        for part in (1, 4):
            assert verify_part(part, [math.nan], []).checks == 0

    def test_certify_path_loads_neither_numpy_nor_mpmath(self):
        # verify_part(3) and solve_threshold probe down to 1 - t = 1e-300
        code = ("import sys\n"
                "from jensenmeans import solve_threshold, verify_part\n"
                "verify_part(1, [0.0, 1.0], [0.5])\n"
                "verify_part(3, [-2.0], [0.25, 0.5])\n"
                "solve_threshold('A', 'upper', tol=0.1)\n"
                "print('numpy' in sys.modules, 'mpmath' in sys.modules)\n"
                "import jensenmeans\n"
                "jensenmeans.highprec.margin_mp  # the oracle still loads on access\n"
                "print('mpmath' in sys.modules)\n")
        src = os.path.dirname(os.path.dirname(jensenmeans.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stdout.split() == ["False", "False", "True"]
