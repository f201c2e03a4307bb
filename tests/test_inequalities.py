import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import jensenmeans
from jensenmeans import inequalities
from jensenmeans import (
    BracketError,
    DomainError,
    Mean,
    PSI_SUP,
    UsageError,
    default_bracket,
    identric,
    identric_limit_defect,
    identric_limit_defect_root,
    identric_parts,
    lambda_mean,
    lambda_ratio,
    limit_ratio_at_t1,
    log_defect,
    mean_value,
    ratio_to_a,
    series_table,
    solve_threshold,
    verify_part,
)
from jensenmeans.highprec import margin_mp

# mpmath references at 50 digits
PHI_HALF = -0.0002586520705259335317958
PHI_09 = -0.04249392207306952090209
PHI_01 = -1.127162136770769834974e-8
PSI_HALF = 1.000218991803434701027
PSI_06 = 1.000511840823408460832
TAU_ROOT = 1.037607281844356696806
# the logarithmic lower order: lambda_s/L - 1 and its t-derivative vanish
# together at t* ~ 0.98960 (40-digit Newton on the 2x2 tangency system)
L_LOWER = 0.0874892734488157


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
        for bad in (1.0, -1.0):
            with pytest.raises(DomainError):
                identric_limit_defect(bad)

    def test_root_location(self):
        root = identric_limit_defect_root()
        assert abs(root - TAU_ROOT) <= 1e-11
        assert 1.03 < root < 1.04
        assert identric_limit_defect(root) == pytest.approx(0.0, abs=1e-11)
        assert identric_limit_defect(1.02) < 0.0 < identric_limit_defect(1.05)

    def test_bad_bracket(self):
        with pytest.raises(BracketError):
            identric_limit_defect_root(2.0, 3.0)

    def test_matches_family_near_t_one(self):
        # the defect is the t -> 1 limit of lambda_s/I - 1
        for s in (1.2, 2.0, 3.7):
            direct = margin_mp(s, "I", 1e-25)
            assert rel(direct, identric_limit_defect(s)) <= 1e-10


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
    def test_arithmetic_upper_is_two(self):
        result = solve_threshold("A", "upper", tol=1e-10)
        assert abs(result.critical_s - 2.0) <= 1e-8
        assert result.bracket[0] <= result.critical_s <= result.bracket[1]
        assert result.bracket[1] - result.bracket[0] <= 1e-10

    def test_bisection_stops_at_adjacent_floats(self):
        # a tolerance below one ulp ends the loop once the bracket cannot shrink
        result = solve_threshold("A", "upper", tol=1e-300)
        assert result.iterations <= 60
        lo, hi = result.bracket
        assert math.nextafter(lo, math.inf) == hi

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
        # quadratic crossings at t -> 0 resolve to ~1e-5..1e-6
        for target, side, expected in (("H", "upper", -4.0), ("G", "upper", -1.0),
                                       ("L", "upper", 0.0), ("I", "upper", 1.0),
                                       ("S", "upper", 5.0)):
            result = solve_threshold(target, side, tol=1e-8)
            assert abs(result.critical_s - expected) <= 1e-4

    def test_geometric_lower_needs_extended_probes(self):
        result = solve_threshold("G", "lower", tol=1e-6)
        assert abs(result.critical_s + 0.5) <= 1e-3
        assert result.witness_one_minus_t <= 1e-45  # far past double range

    def test_full_catalog(self):
        from jensenmeans import threshold_catalog

        catalog = threshold_catalog()
        expected = {
            "H.upper": (-4.0, 1e-4), "H.lower": (-3.0, 1e-5),
            "G.upper": (-1.0, 1e-4), "G.lower": (-0.5, 1e-3),
            "L.upper": (0.0, 1e-4), "L.lower": (L_LOWER, 1e-9),
            "I.upper": (1.0, 1e-4), "I.lower": (1.03761, 5e-5),
            "A.upper": (2.0, 1e-5), "A.lower": (2.0, 1e-5),
            "S.upper": (5.0, 1e-4),
        }
        assert set(catalog) == set(expected)
        for key, (value, tolerance) in expected.items():
            assert abs(catalog[key].critical_s - value) <= tolerance, key

    def test_violating_dip_narrower_than_the_grid_is_found(self):
        # just below the logarithmic lower order the violation is a dip about
        # 5e-4 wide around t* ~ 0.9896, inside one spacing of the probe grid
        witness = inequalities._worst_margin(0.0874850, Mean.LOGARITHMIC, "lower")
        assert witness.margin < 0.0
        assert abs(witness.t - 0.9896) <= 1e-3

    def test_no_gini_lower_bracket(self):
        with pytest.raises(UsageError):
            default_bracket("S", "lower")

    def test_bad_bracket_detected(self):
        with pytest.raises(BracketError):
            solve_threshold("A", "upper", bracket=(3.0, 4.0))

    def test_usage_guards(self):
        with pytest.raises(UsageError):
            solve_threshold("A", "sideways")
        with pytest.raises(UsageError):
            solve_threshold("A", "upper", tol=-1.0)


class TestProbesPastDoubleRange:
    """The probes at 1 - t below double resolution against the mpmath margin."""

    ORDERS = sorted(
        [0.5 * k for k in range(-12, 13)]  # -6..6, with -4, -3, -1, -1/2, 0, 1, 2, 5
        + [-5.3 + 0.7 * k for k in range(16)]
        + [L_LOWER, TAU_ROOT]
        + [pole + step for pole in (-1.0, 0.0, 1.0) for step in (-1e-9, 1e-9)]
    )

    @pytest.mark.parametrize("kind", ["H", "G", "L", "I", "A", "S"])
    def test_double_probe_matches_the_oracle(self, kind):
        for s in self.ORDERS:
            for v in inequalities._EXTENDED_V:
                # the probe _worst_margin evaluates at the pair (1 - t, 2)
                probe = lambda_mean(s, v, 2.0).value / mean_value(kind, v, 2.0) - 1.0
                reference = margin_mp(s, kind, v)
                assert abs(probe - reference) <= 1e-12 * max(1.0, abs(reference)), (s, v)


class TestVerifyParts:
    def test_part_1_monotone(self):
        report = verify_part(1)
        assert report.passed and not report.violations

    @pytest.mark.parametrize("part", [2, 3, 4, 5, 6, 7])
    def test_interval_parts_on_coarse_grids(self, part):
        s_grid = None
        t_grid = [i / 200.0 for i in range(1, 200)]
        report = verify_part(part, t_values=t_grid, sharpness=False)
        assert report.passed, report.violations[:3]
        assert report.checks > 0

    def test_part_5_spec_interval(self):
        report = verify_part(5, s_values=[0.1 + 0.9 * i / 9 for i in range(10)],
                             t_values=[i / 100.0 for i in range(1, 100)],
                             sharpness=False)
        assert report.passed

    def test_part_2_deep_orders(self):
        report = verify_part(2, s_values=[-4.0, -5.0, -20.0, -60.0],
                             t_values=[i / 100.0 for i in range(1, 100)],
                             sharpness=False)
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
        report = verify_part(3, t_values=[i / 50.0 for i in range(1, 50)],
                             sharpness=False)
        assert report.notes and "unclassified gap" in report.notes[0]

    def test_part_domain(self):
        with pytest.raises(UsageError):
            verify_part(0)
        with pytest.raises(UsageError):
            verify_part(9)

    def test_violation_reported_for_false_claim(self):
        # order 3 exceeds the arithmetic mean, so part 6's upper claim breaks
        report = verify_part(6, s_values=[3.0],
                             t_values=[0.1, 0.5], sharpness=False)
        assert not report.passed
        assert any(v.claim == "lambda <= A" for v in report.violations)


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
        report = verify_part(part, s_values=[], t_values=[0.5], sharpness=False)
        assert len(report.notes) == 1 and gap in report.notes[0]

    @pytest.mark.parametrize("part", [2, 5, 6, 7])
    def test_no_gap_note_elsewhere(self, part):
        report = verify_part(part, s_values=[], t_values=[0.5], sharpness=False)
        assert report.notes == ()

    def test_lower_claim_violation_reports_mean_first(self):
        # order 0.5 lies below the identric lower order ~1.0376
        report = verify_part(6, s_values=[0.5], t_values=[0.9], sharpness=False)
        assert report.checks == 2
        [violation] = report.violations
        assert violation.claim == "I <= lambda"
        assert violation.lhs == ratio_to_a("I", 0.9)
        assert violation.rhs == lambda_ratio(0.5, 0.9)
        assert violation.lhs > violation.rhs

    def test_violations_reported_t_major(self):
        # a negative slack flags every check, so both claims report at each t
        report = verify_part(3, s_values=[-2.0], t_values=[0.3, 0.6], rel_slack=-1.0,
                             sharpness=False)
        assert [(v.t, v.claim) for v in report.violations] == [
            (0.3, "H <= lambda"), (0.3, "lambda <= G"),
            (0.6, "H <= lambda"), (0.6, "lambda <= G")]
        assert report.checks == 4


def _scalar_row(s, columns):
    return [lambda_ratio(s, t) for t in columns.t]


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
        # part 1's monotonicity holds, so a negative slack makes every small
        # step a recorded violation
        slack = -1e-3 if part == 1 else 1e-12
        fast, scalar = self.scan_both_ways(monkeypatch, lambda: verify_part(
            part, self.ORDERS[part], self.T_GRID, rel_slack=slack))
        assert fast.violations  # the grids exercise the violation order
        assert repr(fast) == repr(scalar)

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
            verify_part(part, s_values, t_values, sharpness=False)
        assert str(error.value) == message

    def test_empty_coordinate_grid_checks_no_order(self):
        for part in (1, 4):
            assert verify_part(part, [math.nan], [], sharpness=False).checks == 0

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
