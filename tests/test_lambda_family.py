import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jensenmeans import (
    BRANCH_EQUAL,
    BRANCH_LIMIT_NEG1,
    BRANCH_LIMIT_ONE,
    BRANCH_LIMIT_ZERO,
    BRANCH_SERIES,
    DomainError,
    T_SWITCH,
    UsageError,
    arithmetic,
    lambda_closed_form,
    lambda_mean,
    lambda_ratio,
    small_t_series,
)
from jensenmeans.highprec import lambda_mean_mp, lambda_ratio_mp
from jensenmeans.lambda_family import _ratio_columns, _ratio_row

# mpmath references at 50 digits
LAMBDA0_1_3 = 1.818841679306418009165
LAMBDA1_1_3 = 1.911139125703199516488
LAMBDAM1_1_3 = 1.726092434710685564635
RATIO_M1_HALF = 0.8630462173553427823177   # order -1 profile at t = 0.5
RATIO_3_MILLI = 1.000000166666666666667    # order 3 profile at t = 1e-3

# Width of the order window around -1, 0 and 1 that the continuity checks probe.
ORDER_BRANCH_WIDTH = 1e-5


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


class TestCaseTable:
    def test_order_two_is_arithmetic(self):
        result = lambda_mean(2.0, 3.0, 5.0)
        assert result.value == 4.0

    def test_equal_arguments(self):
        for s in (-5.0, 0.0, 2.0, 17.3):
            result = lambda_mean(s, 7.0, 7.0)
            assert result.value == 7.0
            assert result.branch == BRANCH_EQUAL

    def test_limit_orders_at_1_3(self):
        assert rel(lambda_mean(0.0, 1.0, 3.0).value, LAMBDA0_1_3) <= 1e-14
        assert rel(lambda_mean(1.0, 1.0, 3.0).value, LAMBDA1_1_3) <= 1e-14
        assert rel(lambda_mean(-1.0, 1.0, 3.0).value, LAMBDAM1_1_3) <= 1e-14

    def test_branch_tags(self):
        assert lambda_mean(-1.0, 1.0, 3.0).branch == BRANCH_LIMIT_NEG1
        assert lambda_mean(0.0, 1.0, 3.0).branch == BRANCH_LIMIT_ZERO
        assert lambda_mean(1.0, 1.0, 3.0).branch == BRANCH_LIMIT_ONE
        assert lambda_mean(3.0, 1.0, 1.0 + 1e-5).branch == BRANCH_SERIES

    def test_ratio_of_order_minus_one(self):
        # matches the closed form evaluated at the pair (0.5, 1.5)
        assert rel(lambda_ratio(-1.0, 0.5), RATIO_M1_HALF) <= 1e-14
        closed = lambda_closed_form(-1.0, 0.5, 1.5)
        assert rel(lambda_ratio(-1.0, 0.5) * 1.0, closed) <= 1e-12

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            lambda_mean(math.nan, 1.0, 2.0)
        with pytest.raises(DomainError):
            lambda_mean(math.inf, 1.0, 2.0)
        with pytest.raises(DomainError):
            lambda_mean(2.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            lambda_ratio(2.0, 1.0)
        with pytest.raises(DomainError):
            lambda_ratio(2.0, -0.2)


class TestClosedForms:
    def test_cross_checks_at_1_3(self):
        assert rel(lambda_closed_form(0.0, 1.0, 3.0), LAMBDA0_1_3) <= 1e-12
        assert rel(lambda_closed_form(1.0, 1.0, 3.0), LAMBDA1_1_3) <= 1e-12
        assert rel(lambda_closed_form(-1.0, 1.0, 3.0), LAMBDAM1_1_3) <= 1e-12

    def test_equal_arguments_rejected(self):
        with pytest.raises(DomainError):
            lambda_closed_form(-1.0, 2.0, 2.0)

    def test_other_orders_rejected(self):
        with pytest.raises(UsageError):
            lambda_closed_form(2.0, 1.0, 3.0)

    def test_agreement_with_family_on_random_pairs(self):
        rng = random.Random(20240817)
        for _ in range(300):
            ratio = 10.0 ** rng.uniform(math.log10(1.01), 4.0)
            scale = 10.0 ** rng.uniform(-3.0, 3.0)
            a, b = scale, scale * ratio
            for s in (-1.0, 0.0, 1.0):
                direct = lambda_mean(s, a, b).value
                closed = lambda_closed_form(s, a, b)
                assert rel(direct, closed) <= 1e-10


class TestSeries:
    def test_series_matches_high_precision(self):
        assert rel(small_t_series(3.0, 1e-3 * (1 - 1e-12), 8),
                   lambda_ratio(3.0, 1e-3 * (1 - 1e-12))) <= 1e-15
        # 30+ digit oracle at the switch point itself (generic path)
        assert rel(lambda_ratio(3.0, 1e-3), RATIO_3_MILLI) <= 1e-13

    def test_leading_term(self):
        # profile = 1 + (s/6 - 1/3) t^2 + O(t^4)
        s, t = 5.0, 1e-4
        expansion = small_t_series(s, t, 3)
        assert expansion - 1.0 == pytest.approx((s / 6 - 1 / 3) * t * t, rel=1e-6)

    def test_order_two_series_is_exactly_one(self):
        for t in (1e-5, 1e-4, 9e-4):
            assert small_t_series(2.0, t, 8) == 1.0
            assert lambda_ratio(2.0, t) == 1.0

    def test_usage_guard(self):
        with pytest.raises(UsageError):
            small_t_series(3.0, 2e-3)
        with pytest.raises(UsageError):
            small_t_series(3.0, T_SWITCH)
        with pytest.raises(UsageError):
            small_t_series(3.0, 1e-4, terms=0)

    def test_series_against_30_digit_oracle(self):
        # fixed 8-term truncation, just below the switch
        t = 0.000999
        for s in (3.0, -2.0, 0.5):
            mine = small_t_series(s, t, 8)
            ref = float(lambda_ratio_mp(s, t, dps=40))
            assert rel(mine, ref) <= 1e-15

    def test_boundary_agreement_with_oracle(self):
        # both sides of the series/generic switch sit on the same curve
        below = T_SWITCH * (1.0 - 1e-10)
        for s in (3.0, 5.0, -5.0, 0.5, -2.2, 7.7):
            for t in (below, T_SWITCH):
                mine = lambda_ratio(s, t)
                ref = float(lambda_ratio_mp(s, t, dps=50))
                assert rel(mine, ref) <= 1e-12


class TestBranchStructure:
    def test_pole_width_continuity(self):
        # stepping the order off a pole moves the profile by the oracle's step
        for pole in (-1.0, 0.0, 1.0):
            for t in (0.05, 0.3, 0.9):
                center = lambda_ratio(pole, t)
                center_ref = lambda_ratio_mp(pole, t, dps=50)
                for s in (pole + ORDER_BRANCH_WIDTH, pole - ORDER_BRANCH_WIDTH):
                    step_ref = float(lambda_ratio_mp(s, t, dps=50) - center_ref)
                    assert abs(lambda_ratio(s, t) - center - step_ref) <= 1e-8 * center

    def test_just_outside_width_tracks_oracle(self):
        for pole in (-1.0, 0.0, 1.0):
            for s in (pole + 2 * ORDER_BRANCH_WIDTH, pole - 2 * ORDER_BRANCH_WIDTH):
                for t in (0.01, 0.4, 0.99):
                    mine = lambda_ratio(s, t)
                    ref = float(lambda_ratio_mp(s, t, dps=50))
                    assert rel(mine, ref) <= 1e-11


class TestOrderRange:
    def test_near_pole_accuracy(self):
        # no order window around the limit orders: their neighbours are
        # evaluated by the same uniformly accurate forms
        for pole in (-1.0, 0.0, 1.0):
            for offset in (1e-9, 1e-7, 9e-6, 1e-4):
                for s in (pole - offset, pole + offset):
                    for t in (1e-4, 0.05, 0.3, 0.9, 1 - 1e-6):
                        ref = float(lambda_ratio_mp(s, t, dps=50))
                        assert rel(lambda_ratio(s, t), ref) <= 1e-11

    def test_huge_orders_stay_in_range(self):
        orders = [sign * 10.0 ** k for k in range(0, 9) for sign in (-1.0, 1.0)]
        orders += [sign * 3.0 * 10.0 ** k for k in range(1, 8) for sign in (-1.0, 1.0)]
        coords = [10.0 ** -k for k in range(1, 10)] + [0.5, 0.9]
        for s in orders:
            for t in coords:
                value = lambda_ratio(s, t)
                assert math.isfinite(value)
                assert 1.0 - t <= value <= 1.0 + t

    def test_unbalanced_pair_at_float_floor(self):
        # 1 - t has no digits left here; the lower point is carried as lo/A
        value = lambda_mean(-1e5, 1e-300, 1e-288).value
        assert value >= 1e-300
        assert rel(value, float(lambda_mean_mp(-1e5, 1e-300, 1e-288, dps=80))) <= 1e-12


ORDERS = st.floats(min_value=-20.0, max_value=20.0)
COORDS = st.floats(min_value=1e-9, max_value=1.0 - 1e-9)
SCALES = st.floats(min_value=-6.0, max_value=6.0)


class TestInvariants:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(s=ORDERS, t=COORDS, exp=SCALES)
    def test_mean_property_symmetry_homogeneity(self, s, t, exp):
        scale = 10.0 ** exp
        a, b = scale * (1.0 - t), scale * (1.0 + t)
        value = lambda_mean(s, a, b).value
        assert min(a, b) * (1 - 1e-11) <= value <= max(a, b) * (1 + 1e-11)
        assert lambda_mean(s, b, a).value == value
        k = 512.0
        assert rel(lambda_mean(s, k * a, k * b).value, k * value) <= 1e-12

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(t=COORDS, exp=SCALES)
    def test_order_two_identity(self, t, exp):
        scale = 10.0 ** exp
        a, b = scale * (1.0 - t), scale * (1.0 + t)
        assert rel(lambda_mean(2.0, a, b).value, arithmetic(a, b)) <= 1e-12

    def test_monotone_in_order_on_grid(self):
        s_grid = [-10 + 20 * i / 99 for i in range(100)]
        t_grid = [1e-6, 1e-4, 1e-2, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6]
        for t in t_grid:
            values = [lambda_ratio(s, t) for s in s_grid]
            for lo, hi in zip(values, values[1:]):
                assert hi >= lo * (1 - 1e-12)

    def test_ratio_consistency_with_mean(self):
        # the pair route recomputes the coordinate, which can land the
        # evaluation on the other side of the series/generic switch; both
        # sides stay within the documented 1e-12 budget
        for s in (-3.3, 0.25, 4.0):
            for t in (1e-5, 1e-3, 0.2, 0.95):
                a, b = 1.0 - t, 1.0 + t
                via_mean = lambda_mean(s, a, b).value
                via_ratio = lambda_ratio(s, t) * arithmetic(a, b)
                assert rel(via_mean, via_ratio) <= 2e-12

    def test_deep_negative_order_overflow_guard(self):
        # (1-t)^s explodes for very negative orders; the log-space path holds
        for s in (-50.0, -200.0):
            for t in (0.9, 1 - 1e-9, 1 - 1e-12):
                value = lambda_ratio(s, t)
                assert math.isfinite(value)
                assert (1 - t) * (1 - 1e-9) <= value <= (1 + t) * (1 + 1e-9)

    def test_oracle_spot_checks(self):
        rng = random.Random(5)
        for _ in range(60):
            s = rng.uniform(-15, 15)
            t = rng.random() * (1 - 2e-6) + 1e-6
            mine = lambda_ratio(s, t)
            ref = float(lambda_ratio_mp(s, t, dps=50))
            assert rel(mine, ref) <= 5e-12


class TestOrderLimit:
    @pytest.mark.parametrize("s", [1e150, -1e150])
    def test_largest_orders_stay_in_range(self, s):
        for t in (1e-160, 1e-3, 0.5, 0.999):
            value = lambda_ratio(s, t)
            assert 1.0 - t <= value <= 1.0 + t

    @pytest.mark.parametrize("s", [1e155, -1e300])
    def test_orders_beyond_the_kernel_rejected(self, s):
        # sigma (sigma - 1) leaves the float range there (0/0 before)
        with pytest.raises(DomainError):
            lambda_ratio(s, 1e-3)
        with pytest.raises(DomainError):
            lambda_mean(s, 1.0, 2.0)


class TestRatioRow:
    """The scanners' row kernel equals scalar lambda_ratio bit for bit."""

    # the limit orders and extremes, then one order per generic pair of phi
    # forms of s + 1 and s, each with its own loop in the row kernel:
    # below/below (-4, -0.5), above/below (0.3) and above/above (1.04, 5)
    ORDERS = (-1.0, 0.0, 1.0, 2.0, -1e-17, 1e8, -1e8, 1e150, 5e-324,
              -4.0, -0.5, 0.3, 1.04, 5.0)
    EDGES = (0.0, 1e-300, 1e-9, 5e-4, 0.000999, 1e-3, 0.5, 1.0 - 2.0 ** -52)

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in values]

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from(ORDERS), st.floats(-60.0, 60.0),
                  st.floats(-1e150, 1e150)),
        st.lists(st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1e-3),
                           st.floats(0.0, 1.0, exclude_max=True)), max_size=12),
    )
    def test_row_equals_scalar_bit_for_bit(self, s, ts):
        row = _ratio_row(s, _ratio_columns(ts + list(self.EDGES)))
        assert self.bits(row) == self.bits(lambda_ratio(s, t) for t in ts + list(self.EDGES))

    @pytest.mark.parametrize("s", ORDERS)
    def test_listed_orders_on_the_edges(self, s):
        ts = [t for edge in self.EDGES for t in (edge, edge * 0.999)]
        row = _ratio_row(s, _ratio_columns(ts))
        assert self.bits(row) == self.bits(lambda_ratio(s, t) for t in ts)

    def test_errors_match_the_scalar_path(self):
        columns = _ratio_columns([0.5, 1.0, -0.1])
        with pytest.raises(DomainError) as row_error:
            _ratio_row(0.5, columns)
        with pytest.raises(DomainError) as scalar_error:
            [lambda_ratio(0.5, t) for t in columns.t]
        assert str(row_error.value) == str(scalar_error.value)
        # the order is checked before the coordinates, as lambda_ratio does
        with pytest.raises(DomainError, match="order parameter") as row_error:
            _ratio_row(math.nan, columns)
        with pytest.raises(DomainError) as scalar_error:
            lambda_ratio(math.nan, 1.0)
        assert str(row_error.value) == str(scalar_error.value)
        # an empty row evaluates nothing, so it checks nothing
        assert _ratio_row(math.nan, _ratio_columns([])) == []

    def test_tiny_orders_take_the_order_zero_form(self):
        # sigma log x underflowed to 0 in the closed form: 0/0 at s = 5e-324
        for s in (5e-324, -1e-310, 1e-250):
            value = lambda_mean(s, 210586854588.0, 302586423450.0).value
            assert value == lambda_mean(0.0, 210586854588.0, 302586423450.0).value
