import math
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from jensenmeans import (
    BRANCH_EQUAL,
    BRANCH_GENERIC,
    BRANCH_LIMIT_NEG1,
    BRANCH_LIMIT_ONE,
    BRANCH_LIMIT_ZERO,
    BRANCH_SCALED,
    DomainError,
    UsageError,
    arithmetic,
    lambda_closed_form,
    lambda_mean,
    lambda_ratio,
)
from jensenmeans.highprec import lambda_mean_mp, lambda_ratio_mp
from jensenmeans.lambda_family import _PAST_ENDS, _ratio_columns, _ratio_row

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
        assert lambda_mean(3.0, 1.0, 1.0 + 1e-5).branch == BRANCH_GENERIC

    @pytest.mark.parametrize("a, b", [(1e-300, 2.0), (1.0, 1e300)])
    def test_scaled_branch_tag(self, a, b):
        # the power sums are scaled by their largest power at these pairs
        assert lambda_mean(5.0, a, b).branch == BRANCH_SCALED
        assert lambda_mean(-7.5, a, b).branch == BRANCH_SCALED
        assert lambda_mean(-1.0, a, b).branch == BRANCH_LIMIT_NEG1
        assert lambda_mean(0.0, a, b).branch == BRANCH_LIMIT_ZERO
        assert lambda_mean(1.0, a, b).branch == BRANCH_LIMIT_ONE

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

    @pytest.mark.parametrize("s, a, b", [
        (1.0, 0.9999999999999999, 1.0),     # S/A rounds to 1: log 0 divides
        (0.0, 1.0, 1.0000000000000002),     # A/G rounds to 1
        (-1.0, 1.0, 1.00000001),            # A - H rounds to 0
        (0.0, 0.9999999999999999, 1.0),     # returned 0.0
        (-1.0, 1.0, 1.0000000000000002),    # returned -0.0
    ])
    def test_adjacent_arguments_rejected(self, s, a, b):
        with pytest.raises(DomainError):
            lambda_closed_form(s, a, b)

    def test_close_arguments_in_range_or_rejected(self):
        for k in range(160):
            b = 1.0 + 2.0 ** (-52 + k / 4)  # spreads 2.2e-16 .. 2e-4
            for s in (-1.0, 0.0, 1.0):
                for a in (1.0, 2.0 - b):
                    try:
                        value = lambda_closed_form(s, a, b)
                    except DomainError:
                        continue
                    assert a <= value <= b, (s, a, b)

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
    """The small-t range: the profile's t^2 expansion and oracle values."""

    def test_series_matches_high_precision(self):
        t = 1e-3 * (1 - 1e-12)
        assert rel(lambda_ratio(3.0, t), float(lambda_ratio_mp(3.0, t, dps=40))) <= 4e-15
        # 30+ digit oracle at t = 1e-3
        assert rel(lambda_ratio(3.0, 1e-3), RATIO_3_MILLI) <= 4e-15

    def test_leading_term(self):
        # profile = 1 + (s/6 - 1/3) t^2 + O(t^4)
        s, t = 5.0, 1e-4
        assert lambda_ratio(s, t) - 1.0 == pytest.approx((s / 6 - 1 / 3) * t * t, rel=1e-6)

    def test_order_two_series_is_exactly_one(self):
        for t in (1e-5, 1e-4, 9e-4):
            assert lambda_ratio(2.0, t) == 1.0

    def test_series_against_30_digit_oracle(self):
        t = 0.000999
        for s in (3.0, -2.0, 0.5):
            ref = float(lambda_ratio_mp(s, t, dps=40))
            assert rel(lambda_ratio(s, t), ref) <= 4e-15

    def test_boundary_agreement_with_oracle(self):
        # around t = 1e-3, where the expm1 closed form alone loses digits like u/t
        for s in (3.0, 5.0, -5.0, 0.5, -2.2, 7.7):
            for t in (1e-3 * (1.0 - 1e-10), 1e-3, 1.2e-3):
                ref = float(lambda_ratio_mp(s, t, dps=50))
                assert rel(lambda_ratio(s, t), ref) <= 4e-15


class TestSymmetricForm:
    """R = q_{s+1} / q_s from the symmetric logs log(1 - t^2) and atanh(t)
    wherever (|s| + 1) t <= 1/2, exactly 1.0 where (|s| + 2) t^2 < 2^-52."""

    @staticmethod
    def orders_and_coordinates(n, seed):
        rng = random.Random(seed)
        near = (-1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
        for i in range(n):
            if i % 3:
                s = rng.uniform(-10.0, 10.0)
            else:
                s = rng.choice(near) + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, -3.0)
            yield s, 10.0 ** rng.uniform(-3.0, -1.0)

    def test_ratio_against_60_digit_oracle(self):
        for s, t in self.orders_and_coordinates(240, 1601):
            ref = float(lambda_ratio_mp(s, t, dps=60))
            assert rel(lambda_ratio(s, t), ref) <= 4e-15, (s, t)

    def test_mean_against_60_digit_oracle(self):
        rng = random.Random(1602)
        for s, t in self.orders_and_coordinates(120, 1603):
            lo = 10.0 ** rng.uniform(-5.0, 5.0)
            hi = lo * ((1.0 + t) / (1.0 - t))
            ref = float(lambda_mean_mp(s, lo, hi, dps=60))
            assert rel(lambda_mean(s, lo, hi).value, ref) <= 4e-15, (s, lo, hi)

    SEAM_ORDERS = (-10.0, -3.3, -1.0, -0.75, -0.5, -1e-9, 0.0, 1e-9, 0.5, 1.0, 1.7, 9.5)

    @pytest.mark.parametrize("s", SEAM_ORDERS)
    def test_seam_against_oracle(self, s):
        # both sides of (|s| + 1) t = 1/2, the symmetric form's end
        seam = 0.5 / (abs(s) + 1.0)
        for t in (seam * (1.0 - 1e-12), seam, seam * (1.0 + 1e-12), seam * 1.01):
            ref = float(lambda_ratio_mp(s, t, dps=60))
            assert rel(lambda_ratio(s, t), ref) <= 4e-15, t

    @pytest.mark.parametrize("s", SEAM_ORDERS)
    def test_row_equals_scalar_across_the_seam(self, s):
        seam = 0.5 / (abs(s) + 1.0)
        ts = [seam * (1.0 + k * 1e-16) for k in range(-8, 9)] + [
            seam * (1.0 + k / 50.0) for k in range(-20, 21)]
        row = _ratio_row(s, _ratio_columns(ts))
        assert [v.hex() for v in row] == [lambda_ratio(s, t).hex() for t in ts]

    @pytest.mark.parametrize("s", [3.0, -7.0, 1e8, 1e150, -1e150])
    def test_tiny_coordinates_give_exactly_one(self, s):
        for t in (1e-300, 1e-160, 1e-17):
            assert lambda_ratio(s, t) == 1.0
            assert _ratio_row(s, _ratio_columns([t])) == [1.0]

    def test_tiny_order_matches_order_zero(self):
        for t in (1e-7, 1e-3, 0.1, 0.4):
            tiny, zero = lambda_ratio(1e-250, t), lambda_ratio(0.0, t)
            assert abs(tiny - zero) <= math.ulp(zero), t

    def test_orders_between_minus_one_and_zero_near_t_one(self):
        # max(|s|, |s + 1|) t <= 1/2 would put these on the symmetric form up
        # to t -> 1, where 1 + A = (1 - t^2)^(e/2) -> 0 loses its digits
        for s in (-0.75, -0.5, -0.25):
            for lo in (0.2, 1e-6, 1e-12, 1e-100):
                ref = float(lambda_mean_mp(s, lo, 1.0, dps=60))
                assert rel(lambda_mean(s, lo, 1.0).value, ref) <= 1e-14, (s, lo)


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

    @pytest.mark.parametrize("s, a, b", [
        # lo/A is subnormal, so it has lost digits: 0.27 and 0.22 relative off
        # below lo when its log was taken
        (-360231164.6138454, 3.335452965943484e-142, 9.816813158250126e181),
        (-1755888066.6638126, 6.278364106081367e114, 1.981894650477058e-209),
    ])
    def test_unbalanced_pair_with_subnormal_quotient(self, s, a, b):
        # here the lower point is carried as log lo - log A, since lo/A is
        # below the normal range
        value = lambda_mean(s, a, b).value
        assert value >= min(a, b)
        assert rel(value, float(lambda_mean_mp(s, a, b, dps=80))) <= 1e-12

    @pytest.mark.parametrize("low, high", [(8.0, 16.0), (16.0, 150.0)])
    def test_large_orders_stay_in_range(self, low, high):
        # the scaled form's exp(shift) turned the rounding of log(lo/A) into
        # values up to 1.7e-13 relative outside [lo, hi]
        rng = random.Random(2329)
        for _ in range(30_000):
            s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(low, high)
            a, b = 10.0 ** rng.uniform(-270.0, 300.0), 10.0 ** rng.uniform(-270.0, 300.0)
            assert min(a, b) <= lambda_mean(s, a, b).value <= max(a, b), (s, a, b)

    def test_large_orders_at_the_float_maximum(self):
        # the scaled quotient times A overflowed to inf past hi
        top = sys.float_info.max
        assert lambda_mean(3.703342055554923e16, 1e300, top).value == top
        rng = random.Random(2331)
        for _ in range(2_000):
            s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(8.0, 150.0)
            lo = 10.0 ** rng.uniform(-270.0, 308.0)
            assert lo <= lambda_mean(s, lo, top).value <= top, (s, lo)

    @pytest.mark.parametrize("low, high", [(8.0, 12.0), (12.0, math.log10(_PAST_ENDS)),
                                           (math.log10(_PAST_ENDS), 16.0), (16.0, 150.0)])
    def test_large_order_profiles_stay_in_range(self, low, high):
        # from |s| ~ 2.4e13 on, the closed and the scaled forms rounded past
        # 1 + t or 1 - t, by up to 3.5e-15 relative; below _PAST_ENDS nothing
        # is clamped, so the two lower bands check that no value needs it
        rng = random.Random(2417)
        for _ in range(1_000):
            s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(low, high)
            ts = [1.0 - 10.0 ** rng.uniform(-16.0, math.log10(0.98)) for _ in range(10)]
            ts += [t for t in (10.0 ** rng.uniform(-1.0, 3.0) / abs(s) for _ in range(10))
                   if t < 1.0]  # s t from 0.1 to 1000, where the closed form serves
            values = [lambda_ratio(s, t) for t in ts]
            assert _ratio_row(s, _ratio_columns(ts)) == values
            for t, value in zip(ts, values):
                assert 1.0 - t <= value <= 1.0 + t, (s, t)

    @pytest.mark.parametrize("s, t, end", [
        (1.5275388031872998e16, 3.736779846644445e-14, 1.0 + 3.736779846644445e-14),  # closed
        (-9.480657175041376e23, 0.9999999999999909, 1.0 - 0.9999999999999909),       # scaled
    ])
    def test_large_order_profiles_at_their_ends(self, s, t, end):
        assert lambda_ratio(s, t) == end
        assert _ratio_row(s, _ratio_columns([t])) == [end]


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
        # evaluation on the other side of a switch between forms; both
        # sides stay within the documented 1e-12 budget
        for s in (-3.3, 0.25, 4.0):
            for t in (1e-5, 1e-3, 0.2, 0.95):
                a, b = 1.0 - t, 1.0 + t
                via_mean = lambda_mean(s, a, b).value
                via_ratio = lambda_ratio(s, t) * arithmetic(a, b)
                assert rel(via_mean, via_ratio) <= 2e-12

    def test_subnormal_pairs(self):
        # a half of a subnormal argument rounds; the pair is evaluated 2^64
        # times larger instead, so the value is homogeneous bit for bit
        rng = random.Random(67)

        def draw():
            if rng.random() < 1.0 / 3.0:
                return rng.randint(1, 64) * 5e-324
            return 10.0 ** rng.uniform(-323.3, -300.0)

        for _ in range(4000):
            a, b = draw(), draw()
            for s in (-3.0, -1.0, 0.0, 0.5, 1.0, 2.0, 7.0):
                value = lambda_mean(s, a, b).value
                assert min(a, b) <= value <= max(a, b), (s, a, b)
                scaled = lambda_mean(s, math.ldexp(a, 200), math.ldexp(b, 200)).value
                assert value == math.ldexp(scaled, -200), (s, a, b)
        assert lambda_mean(0.5, 5e-324, 1.5e-323).value == 1e-323
        assert lambda_mean(0.0, 5e-324, 2.5e-323).value == 1e-323

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

    # the limit orders and extremes; one order per pair of phi forms of s + 1
    # and s, all run by the row kernel's one loop: below/below (-4, -0.5),
    # above/below (0.3) and above/above (1.04, 5); and the boundaries between
    # the forms: sigma = 1/2 and just above it, |sigma| at the flat bound and
    # just inside it, and s = 1e-17, where s + 1 rounds to 1
    ORDERS = (-1.0, 0.0, 1.0, 2.0, -1e-17, 1e8, -1e8, 1e150, 5e-324,
              -4.0, -0.5, 0.3, 1.04, 5.0,
              0.5, math.nextafter(0.5, 1.0), 1e-200, -1e-200,
              math.nextafter(1e-200, 0.0), 1e-17)
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
