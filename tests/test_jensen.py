import math
import random
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from mpmath import mp, mpf

from jensenmeans import (
    ConvexPair,
    DegenerateSampleError,
    DomainError,
    InvalidPairError,
    InvalidReportError,
    MeansError,
    MomentReport,
    UsageError,
    WeightedSample,
    cubic_moment_bounds,
    jensen_gap,
    lambda_mean,
    lambda_quotient,
    log_convexity_holds,
    mean_condition_residual,
    pair_from_g,
    power_gap,
    power_gap_ratio,
    power_generator,
    power_generator_d1,
    power_generator_d2,
    power_pair,
)
from jensenmeans import _pcg64
from jensenmeans.highprec import lambda_mean_mp
from jensenmeans.jensen import _log_gap

CHI0_1_3 = 0.1438410362258904637196   # log 2 - (log 3)/2
LAMBDA1_1_3 = 1.911139125703199516488


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def real_pair(f, g, f2=None, g2=None):
    return ConvexPair(f=f, g=g, f_second=f2, g_second=g2,
                      interval=(-math.inf, math.inf))


class TestWeightedSample:
    def test_normalization(self):
        sample = WeightedSample((1.0, 2.0, 3.0), (2.0, 2.0, 4.0))
        assert math.fsum(sample.weights) == pytest.approx(1.0, abs=1e-15)
        assert sample.weights[2] == pytest.approx(0.5)
        assert sample.mean == pytest.approx(2.25)

    def test_equal_weights_default(self):
        sample = WeightedSample((0.0, 2.0))
        assert sample.weights == (0.5, 0.5)

    def test_validation(self):
        with pytest.raises(DomainError):
            WeightedSample((1.0,))
        with pytest.raises(DomainError):
            WeightedSample((1.0, 2.0), (1.0, -1.0))
        with pytest.raises(DomainError):
            WeightedSample((1.0, 2.0), (1.0,))
        with pytest.raises(DomainError):
            WeightedSample((1.0, math.inf))

    def test_weights_summing_past_the_float_range(self):
        # fsum overflows on the raw weights; a power-of-two scale does not move
        # their ratios
        assert WeightedSample((1.0, 2.0), (1e308, 1e308)).weights == (0.5, 0.5)
        sample = WeightedSample((1.0, 2.0, 3.0), (1e308, 1e308, 1.5e308))
        assert sample.weights == tuple(w / 3.5 for w in (1.0, 1.0, 1.5))

    def test_weight_underflowing_once_normalized_is_refused(self):
        # 1e-30 / 1e300 is 0.0: the sample would keep a point of weight 0,
        # and its gaps a 0/0
        with pytest.raises(DomainError, match="underflows to 0"):
            WeightedSample((1.0, 2.0), (1e300, 1e-30))
        assert WeightedSample((1.0, 2.0), (1e300, 1e-7)).weights[1] == 1e-307


class TestJensenGap:
    def test_square_hand_value(self):
        sample = WeightedSample((0.0, 2.0))
        assert jensen_gap(lambda x: x * x, sample) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_sample_is_zero(self):
        sample = WeightedSample((3.0, 3.0, 3.0))
        assert jensen_gap(lambda x: x * x * x, sample) == pytest.approx(0.0, abs=1e-15)

    def test_affine_annihilated(self):
        sample = WeightedSample((0.5, 1.5, 4.0), (1.0, 2.0, 3.0))
        assert jensen_gap(lambda x: 3.0 * x - 7.0, sample) == pytest.approx(0.0, abs=1e-13)

    def test_weight_recursion_identity(self):
        # n-point gap = (1 - p_n) * reduced gap + two-point remainder
        rng = random.Random(11)
        f = lambda x: x ** 4
        for _ in range(50):
            n = rng.randint(3, 10)
            points = [rng.uniform(-2.0, 3.0) for _ in range(n)]
            weights = [rng.uniform(0.1, 1.0) for _ in range(n)]
            sample = WeightedSample(points, weights)
            p = sample.weights
            x = sample.points
            reduced = WeightedSample(x[:-1], p[:-1])
            head = (1.0 - p[-1]) * jensen_gap(f, reduced)
            pivot = reduced.mean
            tail = ((1.0 - p[-1]) * f(pivot) + p[-1] * f(x[-1])
                    - f((1.0 - p[-1]) * pivot + p[-1] * x[-1]))
            whole = jensen_gap(f, sample)
            assert rel(whole, head + tail) <= 1e-12

    @pytest.mark.parametrize("h, points", [
        (lambda x: x * x, (1e200, 2e200)),  # inf at the points and the centre: nan
        (lambda x: math.copysign(math.inf, x), (-1.0, 2.0)),  # inf and -inf at the points
        (lambda x: math.inf, (1.0, 2.0)),
    ])
    def test_gap_past_the_float_range_raises(self, h, points):
        with pytest.raises(DomainError):
            jensen_gap(h, WeightedSample(points))


class TestLambdaQuotient:
    def test_cubic_hand_value(self):
        pair = real_pair(lambda t: t ** 3 / 3.0, lambda t: t * t,
                         f2=lambda t: 2.0 * t, g2=lambda t: 2.0)
        sample = WeightedSample((0.0, 1.0))
        assert lambda_quotient(pair, sample) == pytest.approx(0.5, abs=1e-15)

    def test_reduces_to_bivariate_family(self):
        for s in (-2.5, -1.0, 0.0, 0.5, 1.0, 3.0):
            sample = WeightedSample((1.0, 3.0))
            quotient = lambda_quotient(power_pair(s), sample)
            family = lambda_mean(s, 1.0, 3.0).value
            assert rel(quotient, family) <= 1e-11

    def test_degenerate_sample_rejected(self):
        with pytest.raises(DegenerateSampleError):
            lambda_quotient(power_pair(2.0), WeightedSample((5.0, 5.0, 5.0)))

    def test_concave_g_rejected(self):
        pair = real_pair(lambda t: t ** 3 / 3.0, lambda t: -t * t)
        with pytest.raises(InvalidPairError):
            lambda_quotient(pair, WeightedSample((0.0, 1.0)))

    def test_f_gap_past_the_float_range_raises(self):
        # f overflows to inf at both points and the centre: the f-gap is nan
        pair = real_pair(lambda t: t * t * t * t, lambda t: t * t)
        with pytest.raises(DomainError):
            lambda_quotient(pair, WeightedSample((1e101, 2e101)))

    def test_quotient_past_the_float_range_raises(self):
        # both gaps are finite, their quotient is not
        pair = real_pair(lambda t: 1e300 * t * t, lambda t: 1e-300 * t * t)
        with pytest.raises(DomainError, match="quotient exceeds the float range"):
            lambda_quotient(pair, WeightedSample((1.0, 3.0)))

    def test_hull_outside_interval_rejected(self):
        with pytest.raises(DomainError):
            lambda_quotient(power_pair(2.0), WeightedSample((-1.0, 1.0)))

    def test_affine_invariance(self):
        base = lambda t: t ** 3 / 3.0
        g = lambda t: t * t
        shifted = lambda t: base(t) + 2.5 * t - 7.0
        sample = WeightedSample((0.2, 1.4, 3.0, -0.7), (1.0, 2.0, 1.0, 1.0))
        q0 = lambda_quotient(real_pair(base, g), sample)
        q1 = lambda_quotient(real_pair(shifted, g), sample)
        assert rel(q0, q1) <= 1e-10

    def test_cubic_pair_mean_property_on_reals(self):
        pair = real_pair(lambda t: t ** 3 / 3.0, lambda t: t * t,
                         f2=lambda t: 2.0 * t, g2=lambda t: 2.0)
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(2, 12)
            points = [rng.uniform(-50.0, 50.0) for _ in range(n)]
            if max(points) - min(points) < 1e-6:
                continue
            weights = [rng.uniform(0.05, 1.0) for _ in range(n)]
            sample = WeightedSample(points, weights)
            value = lambda_quotient(pair, sample)
            span = sample.max_point - sample.min_point
            assert sample.min_point - 1e-9 * span <= value <= sample.max_point + 1e-9 * span

    def test_non_mean_pair_has_violation_witness(self):
        # f = t^4, g = t^2 fails the curvature relation; a two-point scan finds
        # the quotient escaping the hull
        pair = real_pair(lambda t: t ** 4, lambda t: t * t,
                         f2=lambda t: 12.0 * t * t, g2=lambda t: 2.0)
        found = None
        ratio = 1.1
        while ratio <= 10.0:
            sample = WeightedSample((1.0, ratio))
            value = lambda_quotient(pair, sample)
            if value > ratio or value < 1.0:
                found = (ratio, value)
                break
            ratio += 0.1
        assert found is not None


class TestPairFromG:
    def test_square_generator(self):
        # g = t^2, G = (t^3 - 1)/3, so f = t^3/3 + 2/3 up to the construction
        pair = pair_from_g(lambda t: t * t, lambda t: 2.0,
                           antiderivative=lambda t: (t ** 3 - 1.0) / 3.0)
        assert pair.f(2.0) == pytest.approx(2.0 ** 3 / 3.0 + 2.0 / 3.0, rel=1e-14)
        assert mean_condition_residual(pair, [0.3, 0.9, 2.0, 7.5]) <= 1e-6

    @pytest.mark.parametrize("t", [0.0, -1.0, math.inf, math.nan])
    def test_residual_grid_outside_the_interval_rejected(self, t):
        with pytest.raises(DomainError) as error:
            mean_condition_residual(power_pair(3.0), [1.0, t, 2.0])
        assert str(error.value) == f"grid point {t!r} leaves the pair's interval"

    def test_power_generator_partner(self):
        # g of order 0 has curvature 1/t^2; its partner's curvature is 1/t,
        # the order-1 curvature.  Antiderivative of t - log t - 1 vanishing
        # at 1 is t^2/2 - t log t - 1/2.
        pair = pair_from_g(
            lambda t: power_generator(0.0, t),
            lambda t: 1.0 / (t * t),
            antiderivative=lambda t: t * t / 2.0 - t * math.log(t) - 0.5,
        )
        grid = [0.2, 0.7, 1.3, 4.0, 9.0]
        assert mean_condition_residual(pair, grid) <= 1e-6
        for t in grid:
            assert rel(pair.f_second_at(t), 1.0 / t) <= 1e-5

    def test_quadrature_fallback(self):
        pair = pair_from_g(lambda t: t * t, lambda t: 2.0)
        exact = lambda t: t ** 3 / 3.0 + 2.0 / 3.0
        for t in (0.5, 1.0, 3.0):
            assert abs(pair.f(t) - exact(t)) <= 1e-9

    def test_affine_freedom_cancels_in_quotient(self):
        g = lambda t: t * t
        anti = lambda t: (t ** 3 - 1.0) / 3.0
        plain = pair_from_g(g, lambda t: 2.0, antiderivative=anti)
        sample = WeightedSample((0.4, 1.1, 2.8))
        tweaked = ConvexPair(
            f=lambda t: plain.f(t) + 4.0 * t + 11.0,
            g=g, g_second=lambda t: 2.0, interval=plain.interval,
        )
        assert rel(lambda_quotient(plain, sample),
                   lambda_quotient(tweaked, sample)) <= 1e-10


class TestPowerGenerator:
    def test_normalization_at_one(self):
        for s in (-3.0, 0.0, 0.5, 1.0, 2.0, 6.0):
            assert power_generator(s, 1.0) == pytest.approx(0.0, abs=1e-15)
            assert power_generator_d1(s, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_case_table_values(self):
        assert power_generator(0.0, 1.0) == 0.0
        assert power_generator(1.0, math.e) == pytest.approx(1.0, rel=1e-14)
        assert power_generator(3.0, 2.0) == pytest.approx(2.0 / 3.0, rel=1e-14)

    def test_curvature_is_power(self):
        for s in (-2.0, 0.0, 1.0, 2.7):
            for t in (0.3, 1.0, 5.0):
                assert power_generator_d2(s, t) == pytest.approx(t ** (s - 2.0), rel=1e-14)

    def test_near_limit_orders_stable(self):
        # tiny and near-one orders keep full precision through expm1
        for s, reference in ((1e-9, 0.0), (1.0 - 1e-9, 1.0), (1.0 + 1e-9, 1.0)):
            value = power_generator(s, math.e)
            limit = power_generator(round(reference), math.e) if s != 1e-9 \
                else power_generator(0.0, math.e)
            assert rel(value, limit) <= 1e-7

    @pytest.mark.parametrize("t", [1.0 + 1e-8, 1.0 - 1e-8])
    def test_limit_orders_near_one(self, t):
        # the limit forms keep their digits where the value is O((t - 1)^2)
        with mp.workdps(50):
            x = mpf(t)
            phi_0, phi_1 = x - mp.log(x) - 1, x * mp.log(x) - x + 1
            d1_0 = 1 - 1 / x
            assert rel(power_generator(0.0, t), float(phi_0)) <= 1e-8
            assert rel(power_generator(1.0, t), float(phi_1)) <= 1e-8
            assert rel(power_generator_d1(0.0, t), float(d1_0)) <= 1e-15

    def test_order_zero_is_the_flat_order(self):
        rng = random.Random(25)
        for _ in range(2000):
            t = 10.0 ** rng.uniform(-300.0, 300.0)
            try:
                value = power_generator(0.0, t)
            except DomainError:
                with pytest.raises(DomainError):
                    power_generator(1e-300, t)
                continue
            assert value.hex() == power_generator(1e-300, t).hex(), t

    def test_domain(self):
        with pytest.raises(DomainError):
            power_generator(2.0, 0.0)
        with pytest.raises(DomainError):
            power_generator(2.0, -1.0)

    def test_residual_flags_non_mean_pair(self):
        pair = real_pair(lambda t: t ** 4, lambda t: t * t,
                         f2=lambda t: 12.0 * t * t, g2=lambda t: 2.0)
        assert mean_condition_residual(pair, [0.5, 1.0, 2.0]) > 1.0

    @pytest.mark.parametrize("pair, t", [
        (power_pair(4.0), 1e200),  # f'' = t^5 is past the float range
        # f'' = t^(s-1) is finite, next to the float maximum, and t g'' rounds past it
        (power_pair(3.686836154137499), 5.34279152655364e+114),
        (real_pair(lambda t: t, lambda t: t, f2=lambda t: 1e308, g2=lambda t: -1e308), 2.0),
    ])
    def test_residual_past_the_float_range_raises(self, pair, t):
        with pytest.raises(DomainError, match="exceeds the float range"):
            mean_condition_residual(pair, [t])

    @pytest.mark.parametrize("f2, g2", [
        (lambda t: math.inf, lambda t: math.inf),
        (lambda t: math.nan, lambda t: 2.0),
    ], ids=["inf-minus-inf", "nan-f-second"])
    def test_nan_residual_raises(self, f2, g2):
        pair = real_pair(lambda t: t ** 3 / 3.0, lambda t: t * t, f2=f2, g2=g2)
        with pytest.raises(DomainError, match=r"NaN at grid point 0\.5$"):
            mean_condition_residual(pair, [0.5, 2.0])

    def test_infinite_residual_is_returned(self):
        pair = real_pair(lambda t: t ** 3 / 3.0, lambda t: t * t,
                         f2=lambda t: math.inf, g2=lambda t: 2.0)
        assert mean_condition_residual(pair, [0.5, 2.0]) == math.inf

    def test_residual_accepts_power_pairs(self):
        grid = [0.1 + 0.2 * i for i in range(50)]
        for s in (-1.5, 0.0, 1.0, 2.5):
            pair = power_pair(s)
            # supplied derivatives: zero up to power-evaluation rounding
            assert mean_condition_residual(pair, grid) <= 1e-12
            # and via finite differences of the raw evaluators
            fd_pair = ConvexPair(f=pair.f, g=pair.g, interval=pair.interval)
            assert mean_condition_residual(fd_pair, [0.5, 1.0, 3.0, 8.0]) <= 1e-5


class TestPowerGap:
    def test_case_table_values(self):
        sample = WeightedSample((1.0, 3.0))
        assert power_gap(0.0, sample) == pytest.approx(CHI0_1_3, rel=1e-14)
        assert power_gap(2.0, sample) == pytest.approx(0.5, rel=1e-14)

    def test_degenerate_is_zero(self):
        assert power_gap(1.7, WeightedSample((4.0, 4.0))) == 0.0

    def test_positive_points_required(self):
        with pytest.raises(DomainError):
            power_gap(2.0, WeightedSample((-1.0, 2.0)))

    def test_gap_ratio_matches_family(self):
        sample = WeightedSample((1.0, 3.0))
        assert rel(power_gap_ratio(1.0, sample), LAMBDA1_1_3) <= 1e-12
        assert rel(power_gap(2.0, sample) / power_gap(1.0, sample),
                   LAMBDA1_1_3) <= 1e-12

    def test_gap_ratio_degenerate_rejected(self):
        with pytest.raises(DegenerateSampleError):
            power_gap_ratio(1.0, WeightedSample((2.0, 2.0)))

    def test_gap_ratio_monotone_in_order(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 8)
            sample = WeightedSample(
                [10.0 ** rng.uniform(-1, 1) for _ in range(n)],
                [rng.uniform(0.1, 1.0) for _ in range(n)],
            )
            orders = [-3.0 + 6.0 * i / 24 for i in range(25)]
            ratios = [power_gap_ratio(s, sample) for s in orders]
            for lo, hi in zip(ratios, ratios[1:]):
                assert hi >= lo * (1 - 1e-11)

    def test_two_point_ratio_equals_family(self):
        # the n-point kernel and the two-point profile are one kernel
        orders = [-50.0 + 2.5 * i for i in range(41)] + [-0.5, 0.5, 1.5, -400.0, 400.0]
        for k in range(-12, 7):
            for a in (1.0, 1e3):
                b = a * (1.0 + 10.0 ** k)
                sample = WeightedSample((a, b))
                for s in orders:
                    assert rel(power_gap_ratio(s, sample), lambda_mean(s, a, b).value) <= 1e-12

    def test_near_degenerate_samples(self):
        # only coincident points are degenerate; tiny spreads stay means
        rng = random.Random(17)
        orders = [-10.0 + 0.5 * i for i in range(41)]
        for n in (3, 8):
            for k in range(-12, -5):
                spread = 10.0 ** k
                points = [1.7 * (1.0 + spread * rng.random()) for _ in range(n - 2)]
                points += [1.7, 1.7 * (1.0 + spread)]
                sample = WeightedSample(points, [rng.uniform(0.05, 1.0) for _ in range(n)])
                ratios = [power_gap_ratio(s, sample) for s in orders]
                for value in ratios:
                    assert sample.min_point <= value <= sample.max_point
                for lo, hi in zip(ratios, ratios[1:]):
                    assert hi >= lo * (1 - 1e-15)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        s=st.floats(min_value=-4.0, max_value=5.0),
        raw=st.lists(st.floats(min_value=0.05, max_value=20.0), min_size=2, max_size=10),
        seed=st.integers(min_value=0, max_value=2 ** 31),
    )
    def test_gap_nonnegative(self, s, raw, seed):
        rng = random.Random(seed)
        weights = [rng.uniform(0.05, 1.0) for _ in raw]
        gap = power_gap(s, WeightedSample(raw, weights))
        assert gap >= 0.0


class TestLogConvexity:
    def test_usage_guard(self):
        sample = WeightedSample((1.0, 2.0))
        with pytest.raises(UsageError):
            log_convexity_holds(2.0, 1.0, 3.0, sample)

    def test_degenerate_passes(self):
        assert log_convexity_holds(0.0, 1.0, 2.0, WeightedSample((3.0, 3.0)))

    def test_random_sweep(self):
        rng = random.Random(123)
        for _ in range(10_000):
            n = rng.randint(2, 6)
            sample = WeightedSample(
                [10.0 ** rng.uniform(-1.5, 1.5) for _ in range(n)],
                [rng.uniform(0.05, 1.0) for _ in range(n)],
            )
            a = rng.uniform(-4.0, 3.0)
            b = a + rng.uniform(0.05, 2.0)
            c = b + rng.uniform(0.05, 2.0)
            assert log_convexity_holds(a, b, c, sample)

    def test_consecutive_orders_relation(self):
        # the (s, s+1, s+r+1) specialization: gap(s+1)^(r+1) <= gap(s)^r gap(s+r+1)
        sample = WeightedSample((0.5, 1.0, 4.0), (2.0, 1.0, 1.0))
        for s in (-1.5, 0.0, 0.7, 2.0):
            for r in (0.5, 1.0, 3.0):
                lhs = (r + 1.0) * math.log(power_gap(s + 1.0, sample))
                rhs = (r * math.log(power_gap(s, sample))
                       + math.log(power_gap(s + r + 1.0, sample)))
                assert lhs <= rhs + 1e-12 * max(abs(lhs), abs(rhs))

    def test_underflowing_log_gap_passes(self):
        # at orders near 1e150 the rest of the scaled sum, the weight 1e-300
        # of the largest point over s (s - 1), underflows, while its log does
        # not: the log gaps are finite, near s log 2, and the check compares
        # them (the gaps are log-convex in s)
        sample = WeightedSample((1.0, 2.0), (1.0, 1e-300))
        orders = (1e149, 5e149, 1e150)
        assert all(math.isfinite(_log_gap(s, sample, 1.0, 2.0)) for s in orders)
        assert log_convexity_holds(*orders, sample)

    @pytest.mark.parametrize("s, points, weights", [
        (1e149, (1.0, 2.0), (1.0, 1e-300)),    # the scaled sum's rest underflows
        (0.9, (1.0, 1e300), (1.0, 1e-300)),    # scaled with s (s - 1) < 0
        (2000.0, (1.0, 2.0), (1e-300, 1.0)),   # the gap itself overflows
        (-1e149, (1.0, 2.0), (1e-300, 1.0)),
    ])
    def test_log_gap_against_mpmath(self, s, points, weights):
        sample = WeightedSample(points, weights)
        with mp.workdps(1000):  # the gap cancels to about 1e-300 of its terms
            xs, ps = list(map(mpf, points)), list(map(mpf, sample.weights))
            ps = [p / sum(ps) for p in ps]
            center = sum(p * x for p, x in zip(ps, xs))
            gap = (sum(p * x ** s for p, x in zip(ps, xs)) - center ** s) / (s * (s - 1))
            reference = float(mp.log(gap))
        assert rel(_log_gap(s, sample, min(points), max(points)), reference) <= 1e-12


class TestMomentBounds:
    def test_two_point_hand_case(self):
        report = MomentReport.from_values([0.0, 1.0])
        bounds = cubic_moment_bounds(report)
        assert bounds.lower == pytest.approx(0.125, abs=1e-15)
        assert bounds.upper == pytest.approx(0.875, abs=1e-15)
        assert report.third_moment == pytest.approx(0.5, abs=1e-15)
        assert bounds.holds

    def test_constant_equality_case(self):
        c = 2.5
        report = MomentReport(c, c * c, c ** 3, 0.0, c, c)
        bounds = cubic_moment_bounds(report)
        assert bounds.lower == bounds.upper == pytest.approx(c ** 3, rel=1e-15)
        assert bounds.holds

    def test_invalid_variance_rejected(self):
        with pytest.raises(Exception):
            MomentReport(0.0, 1.0, 0.0, -1.0, -1.0, 1.0)

    @pytest.mark.parametrize("field", ["variance", "second_moment", "third_moment"])
    def test_nan_moments_rejected(self, field):
        fields = dict(mean=1.0, second_moment=2.0, third_moment=5.0, variance=1.0,
                      support_min=0.0, support_max=3.0)
        fields[field] = math.nan
        with pytest.raises(InvalidReportError):
            MomentReport(**fields)

    def test_cubed_mean_past_the_float_range_raises(self):
        report = MomentReport(1e103, 1e206, 1e300, 1.0, 0.0, 2e103)
        with pytest.raises(DomainError):
            cubic_moment_bounds(report)

    def test_unbounded_support_is_vacuous(self):
        report = MomentReport(0.0, 1.0, 0.3, 1.0, -math.inf, math.inf)
        bounds = cubic_moment_bounds(report)
        assert bounds.lower == -math.inf and bounds.upper == math.inf
        assert bounds.holds

    def test_empirical_reports_always_hold(self):
        rng = random.Random(77)
        for _ in range(200):
            n = rng.randint(2, 40)
            xs = [rng.gauss(0.0, 3.0) for _ in range(n)]
            ws = [rng.uniform(0.1, 1.0) for _ in range(n)]
            bounds = cubic_moment_bounds(MomentReport.from_values(xs, ws))
            assert bounds.holds

    def test_monte_carlo_uniform(self):
        import numpy as np

        rng = np.random.default_rng(0)
        draws = rng.uniform(0.0, 1.0, 100_000)
        report = MomentReport.from_values(draws.tolist())
        assert cubic_moment_bounds(report).holds


class TestKernelEdges:
    def test_power_pair_quotient_runs_through_kernel(self):
        # the generic f/g gaps cancel here (the difference route returned 12867)
        sample = WeightedSample((1e4, 38117.07, 66234.13))
        value = lambda_quotient(power_pair(-2.5), sample)
        reference = power_gap_ratio(-2.5, sample)
        assert abs(value - reference) <= 1e-12 * reference
        assert value == pytest.approx(19642.25, rel=1e-6)

    def test_gap_beyond_float_range_is_domain_error(self):
        sample = WeightedSample((1e3, 2e3))
        with pytest.raises(DomainError):
            power_gap(400.0, sample)

    def test_log_convexity_beyond_float_range(self):
        assert log_convexity_holds(398.0, 399.0, 400.0, WeightedSample((1e3, 2e3)))

    def test_points_spanning_the_float_range(self):
        sample = WeightedSample((1e-300, 1e300))
        for s in (-3.0, -1.0, 0.0, 0.5, 1.0, 3.0):
            assert 1e-300 <= power_gap_ratio(s, sample) <= 1e300
        # (x^-1 + y^-1)/2 - 1/c, halved: the 1e300 point dominates
        assert power_gap(-1.0, sample) == pytest.approx(2.5e299, rel=1e-12)

    @pytest.mark.parametrize("s", [1e151, -1e200, 1.7976931348623157e308])
    def test_orders_beyond_kernel_range_rejected(self, s):
        sample = WeightedSample((1.0, 2.0))
        for evaluate in (power_gap, power_gap_ratio):
            with pytest.raises(DomainError):
                evaluate(s, sample)
        with pytest.raises(DomainError):
            power_pair(s)

    @pytest.mark.parametrize("s", [1e150, -1e150])
    def test_largest_orders_in_range(self, s):
        sample = WeightedSample((1.0, 2.0, 4.0))
        assert 1.0 <= power_gap_ratio(s, sample) <= 4.0

    def test_large_orders_stay_in_range(self):
        # the scaled form rounded past [min, max], by 0.19 relative where x_i / c
        # was subnormal and its log was taken, and to inf at the float maximum
        top = sys.float_info.max
        assert power_gap_ratio(3.703342055554923e16, WeightedSample((1e300, top))) == top
        rng = random.Random(2333)
        for _ in range(3_000):
            s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(8.0, 150.0)
            points = [10.0 ** rng.uniform(-270.0, 300.0) for _ in range(rng.choice((2, 3, 8)))]
            if rng.random() < 0.1:
                points[0] = top
            assert min(points) <= power_gap_ratio(s, WeightedSample(points)) <= max(points)

    def test_huge_order_quotient_below_the_normal_range(self):
        # rest / k of the order-s sum underflowed to 0 (k = s (s - 1) ~ 6e167),
        # and the quotient divided by it
        s = 7.833459217477072e83
        sample = WeightedSample(
            (2.10185e-319, 4.5991222930595816e-177, 1.6237132888810297e-301, 1e150),
            (1.5962911294505217e-270, 1.0928128892954157e-134, 1.0, 1.8365177326645776e-165))
        assert power_gap_ratio(s, sample) == 1e150
        assert lambda_quotient(power_pair(s), sample) == 1e150

    def test_huge_order_scaled_sum_without_its_floor(self):
        # the scaled sum's floor exp(-s top) underflows to 0 while s d_i
        # overflows: each floor term was 0 * inf, and the ratio NaN
        s = -4.0019344992479747e136
        sample = WeightedSample(
            (6.787907253374943e-132, 3.124059651379103e-299, 1.738740285012892e-207,
             7.983056045734145e197),
            (2.7108896604150355e-222, 1.4955567958369748e-31, 2.090251128615319e-288,
             3.456203176112685e-266))
        # the least point's power dominates both gaps
        assert rel(power_gap_ratio(s, sample), 3.124059651379103e-299) <= 1e-12

    def test_subnormal_point_ratio_keeps_its_digits(self):
        # x / c is subnormal: log x - log c stands in for its log
        s, a, b = -360231164.6138454, 3.335452965943484e-142, 9.816813158250126e181
        value = power_gap_ratio(s, WeightedSample((a, b)))
        assert rel(value, float(lambda_mean_mp(s, a, b, dps=80))) <= 1e-12


class TestGeneratorRange:
    """The power generator and its derivatives raise DomainError where the
    order, the argument or the value leaves the float range."""

    @pytest.mark.parametrize("evaluate, s, t", [
        (power_generator, 2000.0, 2.0),
        (power_generator, 1e300, 2.0),
        (power_generator, 1.0, 1e308),
        (power_generator, -400.0, 1e-3),
        (power_generator_d1, 2000.0, 2.0),
        (power_generator_d1, 0.0, 5e-324),
        (power_generator_d1, math.nan, 2.0),
        (power_generator_d1, 0.5, math.nan),
        (power_generator_d2, 2000.0, 2.0),
        (power_generator_d2, 2.0, math.inf),
        (power_generator_d2, -10.0, 1e-300),
        (power_generator, math.inf, 2.0),
        (power_generator, 2.0, -math.inf),
    ])
    def test_out_of_range_is_domain_error(self, evaluate, s, t):
        with pytest.raises(DomainError):
            evaluate(s, t)

    @pytest.mark.parametrize("evaluate, s, t, bits", [
        (power_generator, 3.0, 2.0, "0x1.5555555555555p-1"),
        (power_generator, -2.5, 0.3, "0x1.0086e4ecf2d13p+1"),
        (power_generator, 0.7, 1e-300, "0x1.6db6db6db6db7p+0"),
        (power_generator, 1.0, 5.0, "0x1.0305275e8f080p+2"),
        (power_generator, 1e-9, 2.0, "0x1.3a37a021ddc8bp-2"),
        (power_generator, 0.0, 2.0, "0x1.3a37a020b8c22p-2"),  # 1 - ln 2, correctly rounded
        (power_generator_d1, 2.5, 3.0, "0x1.661259302f755p+1"),
        (power_generator_d1, -3.0, 1e-5, "-0x1.5af1d78b58c45p+64"),
        (power_generator_d1, 0.0, 2.0, "0x1.0000000000000p-1"),
        (power_generator_d2, 0.5, 7.0, "0x1.ba539079b6475p-5"),
    ])
    def test_in_range_values_unchanged(self, evaluate, s, t, bits):
        assert evaluate(s, t).hex() == bits

    @pytest.mark.parametrize("s", [-2.0, -0.5, -1e-300, 0.0, 1e-300, 0.3, 0.5, 0.7,
                                   1.0, 3.0, 1e8])
    def test_zero_at_one_is_positive(self, s):
        # +0.0 at every order, whichever closed form evaluates it
        assert math.copysign(1.0, power_generator(s, 1.0)) == 1.0

    def test_largest_finite_values_returned(self):
        assert power_generator(300.0, 10.0) == pytest.approx(1e300 / 89700.0, rel=1e-12)
        assert power_generator_d2(2.0, math.nextafter(0.0, 1.0)) == 1.0


# The power family's error contract over arbitrary (s, t): a finite float or
# a MeansError, never a bare OverflowError, ValueError or ZeroDivisionError
# and never NaN.  The settings and edge floats are those of the CLI contract
# fuzz.
EDGE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, math.nan, math.inf, -math.inf,
               1e300, -1e300, 1e-300, -1e-300, 5e-324, 1.7976931348623157e308,
               1e150, 1e200, -1e8, 0.999999]
NUMBERS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
FUZZ = settings(max_examples=150, deadline=None, database=None,
                suppress_health_check=[HealthCheck.too_slow])


def check_power_contract(s, t):
    def evaluations():
        yield power_generator, (s, t)
        yield power_generator_d1, (s, t)
        yield power_generator_d2, (s, t)
        try:
            pair = power_pair(s)
        except MeansError:
            return
        yield pair.f, (t,)
        yield pair.g, (t,)
        yield mean_condition_residual, (pair, [t])

    for evaluate, args in evaluations():
        try:
            value = evaluate(*args)
        except MeansError:
            continue
        assert isinstance(value, float) and math.isfinite(value), (evaluate, s, t, value)


class TestPowerFamilyContract:
    def test_edge_floats(self):
        for s in EDGE_FLOATS:
            for t in EDGE_FLOATS:
                check_power_contract(s, t)

    def test_seeded_values(self):
        rng = random.Random(2025)
        for _ in range(3000):
            s = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-320.0, 160.0)
            check_power_contract(s, 10.0 ** rng.uniform(-320.0, 308.2))

    @FUZZ
    @given(NUMBERS, NUMBERS)
    def test_arbitrary_floats(self, s, t):
        check_power_contract(s, t)


class TestMomentReportRange:
    @pytest.mark.parametrize("values", [(1.0, math.inf), (math.nan, 2.0), (1e200, 2e200),
                                        (-1e200, 1e200), (1e308, 1.7e308)])
    def test_out_of_range_samples_rejected(self, values):
        with pytest.raises(DomainError):
            MomentReport.from_values(values)

    # the last pair's 1e-30 / 1e300 underflows to 0 once normalized
    @pytest.mark.parametrize("weights", [(1.0, math.inf), (1.0, math.nan), (1e308, 1e308),
                                         (1e300, 1e-30)])
    def test_out_of_range_weights_rejected(self, weights):
        with pytest.raises(DomainError):
            MomentReport.from_values((1.0, 2.0), weights)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError, match="empty sample"):
            MomentReport.from_values([])

    @pytest.mark.parametrize("mean", [-0.5, 1.5, math.nan])
    def test_mean_outside_the_support_rejected(self, mean):
        with pytest.raises(InvalidReportError, match="outside support"):
            MomentReport(mean, 1.0, 1.0, 0.25, 0.0, 1.0)


# A valid report's fields, and the three ways a report can be invalid.
VALID_REPORT = dict(mean=0.5, second_moment=0.5, third_moment=0.5, variance=0.25,
                    support_min=0.0, support_max=1.0)
INVALID_REPORTS = {
    "negative variance": dict(variance=-0.25),
    "NaN moment": dict(third_moment=math.nan),
    "mean outside the support": dict(mean=1.5),
}
CONSTRUCTORS = {
    "positional": lambda fields: MomentReport(*fields.values()),
    "keyword": lambda fields: MomentReport(**fields),
    "_make": lambda fields: MomentReport._make(fields.values()),
    "_replace": lambda fields: MomentReport(**VALID_REPORT)._replace(**fields),
}


class TestMomentReportRecord:
    @pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=list(CONSTRUCTORS))
    @pytest.mark.parametrize("change", INVALID_REPORTS.values(), ids=list(INVALID_REPORTS))
    def test_every_constructor_validates(self, build, change):
        assert build(VALID_REPORT) == tuple(VALID_REPORT.values())
        with pytest.raises(InvalidReportError):
            build({**VALID_REPORT, **change})

    @pytest.mark.parametrize("seed, lo, hi, draws, expected", [
        (20000, -1.5, 3.25, 20_000,
         ("0x1.beee0dfced855p-1", "0x1.5320f9da6fd97p+1", "0x1.664594833ca48p+2",
          "0x1.e3315e2e0c087p+0", "-0x1.7fff2e6012503p+0", "0x1.9ff7dadf9c124p+1")),
        (1000000, 0.0, 1.0, 10**6,
         ("0x1.ffb4bb5355633p-2", "0x1.550384f9bf1e7p-2", "0x1.ff6333de8fe47p-3",
          "0x1.553b10785754ep-4", "0x1.4c3d41f000000p-22", "0x1.ffff88dde75f4p-1")),
    ], ids=["20000 draws", "10^6 draws"])
    def test_from_values_bits(self, seed, lo, hi, draws, expected):
        # recorded from the dataclass report this record replaced
        report = MomentReport.from_values(_pcg64.uniform(seed, lo, hi, draws))
        assert tuple(map(float.hex, report)) == expected
