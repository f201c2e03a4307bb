import math

import pytest
from hypothesis import given, settings, strategies as st

from jensenmeans import (
    MEAN_CHAIN,
    DomainError,
    PositivePair,
    UsageError,
    arithmetic,
    geometric,
    gini,
    harmonic,
    identric,
    logarithmic,
    mean_value,
    ratio_to_a,
    symmetric_coordinate,
)
from jensenmeans.classical import _profile_row

# independent references, mpmath at 50 digits
IDENTRIC_1_E = 1.789572396841833451057
IDENTRIC_1_2 = 1.471517764685769286382   # 4/e
GINI_1_2 = 1.587401051968199474752       # 2^(2/3)
LOGMEAN_1_2 = 1.44269504088896340736     # 1/log 2


def rel(x, y):
    return abs(x - y) / max(abs(x), abs(y))


class TestPointValues:
    def test_harmonic(self):
        assert harmonic(1, 1) == 1
        assert harmonic(1, 4) == pytest.approx(1.6, rel=1e-15)
        assert harmonic(2, 6) == pytest.approx(3.0, rel=1e-15)

    def test_geometric(self):
        assert geometric(1, 4) == pytest.approx(2.0, rel=1e-15)
        assert geometric(3, 3) == 3
        assert geometric(2, 8) == pytest.approx(4.0, rel=1e-15)

    def test_logarithmic(self):
        assert logarithmic(5, 5) == 5
        assert logarithmic(1, math.e) == pytest.approx(math.e - 1, rel=1e-14)
        assert logarithmic(1, 2) == pytest.approx(LOGMEAN_1_2, rel=1e-14)

    def test_identric(self):
        assert identric(7, 7) == 7
        assert identric(1, math.e) == pytest.approx(IDENTRIC_1_E, rel=1e-14)
        assert identric(1, 2) == pytest.approx(IDENTRIC_1_2, rel=1e-14)
        assert identric(1, 2) == pytest.approx(4 / math.e, rel=1e-14)

    def test_arithmetic(self):
        assert arithmetic(2, 4) == 3
        assert arithmetic(1, 1) == 1
        assert arithmetic(1, 9) == 5

    def test_gini(self):
        assert gini(1, 1) == 1
        assert gini(2, 2) == 2
        assert gini(1, 2) == pytest.approx(GINI_1_2, rel=1e-14)


class TestDomain:
    @pytest.mark.parametrize("fn", [harmonic, geometric, logarithmic, identric,
                                    arithmetic, gini])
    @pytest.mark.parametrize("bad", [(0, 1), (-1, 2), (1, 0), (1, -3),
                                     (math.nan, 1), (1, math.inf)])
    def test_nonpositive_rejected(self, fn, bad):
        with pytest.raises(DomainError):
            fn(*bad)

    def test_unknown_mean_identifier(self):
        with pytest.raises(UsageError):
            mean_value("Q", 1, 2)
        with pytest.raises(UsageError):
            ratio_to_a("power", 0.5)

    @pytest.mark.parametrize("t", [-0.1, 1.0, 1.5, math.nan])
    def test_ratio_coordinate_domain(self, t):
        with pytest.raises(DomainError):
            ratio_to_a("H", t)

    def test_positive_pair_validation(self):
        with pytest.raises(DomainError):
            PositivePair(0.0, 1.0)
        pair = PositivePair(4.0, 1.0)
        assert pair.canonical() == PositivePair(1.0, 4.0)
        assert pair.t == pytest.approx(0.6)
        assert pair.scale == 2.5


class TestRatios:
    def test_ratio_limits_at_zero(self):
        for kind in MEAN_CHAIN:
            assert ratio_to_a(kind, 0.0) == 1.0

    def test_ratio_known_values(self):
        assert ratio_to_a("H", 0.6) == pytest.approx(0.64, rel=1e-15)
        assert ratio_to_a("G", 0.6) == pytest.approx(0.8, rel=1e-15)
        assert ratio_to_a("A", 0.6) == 1.0

    @pytest.mark.parametrize("kind", ["H", "G", "L", "I", "S"])
    def test_ratio_consistent_with_means(self, kind):
        # ratio(kind, t) * A(a, b) equals the mean itself for the pair
        # (1-t, 1+t), whose coordinate is exactly t
        for t in [1e-6, 1e-5, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6]:
            a, b = 1.0 - t, 1.0 + t
            direct = mean_value(kind, a, b)
            via_ratio = ratio_to_a(kind, t) * arithmetic(a, b)
            assert rel(direct, via_ratio) <= 1e-12

    @pytest.mark.parametrize("kind", ["H", "G", "L", "I", "S"])
    def test_ratio_consistent_with_means_scaled(self, kind):
        # same consistency through a recomputed coordinate; near t = 1 the
        # rounded coordinate itself limits agreement, so stay below 0.95
        for t_seed in [1e-6, 1e-3, 0.1, 0.5, 0.9]:
            pair = PositivePair.from_symmetric(t_seed, scale=3.7)
            t = symmetric_coordinate(pair.a, pair.b)
            direct = mean_value(kind, pair.a, pair.b)
            via_ratio = ratio_to_a(kind, t) * arithmetic(pair.a, pair.b)
            assert rel(direct, via_ratio) <= 1e-12

    def test_safe_branch_matches_naive_formulas(self):
        # naive textbook formulas, valid once t is not too small
        for t in [1e-4, 1e-3, 0.01, 0.2, 0.7]:
            a, b = 1.0 - t, 1.0 + t
            naive_l = (b - a) / (math.log(b) - math.log(a))
            naive_i = (b ** b / a ** a) ** (1.0 / (b - a)) / math.e
            assert rel(logarithmic(a, b), naive_l) <= 1e-9
            assert rel(identric(a, b), naive_i) <= 1e-9


POSITIVE_T = st.floats(min_value=1e-12, max_value=1.0 - 1e-12)
SCALE_EXP = st.floats(min_value=-6.0, max_value=6.0)


class TestInvariants:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(t=POSITIVE_T, exp=SCALE_EXP)
    def test_chain_ordering(self, t, exp):
        pair = PositivePair.from_symmetric(t, scale=10.0 ** exp)
        a, b = pair.a, pair.b
        values = [mean_value(kind, a, b) for kind in MEAN_CHAIN]
        lo, hi = min(a, b), max(a, b)
        chain = [lo] + values + [hi]
        for left, right in zip(chain, chain[1:]):
            assert left <= right * (1 + 1e-12)
        if t > 1e-4:  # gaps resolvable in doubles: strict
            for left, right in zip(chain, chain[1:]):
                assert left < right

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(t=POSITIVE_T, exp=SCALE_EXP, k_exp=st.floats(min_value=-100, max_value=100))
    def test_symmetry_and_homogeneity(self, t, exp, k_exp):
        pair = PositivePair.from_symmetric(t, scale=10.0 ** exp)
        a, b = pair.a, pair.b
        k = 10.0 ** k_exp
        for kind in MEAN_CHAIN:
            m = mean_value(kind, a, b)
            assert rel(m, mean_value(kind, b, a)) <= 1e-13
            assert rel(mean_value(kind, k * a, k * b), k * m) <= 1e-12

    def test_extreme_magnitudes_no_overflow(self):
        for a, b in [(1e300, 1e300), (1e-300, 1e300), (1e300, 2e299),
                     (1e-300, 3e-300), (1.0, 1e12), (9e307, 1.6e308)]:
            for kind in MEAN_CHAIN:
                value = mean_value(kind, a, b)
                assert math.isfinite(value)
                assert min(a, b) * (1 - 1e-12) <= value <= max(a, b) * (1 + 1e-12)

    def test_symmetric_coordinate_roundtrip(self):
        assert symmetric_coordinate(3.0, 3.0) == 0.0
        assert symmetric_coordinate(1.0, 4.0) == pytest.approx(0.6)
        assert symmetric_coordinate(1e-300, 1e300) < 1.0  # clamped inside [0, 1)


class TestExtremeArguments:
    def test_harmonic_at_the_float_range_edges(self):
        top = 1.7976931348623157e308
        assert harmonic(top, top) == top
        assert harmonic(5e-324, top) == 1e-323  # 2ab/(a+b) ~ 2a
        assert harmonic(1e-310, 3e-310) == pytest.approx(1.5e-310, rel=1e-9)

    def test_chain_holds_across_the_float_range(self):
        for a, b in ((5e-324, 1.7976931348623157e308), (1e-300, 1e300), (1e307, 1.7e308)):
            values = [mean_value(kind, a, b) for kind in MEAN_CHAIN]
            assert min(a, b) <= values[0] and values[-1] <= max(a, b)
            assert values == sorted(values)


class TestProfileRow:
    """The row of a mean's profile equals scalar ratio_to_a bit for bit."""

    # t = 0, both series cut-offs (1e-6 and 0.25) one ulp either side, and
    # the largest coordinate below 1
    EDGES = tuple(
        [0.0, -0.0, 1e-300, 1.0 - 2.0 ** -52, 0.5, 0.9]
        + [x for cut in (1e-6, 0.25)
           for x in (math.nextafter(cut, 0.0), cut, math.nextafter(cut, 1.0))])

    @staticmethod
    def bits(values):
        return [float(v).hex() for v in values]

    @pytest.mark.parametrize("kind", MEAN_CHAIN)
    def test_row_equals_scalar_bit_for_bit(self, kind):
        ts = list(self.EDGES) + [i / 997.0 for i in range(997)]
        assert self.bits(_profile_row(kind, ts)) == self.bits(ratio_to_a(kind, t) for t in ts)
        assert self.bits(_profile_row(kind.value.lower(), ts[:3])) == self.bits(
            ratio_to_a(kind, t) for t in ts[:3])

    def test_errors_match_the_scalar_path(self):
        for ts in ([0.5, 1.0, -0.1], [math.nan], [math.inf, 0.5]):
            with pytest.raises(DomainError) as row_error:
                _profile_row("L", ts)
            with pytest.raises(DomainError) as scalar_error:
                [ratio_to_a("L", t) for t in ts]
            assert str(row_error.value) == str(scalar_error.value)
        with pytest.raises(UsageError):
            _profile_row("Q", [0.5])
        assert _profile_row("S", []) == []
