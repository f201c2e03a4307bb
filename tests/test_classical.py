import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from jensenmeans import (
    MEAN_CHAIN,
    DomainError,
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
from jensenmeans import classical
from jensenmeans.classical import Mean, _profile_row
from jensenmeans.inequalities import limit_ratio_at_t1, solve_threshold

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
            a, b = 3.7 * (1.0 - t_seed), 3.7 * (1.0 + t_seed)
            t = symmetric_coordinate(a, b)
            direct = mean_value(kind, a, b)
            via_ratio = ratio_to_a(kind, t) * arithmetic(a, b)
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
        scale = 10.0 ** exp
        a, b = scale * (1.0 - t), scale * (1.0 + t)
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
        scale = 10.0 ** exp
        a, b = scale * (1.0 - t), scale * (1.0 + t)
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

    @staticmethod
    def near_equal_pairs(seed, count):
        """Pairs 1 to 4 ulps apart and pairs with relative spread 1e-16..1e-8,
        at magnitudes 1e-300..1e300, in both argument orders."""
        rng = random.Random(seed)
        for _ in range(count):
            a = 10.0 ** rng.uniform(-300.0, 300.0)
            if rng.random() < 0.5:
                b = a
                for _ in range(rng.randint(1, 4)):
                    b = math.nextafter(b, math.inf)
            else:
                b = a * (1.0 + 10.0 ** rng.uniform(-16.0, -8.0))
            yield (a, b) if rng.random() < 0.5 else (b, a)

    @pytest.mark.parametrize("kind", MEAN_CHAIN)
    def test_near_equal_pairs_stay_inside_their_range(self, kind):
        for a, b in self.near_equal_pairs(31, 20000):
            assert min(a, b) <= mean_value(kind, a, b) <= max(a, b), (a, b)

    def test_adjacent_floats(self):
        a = 3.232164473459875e-114
        b = math.nextafter(a, 0.0)
        for kind in MEAN_CHAIN:
            assert b <= mean_value(kind, a, b) <= a
            assert b <= mean_value(kind, b, a) <= a

    def test_int_pairs_summing_past_the_float_range(self):
        a, b = 10 ** 308, 17 * 10 ** 307
        assert arithmetic(a, b) == 0.5 * 1e308 + 0.5 * 1.7e308
        for kind in MEAN_CHAIN:
            assert 1e308 <= mean_value(kind, a, b) <= 1.7e308, kind

    @staticmethod
    def subnormal_pairs(seed, count):
        """Pairs in [5e-324, 1e-300]: a third of the arguments a few units of
        the least subnormal, the rest log-uniform."""
        rng = random.Random(seed)

        def draw():
            if rng.random() < 1.0 / 3.0:
                return rng.randint(1, 64) * 5e-324
            return 10.0 ** rng.uniform(-323.3, -300.0)

        return [(draw(), draw()) for _ in range(count)]

    @pytest.mark.parametrize("kind", MEAN_CHAIN)
    def test_subnormal_pairs_stay_inside_their_range(self, kind):
        for a, b in self.subnormal_pairs(53, 20000):
            assert min(a, b) <= mean_value(kind, a, b) <= max(a, b), (a, b)

    def test_means_of_subnormals(self):
        # the halves of odd multiples of the least subnormal round; the means
        # are taken from whole arguments there
        unit = 5e-324
        assert arithmetic(unit, unit) == unit
        assert arithmetic(3 * unit, 3 * unit) == 3 * unit
        assert arithmetic(unit, 5 * unit) == 3 * unit
        assert identric(unit, 5 * unit) == 3 * unit  # 5^(5/4) / e = 2.75 units
        assert gini(unit, 3 * unit) == 2 * unit  # 3^(3/4) = 2.28 units
        assert gini(unit, 5 * unit) == 4 * unit  # 5^(5/6) = 3.82 units
        assert symmetric_coordinate(unit, unit) == 0.0
        assert symmetric_coordinate(unit, 3 * unit) == 0.5

    def test_symmetric_coordinate_is_scale_free_bit_for_bit(self):
        pairs = self.subnormal_pairs(59, 5000) + [
            (2.0 ** -1021 * (1.0 + k / 7.0), 2.0 ** -1020 * (1.0 + k / 11.0)) for k in range(7)]
        for a, b in pairs:
            scaled = symmetric_coordinate(math.ldexp(a, 200), math.ldexp(b, 200))
            assert symmetric_coordinate(a, b) == scaled, (a, b)

    def test_normal_halves_keep_their_bits(self):
        rng = random.Random(61)
        for _ in range(5000):
            a = 2.0 ** rng.uniform(-1021.0, -1017.0)
            b = a * (1.0 + 10.0 ** rng.uniform(-16.0, 1.0))
            assert arithmetic(a, b) == 0.5 * a + 0.5 * b, (a, b)
            assert identric(a, b) == (0.5 * a + 0.5 * b) * ratio_to_a(
                "I", abs(0.5 * b - 0.5 * a) / (0.5 * a + 0.5 * b)), (a, b)

    def test_gini_within_four_ulps_of_the_oracle(self):
        from mpmath import mp, mpf

        pairs = list(self.near_equal_pairs(47, 150)) + [
            (1e285, 1e285 * (1.0 + 4e-15)), (3e200, 3e200 * (1.0 + 4e-15)),
            (1e285, 1e285 * (1.0 + 1e-10)), (1e-300, 1e300), (2.0, 7.5), (1e-8, 1e8)]
        with mp.workdps(60):
            for a, b in pairs:
                ma, mb = mpf(a), mpf(b)
                exact = mp.exp((ma * mp.log(ma) + mb * mp.log(mb)) / (ma + mb))
                assert abs(mpf(gini(a, b)) - exact) <= 4 * math.ulp(float(exact)), (a, b)


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


# letter -> member and named function, written out independently of the module
LETTERS = {
    "H": (Mean.HARMONIC, harmonic),
    "G": (Mean.GEOMETRIC, geometric),
    "L": (Mean.LOGARITHMIC, logarithmic),
    "I": (Mean.IDENTRIC, identric),
    "A": (Mean.ARITHMETIC, arithmetic),
    "S": (Mean.GINI, gini),
}
BAD_TOKENS = ["X", "HARMONIC", "harmonic", "", "H G", 1, math.nan, None, b"H",
              [], {}, ["H"], ("H",)]


def _token_callers():
    """Every entry point that takes a mean's name, as token -> call."""
    return {
        "parse": Mean.parse,
        "mean_value": lambda k: mean_value(k, 1.0, 2.0),
        "ratio_to_a": lambda k: ratio_to_a(k, 0.5),
        "_profile_row": lambda k: _profile_row(k, [0.5]),
        "solve_threshold": lambda k: solve_threshold(k, "upper"),
        "limit_ratio_at_t1": lambda k: limit_ratio_at_t1(3.0, k),
    }


class TestMeanTokens:
    """Mean.parse and its callers accept a member, or its letter in either
    case with surrounding whitespace, and refuse everything else with
    UsageError."""

    @pytest.mark.parametrize("letter", sorted(LETTERS))
    def test_accepted_tokens(self, letter):
        member = LETTERS[letter][0]
        for token in (member, letter, letter.lower(), f"  {letter}\t",
                      f"\n{letter.lower()} "):
            assert Mean.parse(token) is member

    @pytest.mark.parametrize("caller", sorted(_token_callers()))
    @pytest.mark.parametrize("token", BAD_TOKENS, ids=repr)
    def test_rejected_tokens_raise_usage_error(self, caller, token):
        with pytest.raises(UsageError) as info:
            _token_callers()[caller](token)
        assert not isinstance(info.value, (KeyError, TypeError))

    @pytest.mark.parametrize("token", ["X", [], None])
    def test_name_is_checked_before_arguments(self, token):
        with pytest.raises(UsageError):
            mean_value(token, -1.0, math.nan)
        with pytest.raises(UsageError):
            ratio_to_a(token, 2.0)
        with pytest.raises(UsageError):
            limit_ratio_at_t1(0.5, token)

    @staticmethod
    def pairs():
        """Seeded pairs: equal arguments, 1e-300, 1e285 and ratios
        b/a - 1 log-uniform over [1e-10, 1e12], in both orders."""
        rng = random.Random(1515)
        out = [(1.0, 1.0), (1e-300, 1e-300), (1e285, 1e285), (3.7, 3.7)]
        for scale in (1e-300, 1.0, 1e285):
            for exponent in (-10.0, -6.0, 0.0, 6.0, 12.0):
                out.append((scale, scale * (1.0 + 10.0 ** exponent)))
        for _ in range(200):
            a = 10.0 ** rng.uniform(-300.0, 285.0)
            out.append((a, a * (1.0 + 10.0 ** rng.uniform(-10.0, 12.0))))
        return out + [(b, a) for a, b in out]

    def test_mean_value_is_the_named_function_for_every_token(self):
        for letter, (member, fn) in LETTERS.items():
            for a, b in self.pairs():
                want = fn(a, b)
                got = [mean_value(k, a, b) for k in (letter, letter.lower(), member)]
                assert all(v == want for v in got), (letter, a, b, got, want)

    def test_ratio_to_a_is_the_profile_for_every_token(self):
        ts = [symmetric_coordinate(a, b) for a, b in self.pairs()]
        for letter, (member, _) in LETTERS.items():
            profile = classical._RATIO_TABLE[member]
            for t in ts:
                want = profile(t)
                got = [ratio_to_a(k, t) for k in (letter, letter.lower(), member)]
                assert all(v == want for v in got), (letter, t, got, want)

    def test_members_and_letters_do_not_parse(self, monkeypatch):
        def refuse(token):
            raise AssertionError(f"Mean.parse called for {token!r}")

        monkeypatch.setattr(Mean, "parse", staticmethod(refuse))
        for letter, (member, fn) in LETTERS.items():
            for token in (letter, member):
                assert mean_value(token, 1.5, 2.5) == fn(1.5, 2.5)
                assert ratio_to_a(token, 0.25) == classical._RATIO_TABLE[member](0.25)

    def test_a_miss_reaches_parse(self, monkeypatch):
        seen = []
        real = Mean.parse

        def recording(token):
            seen.append(token)
            return real(token)

        monkeypatch.setattr(Mean, "parse", staticmethod(recording))
        assert mean_value("g", 1.0, 4.0) == geometric(1.0, 4.0)
        assert ratio_to_a(" L ", 0.5) == ratio_to_a("L", 0.5)
        with pytest.raises(UsageError):
            mean_value([], 1.0, 2.0)
        assert seen == ["g", " L ", []]

    def test_errors_inside_a_mean_are_not_taken_for_a_bad_name(self, monkeypatch):
        calls = []

        def broken(*args):
            calls.append("mean")
            raise KeyError("inside the mean")

        def unhashable(*args):
            calls.append("profile")
            raise TypeError("inside the profile")

        monkeypatch.setitem(classical._MEAN_TABLE, Mean.HARMONIC, broken)
        monkeypatch.setitem(classical._RATIO_TABLE, Mean.GINI, unhashable)
        with pytest.raises(KeyError, match="inside the mean"):
            mean_value("H", 1.0, 2.0)
        with pytest.raises(TypeError, match="inside the profile"):
            ratio_to_a(Mean.GINI, 0.5)
        assert calls == ["mean", "profile"]  # each called once, not retried
