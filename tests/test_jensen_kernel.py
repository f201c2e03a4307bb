"""The n-point kernel: recorded outputs, the order of its errors, and the
power-pair quotient against the gap ratio."""

import hashlib
import math
import random
from functools import partial

import pytest
from hypothesis import assume, given, settings, strategies as st

from jensenmeans import (
    ConvexPair,
    DegenerateSampleError,
    DomainError,
    UsageError,
    WeightedSample,
    lambda_quotient,
    log_convexity_holds,
    power_gap,
    power_gap_ratio,
    power_generator,
    power_pair,
)

# Orders next to the limit orders, moderate, large and at the kernel's limit.
ORDERS = (-1e8, -1e3, -40.0, -2.5, -1.0, -1.0 + 1e-9, -0.5, 0.0, 1e-250, 1e-9, 0.3,
          0.5, 1.0 - 1e-9, 1.0, 2.0, 3.7, 40.0, 1e3, 1e8, 1e150)
TRIPLES = ((-2.5, 0.0, 3.7), (0.0, 1e-9, 1.0), (-40.0, 0.5, 40.0), (1.0, 2.0, 1e3),
           (-1e3, -1.0, 1e8), (-1e8, 3.7, 1e150))
# Spreads (max - min)/min: moment series, both sides of the series switch,
# the closed form, points below half the centre, and the scaled form.
SPREADS = (0.0, 5e-14, 1e-9, 3e-6, 4e-4, 2e-3, 0.05, 0.7, 6.0, 200.0)


def golden_samples() -> list[WeightedSample]:
    rng = random.Random(20170)
    samples = []
    for n in (2, 3, 8, 64):
        for spread in SPREADS:
            for weighted in (False, True):
                low = 10.0 ** rng.uniform(-5.0, 5.0)
                offsets = [0.0, 1.0] + [rng.random() for _ in range(n - 2)]
                rng.shuffle(offsets)
                weights = [rng.uniform(0.05, 1.0) for _ in range(n)] if weighted else None
                samples.append(WeightedSample([low * (1.0 + spread * u) for u in offsets], weights))
    # x_i / c below the float range: the log fallback log x_i - log c
    samples.append(WeightedSample((1e-300, 1e300)))
    samples.append(WeightedSample((1e-300, 2e-300, 1e300), (1.0, 2.0, 3.0)))
    samples.append(WeightedSample((5e-324, 1e-200, 1e308), (1.0, 1.0, 1e-3)))
    return samples


def outcome(fn, *args) -> str:
    try:
        return repr(fn(*args))
    except Exception as exc:  # recorded with its class and message
        return f"{type(exc).__name__}: {exc}"


def golden_lines() -> list[str]:
    lines = []
    for i, sample in enumerate(golden_samples()):
        for s in ORDERS:
            lines.append(f"{i} {s!r} ratio {outcome(power_gap_ratio, s, sample)}")
            lines.append(f"{i} {s!r} quotient {outcome(lambda_quotient, power_pair(s), sample)}")
            lines.append(f"{i} {s!r} gap {outcome(power_gap, s, sample)}")
        for triple in TRIPLES:
            lines.append(f"{i} {triple!r} logconvex {outcome(log_convexity_holds, *triple, sample)}")
    return lines


# sha256 of golden_lines(), one line per call joined by newlines
GOLDEN = "1208e788b7e6fbac45a98fb0cbc2472be9b0eb1ee8fd1e7d69292d2e859241bb"


def test_golden_digest():
    lines = golden_lines()
    assert len(lines) == 83 * 66
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN


BAD_ORDER = "order parameter must be a finite real of magnitude <= 1e+150, got 1e+200"
NOT_POSITIVE = "this operation needs strictly positive sample points"


class TestErrorPrecedence:
    """Each check fires before the next, with the class and message it had
    when every check scanned the sample on its own."""

    def test_gap_ratio(self):
        with pytest.raises(DomainError) as err:  # order before sign and degeneracy
            power_gap_ratio(1e200, WeightedSample((-1.0, -1.0)))
        assert str(err.value) == BAD_ORDER
        with pytest.raises(DomainError) as err:  # sign before degeneracy
            power_gap_ratio(0.5, WeightedSample((-1.0, -1.0)))
        assert str(err.value) == NOT_POSITIVE
        with pytest.raises(DomainError) as err:
            power_gap_ratio(0.5, WeightedSample((0.0, 2.0)))
        assert str(err.value) == NOT_POSITIVE
        with pytest.raises(DegenerateSampleError) as err:
            power_gap_ratio(0.5, WeightedSample((3.0, 3.0, 3.0)))
        assert str(err.value) == "gap ratio is 0/0 when all points coincide"
        # a relative spread of 1e-15 is not degenerate for the gap ratio
        assert 1.0 <= power_gap_ratio(0.5, WeightedSample((1.0, 1.0 + 1e-15))) <= 1.0 + 1e-15

    def test_quotient(self):
        with pytest.raises(DegenerateSampleError) as err:  # degeneracy before the hull
            lambda_quotient(power_pair(0.5), WeightedSample((-1.0, -1.0)))
        assert str(err.value) == "all sample points coincide; the quotient is 0/0"
        with pytest.raises(DegenerateSampleError):  # within 1e-13 of each other
            lambda_quotient(power_pair(0.5), WeightedSample((1.0, 1.0 + 1e-14)))
        with pytest.raises(DomainError) as err:
            lambda_quotient(power_pair(0.5), WeightedSample((-1.0, 2.0)))
        assert str(err.value) == "sample hull [-1.0, 2.0] leaves the pair's interval (0.0, inf)"
        with pytest.raises(DomainError) as err:
            power_pair(1e200)
        assert str(err.value) == BAD_ORDER

    def test_quotient_of_altered_power_pairs(self):
        # a power pair with a widened interval or an out-of-range order still
        # meets the gap ratio's own checks, in the gap ratio's order
        wide = power_pair(0.5)._replace(interval=(-math.inf, math.inf))
        with pytest.raises(DomainError) as err:
            lambda_quotient(wide, WeightedSample((-1.0, 2.0)))
        assert str(err.value) == NOT_POSITIVE
        huge = ConvexPair(partial(power_generator, 1e200 + 1.0), partial(power_generator, 1e200))
        with pytest.raises(DomainError) as err:
            lambda_quotient(huge, WeightedSample((1.0, 2.0)))
        assert str(err.value) == BAD_ORDER

    def test_gap(self):
        with pytest.raises(DomainError) as err:
            power_gap(1e200, WeightedSample((-1.0, -1.0)))
        assert str(err.value) == BAD_ORDER
        with pytest.raises(DomainError) as err:
            power_gap(0.5, WeightedSample((-1.0, -1.0)))
        assert str(err.value) == NOT_POSITIVE
        assert power_gap(0.5, WeightedSample((3.0, 3.0))) == 0.0

    def test_log_convexity(self):
        negative = WeightedSample((-1.0, -1.0))
        with pytest.raises(UsageError) as err:  # the orders' arrangement first
            log_convexity_holds(1.0, 0.0, 1e200, negative)
        assert str(err.value) == "orders must be strictly increasing, got 1.0, 0.0, 1e+200"
        with pytest.raises(DomainError) as err:
            log_convexity_holds(0.0, 1.0, 1e200, negative)
        assert str(err.value) == BAD_ORDER
        with pytest.raises(DomainError) as err:
            log_convexity_holds(0.0, 1.0, 2.0, negative)
        assert str(err.value) == NOT_POSITIVE
        assert log_convexity_holds(0.0, 1.0, 2.0, WeightedSample((3.0, 3.0)))


positive_points = st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=2, max_size=12)


@settings(max_examples=300, deadline=None)
@given(s=st.floats(min_value=-50.0, max_value=50.0) | st.sampled_from([-1.0, 0.0, 1.0, 2.0, 1e3]),
       points=positive_points, spread=st.sampled_from([1e-9, 1e-5, 1e-2, 1.0, None]),
       weighted=st.booleans(), seed=st.integers(0, 2**16))
def test_power_pair_quotient_is_the_gap_ratio(s, points, spread, weighted, seed):
    """power_gap_ratio(s, x) == lambda_quotient(power_pair(s), x), bit for bit."""
    if spread is not None:  # pull the points together, into the moment series
        points = [points[0] * (1.0 + spread * x / max(points)) for x in points]
    rng = random.Random(seed)
    weights = [rng.uniform(0.05, 1.0) for _ in points] if weighted else None
    sample = WeightedSample(points, weights)
    assume(not sample.is_degenerate(1e-13))
    assert outcome(power_gap_ratio, s, sample) == outcome(lambda_quotient, power_pair(s), sample)
