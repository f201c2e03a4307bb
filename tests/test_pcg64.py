"""The pure-Python PCG64 stream against NumPy's own generator."""

import random

import numpy as np
import pytest

from jensenmeans import _pcg64

# seeds across SeedSequence's word counts: one word, the 32- and 64-bit
# edges, more words than the pool holds, and random multi-word seeds
_rng = random.Random(1931)
SEEDS = [
    0, 1, 2, 42, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1,
    *(2**64 + k for k in (0, 1, 12345)),
    *(2**128 + k for k in (0, 7, 2**40)),
    2**160 + 3, 2**255 - 19,
    *(_rng.getrandbits(bits) for bits in (40, 70, 100, 127, 129, 200, 300, 600)),
]
RANGES = [
    (0.0, 1.0), (-3.5, -1.25), (-1e6, -1e6 + 1.0), (-2.0, 3.0), (2.0, 2.0),
    (1e-300, 1e300), (-1.7976931348623157e308 / 2, 1.7976931348623157e308 / 2),
    (0.0, 0.0), (-0.0, -0.0),
]


def numpy_uniform(seed, lo, hi, n):
    return np.random.default_rng(seed).uniform(lo, hi, n).tolist()


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_matches_numpy_bit_for_bit(seed):
    for lo, hi in RANGES:
        assert _pcg64.uniform(seed, lo, hi, 64) == numpy_uniform(seed, lo, hi, 64), (lo, hi)


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
def test_any_length(n):
    for seed in (0, 2**64 + 1, SEEDS[-1]):
        assert _pcg64.uniform(seed, -1.0, 4.0, n) == numpy_uniform(seed, -1.0, 4.0, n)


def test_a_long_stream():
    assert _pcg64.uniform(77, 0.0, 1.0, 20_000) == numpy_uniform(77, 0.0, 1.0, 20_000)


def test_random_seeds_and_ranges():
    rng = random.Random(2718)
    for _ in range(40):
        seed = rng.getrandbits(rng.randint(1, 256))
        lo = rng.uniform(-1e3, 1e3)
        hi = lo + rng.choice([0.0, 1e-12, rng.uniform(0.0, 1e4)])
        n = rng.randint(1, 50)
        assert _pcg64.uniform(seed, lo, hi, n) == numpy_uniform(seed, lo, hi, n), seed


@pytest.mark.parametrize("lo, hi", [(0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)])
def test_signed_zero_bounds(lo, hi):
    # NumPy refuses hi - lo = -0.0 (lo = 0.0, hi = -0.0, which the CLI accepts
    # as lo <= hi); every draw lo + (hi - lo) * u is then 0.0, as NumPy's
    # draws between max(lo, hi) and lo are, sign included
    drawn = _pcg64.uniform(7, lo, hi, 8)
    assert list(map(repr, drawn)) == list(map(repr, numpy_uniform(7, lo, max(lo, hi), 8)))


def test_a_negative_seed_is_refused_as_numpy_refuses_it():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        _pcg64.uniform(-1, 0.0, 1.0, 1)
