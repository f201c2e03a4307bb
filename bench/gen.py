"""Seeded inputs for the benchmark workloads.

Everything the library sees is generated here from the workload seed with
the standard-library generator (``random.Random``), so the same seed gives
the same inputs on every machine and NumPy version.

Order mix (two-point and n-point calls alike):

* 80% uniform in [-10, 10];
* 10% within 1e-9..1e-4 (log-uniform) of the limit orders -1, 0, 1 and of 2;
* 8%  with |s| log-uniform in 10..400;
* 2%  with |s| log-uniform in 1e3..1e8.

Two-point pairs: b/a - 1 log-uniform over 1e-10..1e12, the smaller point
log-uniform so that both points stay within 1e-300..1e300.

N-point samples: n in {2, 3, 8, 64}, a quarter each; relative spread
(max - min) / min log-uniform over 1e-9..10; the smallest point log-uniform
over 1e-6..1e6; equal weights or weights uniform in [0.05, 1], half each.

The ladders are a dense, seed-independent sweep of the edges: orders next to
the limit orders and up to 1e8, near-equal to 1e12-unbalanced pairs at the
bottom, middle and top of the float range, n-point spreads from 1e-9 to 10
at magnitudes 1e-4, 1.7 and 1e4.  The worst-case accuracy metrics are taken
over them, so they do not depend on what a seed happens to draw.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

MEANS = ("H", "G", "L", "I", "A", "S")
LIMIT_ORDERS = (-1.0, 0.0, 1.0, 2.0)
NPOINT_SIZES = (2, 3, 8, 64)


class Pair(NamedTuple):
    s: float
    a: float
    b: float


class Sample(NamedTuple):
    s: float
    points: tuple[float, ...]
    weights: tuple[float, ...] | None


ORDER_SHARES = (("core", 0.80), ("limit", 0.10), ("large", 0.08), ("huge", 0.02))


def _exact_mix(rng: random.Random, n: int, shares) -> list:
    """n labels in the stated shares (largest remainder), shuffled."""
    counts = {label: int(share * n) for label, share in shares}
    by_remainder = sorted(shares, key=lambda item: item[1] * n - int(item[1] * n), reverse=True)
    for label, _ in by_remainder[: n - sum(counts.values())]:
        counts[label] += 1
    labels = [label for label, count in counts.items() for _ in range(count)]
    rng.shuffle(labels)
    return labels


def _stratified(rng: random.Random, n: int) -> list[float]:
    """n uniforms on [0, 1), one in each interval [i/n, (i+1)/n), shuffled."""
    values = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(values)
    return values


def _log_between(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def draw_order(rng: random.Random, category: str) -> float:
    sign = rng.choice((-1.0, 1.0))
    if category == "core":
        return rng.uniform(-10.0, 10.0)
    if category == "limit":
        return rng.choice(LIMIT_ORDERS) + sign * _log_between(rng.random(), 1e-9, 1e-4)
    if category == "large":
        return sign * _log_between(rng.random(), 10.0, 400.0)
    return sign * _log_between(rng.random(), 1e3, 1e8)


def stream(seed: int, n_pairs: int, n_samples: int) -> tuple[list[Pair], list[Sample]]:
    """The seeded call stream: `n_pairs` two-point and `n_samples` n-point inputs.

    The shares of order categories, sizes n and weightings are exact, and
    ratios and spreads are stratified over their log range, so that what a
    seed changes is where inputs fall, not how much work a sweep is.
    """
    rng = random.Random(seed)
    pairs = []
    for category, u in zip(_exact_mix(rng, n_pairs, ORDER_SHARES), _stratified(rng, n_pairs)):
        ratio = 1.0 + _log_between(u, 1e-10, 1e12)
        a = 10.0 ** rng.uniform(-300.0, 300.0 - math.log10(ratio))
        b = a * ratio
        if rng.random() < 0.5:
            a, b = b, a
        pairs.append(Pair(draw_order(rng, category), a, b))
    sizes = _exact_mix(rng, n_samples, [(n, 1 / len(NPOINT_SIZES)) for n in NPOINT_SIZES])
    weighted = _exact_mix(rng, n_samples, ((True, 0.5), (False, 0.5)))
    samples = []
    for category, u, n, with_weights in zip(_exact_mix(rng, n_samples, ORDER_SHARES),
                                            _stratified(rng, n_samples), sizes, weighted):
        spread = _log_between(u, 1e-9, 10.0)
        low = _log_between(rng.random(), 1e-6, 1e6)
        offsets = [0.0, 1.0] + [rng.random() for _ in range(n - 2)]
        rng.shuffle(offsets)
        points = tuple(low * (1.0 + spread * x) for x in offsets)
        weights = tuple(rng.uniform(0.05, 1.0) for _ in range(n)) if with_weights else None
        samples.append(Sample(draw_order(rng, category), points, weights))
    return pairs, samples


def pair_ladder(step: float = 0.5) -> list[Pair]:
    """Seed-independent two-point edge sweep, `step` decades apart."""
    orders = list(LIMIT_ORDERS)
    for pole in LIMIT_ORDERS:
        k = 0
        while -9.0 + k * step <= -4.0 + 1e-9:
            offset = 10.0 ** (-9.0 + k * step)
            orders += [pole - offset, pole + offset]
            k += 1
    for magnitude in (10.0, 30.0, 100.0, 400.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8):
        orders += [-magnitude, magnitude]
    ratios = [1.0 + 1e-10, 1.0 + 1e-7, 1.0 + 1e-4, 1.002, 1.01, 1.5, 3.0, 10.0,
              1e3, 1e6, 1e9, 1e12]
    return [Pair(s, scale, scale * r) for scale in (1e-300, 1.0, 1e285)
            for s in orders for r in ratios]


def sample_ladder(step: float = 0.25) -> list[Sample]:
    """Seed-independent n-point sweep over spreads, `step` decades apart,
    at magnitudes below, near and above 1."""
    out = []
    for n in NPOINT_SIZES:
        for magnitude in (1e-4, 1.7, 1e4):
            k = 0
            while -9.0 + k * step <= 1.0 + 1e-9:
                spread = 10.0 ** (-9.0 + k * step)
                points = tuple(magnitude * (1.0 + spread * i / (n - 1)) for i in range(n))
                for s in (-2.5, 0.0, 0.5, 1.0, 3.0, 40.0):
                    out.append(Sample(s, points, None))
                k += 1
    return out
