"""NumPy's ``default_rng(seed).uniform`` stream in plain Python.

``uniform(seed, lo, hi, n)`` returns the list that
``numpy.random.default_rng(seed).uniform(lo, hi, n).tolist()`` returns, bit for
bit, without importing NumPy:

1. ``SeedSequence(seed)`` hashes the seed's little-endian 32-bit words into a
   pool of four words and draws four 64-bit words from it;
2. PCG64 takes the first two as its 128-bit state seed and the last two as its
   stream (``pcg_setseq_128_srandom_r``);
3. each draw steps the 128-bit LCG and takes the XSL-RR output of the new
   state;
4. a double is the output's top 53 bits times 2**-53, scaled to
   ``lo + (hi - lo) * u``.
"""

from __future__ import annotations

_MASK32 = 0xFFFF_FFFF
_MASK64 = 0xFFFF_FFFF_FFFF_FFFF
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0_D7E5
_MULT_A = 0x931E_8875
_INIT_B = 0x8B51_F9DD
_MULT_B = 0x58F3_8DED
_MIX_MULT_L = 0xCA01_F9DD
_MIX_MULT_R = 0x4973_F715

# PCG_DEFAULT_MULTIPLIER_128
_PCG_MULT = 0x2360_ED05_1FC6_5DA4_4385_DF64_9FCC_F645


def _pool(seed: int) -> list[int]:
    """SeedSequence(seed).pool: the seed's words hashed and mixed."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in words[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _state_words(pool: list[int]) -> list[int]:
    """SeedSequence.generate_state(4, uint64): eight hashed 32-bit words, paired."""
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        halves.append(value ^ value >> 16)
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


def _seeded(seed: int) -> tuple[int, int]:
    """PCG64's (state, inc) after seeding from ``SeedSequence(seed)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")  # as SeedSequence says
    w0, w1, w2, w3 = _state_words(_pool(seed))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    # pcg_setseq_128_srandom_r: one step from 0 lands on inc; add the seed, step
    state = (inc + (w0 << 64 | w1)) & _MASK128
    return (state * _PCG_MULT + inc) & _MASK128, inc


def uniform(seed: int, lo: float, hi: float, n: int) -> list[float]:
    """``numpy.random.default_rng(seed).uniform(lo, hi, n).tolist()``."""
    state, inc = _seeded(seed)
    mult, mask128, mask64, mask53 = _PCG_MULT, _MASK128, _MASK64, (1 << 53) - 1
    span = hi - lo
    draws = []
    append = draws.append
    for _ in range(n):
        state = (state * mult + inc) & mask128
        high = state >> 64
        # XSL-RR rotates high ^ low right by high's top six bits; x * (2**64 + 1)
        # holds x twice, so one shift of it rotates; the top 53 bits make the draw
        top = ((high ^ state) & mask64) * 0x1_0000_0000_0000_0001 >> (high >> 58) + 11 & mask53
        append(lo + span * (top * 2.0 ** -53))
    return draws
