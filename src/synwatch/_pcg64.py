"""The seeded stream of ``lstm.init_params``: numpy's ``SeedSequence`` and
``PCG64`` bit generator (O'Neill, PCG-XSL-RR 128/64) and its uniform
doubles, in plain Python integers.

For an integer seed, ``Pcg64(seed)`` gives the 64-bit outputs of
``numpy.random.PCG64(seed).random_raw()``, ``advance`` skips outputs as
``PCG64.advance`` does, and ``uniform`` gives the doubles of
``numpy.random.default_rng(seed).uniform``, one output per double, bit
for bit.  numpy keeps its bit generators' streams stable but not its
``Generator`` methods (NEP 19), so the weights a seed gives are fixed
here, not by numpy.  ``init_params`` imports this module when it runs,
so importing ``synwatch`` does not compile it and never loads
``numpy.random``.
"""

from __future__ import annotations

import operator

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash constants, with its pool of four 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_MULT_L, _MIX_MULT_R = 0xca01f9dd, 0x4973f715
_XSHIFT = 16

#: The 128-bit LCG multiplier of PCG64.
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _mix(x: int, y: int) -> int:
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, uint64)``: the four 64-bit
    words PCG64 takes its state and increment from.  ``seed`` must be a
    non-negative integer; anything else raises ``ValueError``."""
    try:
        n = operator.index(seed)
    except TypeError:
        raise ValueError(f"seed must be a non-negative integer, "
                         f"got {seed!r}") from None
    if n < 0:  # a negative int never shifts down to 0 below
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    entropy = [n & _MASK32]
    while n := n >> 32:
        entropy.append(n & _MASK32)

    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for i in range(8):  # two 32-bit words for each of the four
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        state.append(value ^ (value >> _XSHIFT))
    # each 64-bit word is two 32-bit words, the low one first
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """numpy's ``PCG64`` bit generator for an integer seed."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        words = seed_words(seed)
        self.inc = ((words[2] << 64 | words[3]) << 1 | 1) & _MASK128
        # pcg_setseq_128_srandom_r: one step from state 0 gives inc; add
        # the seed state, then step once more
        state = self.inc + (words[0] << 64 | words[1])
        self.state = (state * _MULT + self.inc) & _MASK128

    def next64(self) -> int:
        """Step, then the XSL-RR output of the new state."""
        self.state = state = (self.state * _MULT + self.inc) & _MASK128
        rot = state >> 122
        x = ((state >> 64) ^ state) & _MASK64
        return ((x >> rot) | (x << (64 - rot))) & _MASK64

    def advance(self, delta: int) -> None:
        """Skip ``delta`` outputs in O(log delta) steps (Brown, "Random
        number generation with arbitrary strides", 1994)."""
        mult, plus = _MULT, self.inc
        acc_mult, acc_plus = 1, 0
        while delta > 0:
            if delta & 1:
                acc_mult = (acc_mult * mult) & _MASK128
                acc_plus = (acc_plus * mult + plus) & _MASK128
            plus = ((mult + 1) * plus) & _MASK128
            mult = (mult * mult) & _MASK128
            delta >>= 1
        self.state = (acc_mult * self.state + acc_plus) & _MASK128

    def uniform(self, low: float, high: float, size: int) -> list[float]:
        """``size`` doubles of ``Generator.uniform(low, high)``: the top 53
        bits of one output each, scaled to [low, high)."""
        span = high - low
        return [low + span * ((self.next64() >> 11) * 2.0 ** -53)
                for _ in range(size)]
