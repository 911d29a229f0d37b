"""Deterministic random streams for every sampled object in this package.

Topologies, data matrices, and step-size draws must be bit-for-bit
reproducible from a 64-bit seed, independent of platform or library
version. The stream is a splitmix64 counter generator; normal deviates
come from the basic Box-Muller transform.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """64-bit splitmix stream: one counter stepped by the golden-ratio gamma,
    output run through a finalizer mix. Trivial to reimplement exactly."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53-bit resolution."""
        return (self.next_u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        """Unbiased integer in [0, n), rejection-sampled to avoid modulo bias."""
        if n <= 0:
            raise ValueError("bound must be positive")
        span = _MASK64 + 1
        limit = span - span % n
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def normals(self, n: int) -> list[float]:
        """n standard-normal draws; Box-Muller pairs, last one dropped if n is odd.

        The pair i takes u1 = (x + 1) 2^-53, shifted into (0, 1] so the log is
        always defined, and u2 = x' 2^-53 from the stream's next two outputs x
        and x'. The stream's outputs are computed at once in wrapping uint64
        arithmetic, and so are u1 and 2 pi u2. The log, square root, cosine and
        sine stay the scalar ``math`` ones, one pair at a time: numpy's do not
        always equal them in the last bit."""
        pairs = (n + 1) // 2
        steps = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
        z = np.uint64(self._state) + steps * np.uint64(_GAMMA)
        self._state = (self._state + 2 * pairs * _GAMMA) & _MASK64
        z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
        z = (z ^ (z >> 31)) >> 11
        u1 = (z[0::2] + 1) * 2.0**-53
        angles = z[1::2] * 2.0**-53 * (2.0 * math.pi)
        del z
        out: list[float] = []
        for a, b in zip(u1, angles):
            r = math.sqrt(-2.0 * math.log(a))
            out += (r * math.cos(b), r * math.sin(b))
        del out[n:]
        return out
