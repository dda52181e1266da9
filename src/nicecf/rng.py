"""Deterministic random number generation.

All stochastic steps in this package (dataset splits, autoencoder weight
initialization, synthetic data) draw from :class:`SplitMix64`, a tiny
integer-arithmetic generator with a fixed published recurrence. Unlike
library RNGs whose streams may change between releases, its output is a pure
function of the seed, so artifacts built from the same seed are identical
across platforms and library versions.
"""

from __future__ import annotations

import numbers

from .errors import ConfigError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64 generator (Steele, Lea & Flood's mixing constants).

    state' = state + 0x9E3779B97F4A7C15 (mod 2^64), output = mix(state').
    ``seed`` is any integer but a bool, mod 2^64; else :class:`ConfigError`.
    """

    def __init__(self, seed: int):
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ConfigError(f"seed must be an integer, got {seed!r}")
        self._state = int(seed) & _MASK64

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """Float in [low, high) with 53 bits of resolution."""
        u = self.next_u64() >> 11  # top 53 bits
        return low + (high - low) * (u / float(1 << 53))

    def randrange(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
