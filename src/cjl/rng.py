"""Small deterministic pseudo-random generator.

The acceptance corpus and the CLI must produce byte-identical output for a
given seed on every platform, so randomized sampling goes through this
xorshift64* generator rather than :mod:`random` (whose algorithms are not
pinned by the language reference across implementations).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


class Rng:
    """xorshift64* with the usual multiplier; seed 0 is remapped."""

    def __init__(self, seed: int = 0):
        self.state = (seed ^ 0x9E3779B97F4A7C15) & _MASK
        if self.state == 0:
            self.state = 0x106689D45497FDB5

    def next_u64(self) -> int:
        x = self.state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK
        x ^= (x >> 27)
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK

    def below(self, n: int) -> int:
        """Uniform integer in ``[0, n)``."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        # 64-bit modulo bias is < 2^-50 for the bounds used here; fine for
        # test-corpus sampling, and keeps the stream identical everywhere.
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in ``[lo, hi]`` inclusive."""
        return lo + self.below(hi - lo + 1)
