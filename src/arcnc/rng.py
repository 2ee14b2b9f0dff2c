"""Deterministic, portable pseudo-random generator for trials.

SplitMix64 (Steele et al.) is used both to mix (base_seed, trial_index)
into a per-trial stream seed and as the draw stream itself.  A value in
[0, n) is one 64-bit draw mod n: it differs from uniform by under 2^-48
for every n <= 2^16 (by at most (2^64 mod n)/2^64), and not at all for n a
power of two.  The exact output sequence is part of the campaign
reproducibility contract: equal (base_seed, trial_index) always produce
identical trials on any platform.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    """One SplitMix64 finalization round."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(base_seed: int, trial_index: int) -> int:
    """Per-trial stream seed: a stated mix of base seed and trial index."""
    return mix64(mix64(base_seed) ^ mix64((trial_index + 1) * _GAMMA))


class SplitMix64:
    """SplitMix64 sequence; each integer value takes one draw."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next64(self) -> int:
        self.state = (self.state + _GAMMA) & _MASK
        return mix64(self.state)

    def randint(self, n: int) -> int:
        """The next draw mod n, an integer in [0, n); differs from
        uniform by under 2^-48 for n <= 2^16."""
        return self.next64() % n


def trial_rng(base_seed: int, trial_index: int) -> SplitMix64:
    return SplitMix64(trial_seed(base_seed, trial_index))
