"""SplitMix64 pseudo-random generator for reproducible workloads.

The algorithm is pinned so any runtime can reproduce identical streams:
state advances by the 64-bit golden gamma 0x9E3779B97F4A7C15, and each
output mixes the new state with the murmur-style finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

all modulo 2**64. Doubles take the top 53 bits of an output word.
``random`` and ``uniform`` advance the state and finalize it themselves,
through the one finalizer ``_mix``, not through nested ``next_u64`` calls:
a generated reading draws twice.

Substreams are derived, not split: ``derive_seed(seed, label)`` is the
first 8 bytes (big-endian) of SHA-256 over ``"%016x/%s" % (seed, label)``.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53  # one step of a 53-bit double in [0, 1)


def _mix(z: int) -> int:
    """The output finalizer of one advanced state word."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Deterministic 64-bit generator; state is a single integer."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = z = (self._state + _GAMMA) & _MASK64
        return _mix(z)

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 bits of precision:
        (next_u64() >> 11) * 2**-53."""
        self._state = z = (self._state + _GAMMA) & _MASK64
        return (_mix(z) >> 11) * _UNIT

    def uniform(self, lo: float, hi: float) -> float:
        """lo + (hi - lo) * random()."""
        self._state = z = (self._state + _GAMMA) & _MASK64
        return lo + (hi - lo) * ((_mix(z) >> 11) * _UNIT)

    def choice(self, seq):
        if not seq:
            raise IndexError("choice from empty sequence")
        return seq[self.next_u64() % len(seq)]


def derive_seed(seed: int, label: str) -> int:
    """Stable child seed for an independent substream named by `label`."""
    material = f"{seed & _MASK64:016x}/{label}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
