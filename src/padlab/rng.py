"""Deterministic random number generation.

All randomness in the package flows through `Rng`, a thin wrapper around
numpy's Philox4x64-10 counter-based bit generator (4x64-bit counter, 2x64-bit
key), built at the first draw. Philox is a fixed, named algorithm whose stream
depends only on the 64-bit seed, so equal seeds give bit-identical sequences
across runs and platforms.

Independent substreams are derived with `child(label)`: the label is hashed
with FNV-1a-64 and mixed into the parent seed through SplitMix64. Deriving a
child never consumes state from the parent stream, so the set of draws a
component makes cannot perturb any other component.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import ConfigError

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


class Rng:
    """Seeded Philox stream with label-derived substreams."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        if not 0 <= self.seed <= _MASK64:  # masking would give two seeds one stream
            raise ConfigError(f"seed {self.seed} is outside [0, 2**64)")

    @cached_property
    def _gen(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.seed))

    def child(self, label: str) -> "Rng":
        """Independent stream for `label`; stateless w.r.t. this stream."""
        return Rng(_splitmix64(self.seed ^ _fnv1a64(str(label))))

    def uniform(self, shape, low=0.0, high=1.0, dtype=np.float32):
        return self._gen.uniform(low, high, size=shape).astype(dtype, copy=False)

    def normal(self, shape, std=1.0, dtype=np.float32):
        return (self._gen.standard_normal(size=shape) * std).astype(dtype, copy=False)

    def integers(self, low, high, shape=None):
        return self._gen.integers(low, high, size=shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
