"""Deterministic random streams.

All randomness in this package flows through :class:`RngStream`, a
``(master_seed, stream_id)`` pair of 64-bit integers. The pair is mapped onto
NumPy's ``SeedSequence`` (master seed as entropy, stream id as spawn key)
driving a PCG64 bit generator, so the same pair always yields the same sample
sequence regardless of platform or call site. Any unit of work that owns a
stream can therefore be replayed in isolation.

Stream ids for derived work units (one per Monte Carlo trial, for example)
are built with :func:`fnv1a64` over a canonical key string, which keeps the
derivation documented and portable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes, state: int = _FNV_OFFSET) -> int:
    """64-bit FNV-1a hash of ``data``, used to derive stream ids.

    ``state`` continues a hash: ``fnv1a64(b, fnv1a64(a)) == fnv1a64(a + b)``,
    so keys sharing a prefix hash the prefix once.
    """
    h = state
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


@dataclass(frozen=True)
class RngStream:
    """Handle for one reproducible sample sequence."""

    master_seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """Fresh generator positioned at the start of this stream."""
        seq = np.random.SeedSequence(
            entropy=self.master_seed & _MASK64,
            spawn_key=(self.stream_id & _MASK64,),
        )
        return np.random.Generator(np.random.PCG64(seq))


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    """Accept a stream or an already-running generator.

    Passing a stream starts from the stream origin. Passing a generator
    continues consuming it, which is how sequential draws within one trial
    stay decorrelated.
    """
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError(f"expected RngStream or numpy Generator, got {type(rng)!r}")

