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


def fnv1a64(data: bytes) -> int:
    """64-bit FNV-1a hash of ``data``, used to derive stream ids."""
    h = _FNV_OFFSET
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

