"""Complex Gaussian sensing ensembles and the two measurement channels.

A sensing matrix has i.i.d. entries whose real and imaginary parts are
independent zero-mean Gaussians. Two variance conventions are supported:

``PHASE_ONLY``
    per-part standard deviation ``sigma = sqrt(2/pi) / m``, the scaling under
    which ``E ||Phi x||_1 = ||x||_2`` for every x (each ``|(Phi x)_i|`` is
    Rayleigh with mean ``||x||_2 / m``).
``CLASSICAL_CS``
    per-part variance ``1 / (2m)``, i.e. total entry variance ``1/m``, the
    standard scaling with ``E ||Phi x||_2^2 = ||x||_2^2``.

The phase-only channel keeps only the componentwise complex signum of the
linear measurements, optionally rotated by bounded phase noise.

This is the full-matrix model of the paper. Sweep trials sample PBP's input
from its exact law instead (:func:`pocs.experiments._draw_chunk`); the
statistical gate in ``tests/test_engine.py`` checks them against this model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import csign


class VarianceConvention(str, Enum):
    PHASE_ONLY = "po"
    CLASSICAL_CS = "cs"


@dataclass(frozen=True)
class SensingMatrix:
    """m x n complex Gaussian matrix with its variance convention recorded."""

    mat: np.ndarray
    convention: VarianceConvention
    sigma: float  # per-part standard deviation


def per_part_sigma(m: int, convention: VarianceConvention) -> float:
    """Per-part standard deviation implied by a convention at m rows."""
    if convention is VarianceConvention.PHASE_ONLY:
        return math.sqrt(2.0 / math.pi) / m
    return math.sqrt(1.0 / (2.0 * m))


def sample_sensing_matrix(
    gen: np.random.Generator,
    m: int,
    n: int,
    convention: VarianceConvention | str,
) -> SensingMatrix:
    """Draw an m x n complex Gaussian matrix under the given convention."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    convention = VarianceConvention(convention)
    sigma = per_part_sigma(m, convention)
    parts = gen.standard_normal((m, n, 2))
    mat = parts.view(np.complex128)[..., 0]
    mat *= sigma
    return SensingMatrix(mat=mat, convention=convention, sigma=sigma)


def _redraw_zero_values(gen, u, n):
    # The values 2u - 1 of a row (columns n:) are all zero only when every
    # value uniform is exactly 0.5. Such a row has no direction: redraw its
    # value uniforms from gen, all such rows of a pass in one draw.
    while True:
        bad = (u[:, n:] == 0.5).all(axis=1)
        if not bad.any():
            return
        u[bad, n:] = gen.random((int(bad.sum()), u.shape[1] - n))


def _support_value_rows(u, s):
    # Row-wise map of (count, n + s) uniforms to a draw each: the support comes
    # from a partial sort of the first n (uniform over all (n choose s)
    # subsets), the values from the last s mapped onto [-1, 1] and normalized.
    n = u.shape[1] - s
    supports = np.sort(np.argpartition(u[:, :n], s - 1, axis=1)[:, :s], axis=1)
    values = 2.0 * u[:, n:] - 1.0
    norms = np.sqrt((values * values).sum(axis=1))
    return supports, values / norms[:, None]


def _support_value_batch(gen, n, s, count):
    # One contiguous block of n+s uniforms per draw. Draw k of a batch
    # consumes exactly the same stream slice as the k-th sequential single
    # draw, so batch size never changes the samples.
    u = gen.random((count, n + s))
    _redraw_zero_values(gen, u, n)
    return _support_value_rows(u, s)


def sample_sparse_signal(
    gen: np.random.Generator, n: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a unit-norm s-sparse signal of dimension n: ``(x0, support)``.

    The support is uniform over all (n choose s) subsets. On-support values
    are i.i.d. uniform on [-1, 1] on the real axis, then the vector is
    normalized to unit l2 norm.
    """
    if not 1 <= s <= n:
        raise ValueError(f"sparsity s={s} out of range [1, {n}]")
    supports, values = _support_value_batch(gen, n, s, 1)
    x0 = np.zeros(n, dtype=np.complex128)
    x0[supports[0]] = values[0]
    return x0, supports[0]


def measure_linear(Phi, x0) -> np.ndarray:
    """Unaltered linear measurements ``Phi x0``."""
    return Phi.mat @ x0


def measure_phase_only(
    Phi, x0, tau: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-only measurements ``z_i = csign((Phi x0)_i) exp(1j xi_i)``: ``(z, xi)``.

    The phase noise is i.i.d. ``xi_i ~ Uniform[-tau, tau]`` (radians). With
    ``tau = 0`` the output equals ``csign(Phi x0)`` exactly. Zero entries of
    ``Phi x0`` follow the csign convention.
    """
    if not (tau >= 0 and math.isfinite(2.0 * tau)):  # uniform(-tau, tau) needs 2 tau finite
        raise ValueError(f"tau: need tau >= 0 with 2 tau finite, got {tau:g}")
    y = measure_linear(Phi, x0)
    xi = gen.uniform(-tau, tau, size=y.shape[0])
    return csign(y) * np.exp(1j * xi), xi
