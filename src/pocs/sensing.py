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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import csign, matvec, record_zero_signs
from .rng import RngStream, as_generator


class VarianceConvention(str, Enum):
    PHASE_ONLY = "po"
    CLASSICAL_CS = "cs"


@dataclass(frozen=True)
class SensingMatrix:
    """m x n complex Gaussian matrix with its variance convention recorded."""

    mat: np.ndarray
    convention: VarianceConvention
    sigma: float  # per-part standard deviation

    @property
    def m(self) -> int:
        return self.mat.shape[0]

    @property
    def n(self) -> int:
        return self.mat.shape[1]


@dataclass(frozen=True)
class SparseSignal:
    """Unit-l2-norm vector supported on exactly |support| coordinates."""

    vec: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class PhaseMeasurements:
    """Unit-modulus measurement phases plus the noise draws that made them."""

    z: np.ndarray
    xi: np.ndarray
    tau: float


def per_part_sigma(m: int, convention: VarianceConvention) -> float:
    """Per-part standard deviation implied by a convention at m rows."""
    if convention is VarianceConvention.PHASE_ONLY:
        return math.sqrt(2.0 / math.pi) / m
    return math.sqrt(1.0 / (2.0 * m))


def sample_sensing_matrix(
    rng: RngStream | np.random.Generator,
    m: int,
    n: int,
    convention: VarianceConvention | str,
) -> SensingMatrix:
    """Draw an m x n complex Gaussian matrix under the given convention."""
    if m < 1 or n < 1:
        raise ValueError("matrix dimensions must be positive")
    convention = VarianceConvention(convention)
    sigma = per_part_sigma(m, convention)
    gen = as_generator(rng)
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
    rng: RngStream | np.random.Generator, n: int, s: int
) -> SparseSignal:
    """Draw a unit-norm s-sparse signal of dimension n.

    The support is uniform over all (n choose s) subsets. On-support values
    are i.i.d. uniform on [-1, 1] on the real axis, then the vector is
    normalized to unit l2 norm.
    """
    if not 1 <= s <= n:
        raise ValueError(f"sparsity s={s} out of range [1, {n}]")
    gen = as_generator(rng)
    supports, values = _support_value_batch(gen, n, s, 1)
    vec = np.zeros(n, dtype=np.complex128)
    vec[supports[0]] = values[0]
    return SparseSignal(vec=vec, support=supports[0])


def measure_linear(Phi, x0) -> np.ndarray:
    """Unaltered linear measurements ``Phi x0``."""
    mat = getattr(Phi, "mat", Phi)
    vec = getattr(x0, "vec", x0)
    return matvec(mat, vec)


def measure_phase_only(
    Phi, x0, tau: float, rng: RngStream | np.random.Generator
) -> PhaseMeasurements:
    """Phase-only measurements ``z_i = csign((Phi x0)_i) exp(1j xi_i)``.

    The phase noise is i.i.d. ``xi_i ~ Uniform[-tau, tau]`` (radians). With
    ``tau = 0`` the output equals ``csign(Phi x0)`` exactly. Zero entries of
    ``Phi x0`` follow the csign convention and bump its diagnostic counter.
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    y = measure_linear(Phi, x0)
    gen = as_generator(rng)
    xi = gen.uniform(-tau, tau, size=y.shape[0])
    z = csign(y) * np.exp(1j * xi)
    return PhaseMeasurements(z=z, xi=xi, tau=float(tau))


def _back_projection_convention(
    m: int, convention: VarianceConvention | str, tau: float
) -> VarianceConvention:
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    if m < 1:
        raise ValueError("measurement count m must be positive")
    convention = VarianceConvention(convention)
    if convention is VarianceConvention.CLASSICAL_CS and tau != 0:
        raise ValueError("the linear channel has no phase noise; tau must be 0")
    return convention


def _phase_only_statistic(y: np.ndarray, xi: np.ndarray | None) -> tuple[complex, int]:
    """``y^H z`` for the phase-only measurements ``z = csign(y) exp(1j xi)``.

    ``conj(y_i) csign(y_i) = |y_i|``, so ``y^H z = sum_i |y_i| exp(1j xi_i)``,
    computed without forming ``z``. ``xi=None`` stands for no phase noise;
    the value is then ``sum_i |y_i|``, but it is taken through the signum as
    csign computes it, ``y_i (1 / |y_i|)``, because its rounding is all the
    error there is when a trial recovers the support exactly (s = 1). An
    exact zero of ``y`` adds 0 whatever csign maps it to, and bumps the csign
    counter as csign does. Returns the statistic and that zero count.
    """
    mod = np.abs(y)
    zeros = mod.size - int(np.count_nonzero(mod))
    record_zero_signs(zeros)
    if xi is not None:
        return complex(mod @ np.cos(xi), mod @ np.sin(xi)), zeros
    if zeros:  # a zero's term conj(0) z_i is 0 whatever its reciprocal
        inv = np.divide(1.0, mod, out=np.zeros_like(mod), where=mod > 0)
    else:
        inv = 1.0 / mod
    return complex(np.vdot(y, y * inv)), zeros


def _draw_back_projection(
    gen: np.random.Generator,
    m: int,
    convention: VarianceConvention,
    tau: float,
    normals: np.ndarray,
) -> tuple[complex, float, int]:
    """One draw of what the exact law of the back-projection needs.

    ``Phi^H z``, PBP's input for an m x n matrix ``Phi`` under ``convention``
    (per-part deviation sigma) and its measurements ``z`` of a unit-norm
    ``x0``, is sampled without drawing ``Phi``. Split each row along ``x0``,
    ``phi_i = y_i x0^H + phi_i (I - x0 x0^H)`` with ``y = Phi x0``: for
    i.i.d. circular Gaussian rows ``y`` has m i.i.d. circular Gaussian
    entries with per-part sigma and is uncorrelated with, hence independent
    of, ``Phi (I - x0 x0^H)``. ``z`` depends only on ``y`` and the phase
    noise, so given ``z`` the part of ``Phi^H z`` orthogonal to ``x0`` is
    ``(I - x0 x0^H)`` applied to a circular Gaussian n-vector with per-part
    deviation ``sigma ||z||_2``. Hence, whatever the sparsity of ``x0``,

        Phi^H z  ~  x0 (y^H z) + sigma ||z||_2 (I - x0 x0^H) g

    with ``g`` n i.i.d. standard complex normals, which
    :func:`_combine_back_projection` forms. ``||z||_2 = sqrt(m)`` on the
    phase-only channel (``z = csign(y) exp(1j xi)``, ``|xi_i| <= tau``); on
    the linear one ``z = y`` and ``tau`` is 0.

    Fills ``normals``, an (m + n, 2) float array, with m + n standard complex
    normals: the first m make ``y``, the last n are ``g``. On the phase-only
    channel with ``tau > 0`` it then draws the m phase-noise uniforms; at
    ``tau = 0`` the noise is identically 0 and that last draw is skipped.
    Exact zeros of ``y`` bump the csign zero counter. Returns
    ``(y^H z, sigma ||z||_2, zero signs)``.
    """
    gen.standard_normal(out=normals)
    sigma = per_part_sigma(m, convention)
    y = sigma * normals[:m].view(np.complex128)[:, 0]
    if convention is VarianceConvention.CLASSICAL_CS:
        return complex(np.vdot(y, y)), sigma * float(np.linalg.norm(y)), 0
    xi = gen.uniform(-tau, tau, size=m) if tau > 0 else None
    yz, zeros = _phase_only_statistic(y, xi)
    return yz, sigma * math.sqrt(m), zeros


def _combine_back_projection(x0, yz, scale, g) -> np.ndarray:
    """``x0 (y^H z) + scale (I - x0 x0^H) g`` along the last axis, written into ``g``."""
    yz = np.asarray(yz, dtype=np.complex128)[..., None]
    scale = np.asarray(scale, dtype=np.complex128)[..., None]
    x0_g = np.einsum("...i,...i->...", x0.conj(), g)[..., None]
    g *= scale
    g += x0 * (yz - scale * x0_g)
    return g

