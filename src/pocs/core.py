"""The paper's full-matrix model: PBP is ``H_s(Phi^H z)`` with ``z = csign(Phi x0) e^{i xi}``.

A sensing matrix ``Phi`` has i.i.d. entries whose real and imaginary parts
are independent zero-mean Gaussians, under one of two variance conventions:

``PHASE_ONLY``
    per-part standard deviation ``sigma = sqrt(2/pi) / m``, the scaling under
    which ``E ||Phi x||_1 = ||x||_2`` for every x (each ``|(Phi x)_i|`` is
    Rayleigh with mean ``||x||_2 / m``).
``CLASSICAL_CS``
    per-part variance ``1 / (2m)``, i.e. total entry variance ``1/m``, the
    standard scaling with ``E ||Phi x||_2^2 = ||x||_2^2``.

The signal ``x0`` is unit-norm and s-sparse. The phase-only channel keeps
only the componentwise complex signum of the linear measurements ``Phi x0``,
optionally rotated by bounded phase noise ``xi``. PBP hard-thresholds
(``H_s``) the adjoint product ``Phi^H z``, and the direction error scores
it, over ``complex128`` arrays; support sets are sorted integer index
arrays. Because phase-only measurements carry no amplitude, PBP estimates
the direction of ``x0`` only, and the error is taken against the
l2-normalized estimate. The operators are pure functions, safe for
concurrent use; the samplers draw from the generator they are given. Sweep
trials sample PBP's input from its exact law instead
(:func:`pocs.experiments._draw_chunk`); the statistical gate in
``tests/test_engine.py`` checks them against this model.

Also here, as every module imports this one: :class:`ConfigError`, and one
helper for each input rule they share: an integer in [low, high] (each call
site states its bounds), a real >= 0 whose double 2 x is finite, a 1-D
array of a given length, and a scheme, ``'po'`` or ``'cs'`` or its
:class:`VarianceConvention`, taken as its plain name. The signal value law
of the model, the RIP probes and the sweep engine is here too, once
(:func:`_unit_values`).
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "ConfigError",
    "DegenerateEstimateError",
    "SensingMatrix",
    "VarianceConvention",
    "adjoint_matvec",
    "csign",
    "direction_error",
    "hard_threshold",
    "measure_linear",
    "measure_phase_only",
    "pbp",
    "per_part_sigma",
    "sample_sensing_matrix",
    "sample_sparse_signal",
]


class ConfigError(ValueError):
    """Invalid input from the caller; the message starts with the offending field."""


def _check_int(field: str, value, low, high=math.inf) -> int:
    # value as a Python int, so that an np.int64 compares exactly
    try:
        number = operator.index(value)
    except TypeError:
        number = None
    if number is None or isinstance(value, bool):  # a bool is never a count or a size
        raise ConfigError(f"{field}: must be an integer, got {value!r}")
    if not low <= number <= high:
        bound = f"be >= {low}" if high == math.inf else f"lie in [{low}, {high}]"
        raise ConfigError(f"{field}: must {bound}, got {number}")
    return number


def _check_real(field: str, value: float) -> None:
    # a real >= 0 whose double 2 value is finite: the noise uniform(-tau, tau) spans 2 tau
    if not isinstance(value, numbers.Real) or isinstance(value, bool):  # "0.5", True, None
        raise ConfigError(f"{field}: must be a real number, got {value!r}")
    if not (value >= 0 and math.isfinite(2.0 * value)):  # NaN fails it
        raise ConfigError(f"{field}: need {field} >= 0 with 2 {field} finite, got {value:g}")


def _check_vector(field: str, value, length: int) -> np.ndarray:
    # value as a 1-D array of `length` entries: numpy would broadcast a length-1
    # array, and blame any other mismatch on no field
    v = np.asarray(value)
    if v.shape != (length,):
        raise ConfigError(f"{field}: must be a vector of length {length}, got shape {v.shape}")
    return v


class VarianceConvention(str, Enum):
    PHASE_ONLY = "po"
    CLASSICAL_CS = "cs"

    @classmethod
    def _missing_(cls, value):  # every coercion of an unknown value
        return cls(_check_scheme("convention", value))


def _check_scheme(field: str, value) -> str:
    # the plain name 'po' or 'cs' of a scheme given by name or as its VarianceConvention:
    # a sweep labels its cells and keys its streams with it
    names = tuple(c.value for c in VarianceConvention)
    if value not in names:
        raise ConfigError(f"{field}: unknown scheme {value!r}, use "
                          + " or ".join(map(repr, names)))
    return names[names.index(value)]


@dataclass(frozen=True)
class SensingMatrix:
    """m x n complex Gaussian matrix with its variance convention recorded."""

    mat: np.ndarray
    convention: VarianceConvention


def per_part_sigma(m: int, convention: VarianceConvention | str) -> float:
    """Per-part standard deviation implied by a convention at m rows."""
    if VarianceConvention(convention) is VarianceConvention.PHASE_ONLY:
        return math.sqrt(2.0 / math.pi) / m
    return math.sqrt(1.0 / (2.0 * m))


def sample_sensing_matrix(
    gen: np.random.Generator,
    m: int,
    n: int,
    convention: VarianceConvention | str,
) -> SensingMatrix:
    """Draw an m x n complex Gaussian matrix under the given convention."""
    m, n = _check_int("m", m, 1), _check_int("n", n, 1)
    convention = VarianceConvention(convention)
    parts = gen.standard_normal((m, n, 2))
    mat = parts.view(np.complex128)[..., 0]
    mat *= per_part_sigma(m, convention)
    return SensingMatrix(mat=mat, convention=convention)


def _unit_values(v, redraw) -> np.ndarray:
    # The signal values of the uniform rows v: 2v - 1, normalized per row. A
    # row's values are all zero only when each of its uniforms is exactly 0.5
    # (probability 2^-53 each). Such a row has no direction: its uniforms are
    # redrawn in place, row by row in row order, until they are not all 0.5,
    # from the generator that redraw() returns, called only when a row needs it.
    if 0.5 in v:
        gen = redraw()
        for row in np.flatnonzero((v == 0.5).all(axis=1)):
            while (v[row] == 0.5).all():
                v[row] = gen.random(v.shape[1])
    values = 2.0 * v - 1.0
    values /= np.sqrt((values * values).sum(axis=1))[:, None]
    return values


def _support_value_batch(gen, n, s, count):
    # One contiguous block of n+s uniforms per draw. The support comes from a
    # partial sort of the first n (uniform over all (n choose s) subsets), the
    # values from the last s (_unit_values). Draw k of a batch consumes the
    # same stream slice as the k-th of single draws except where a row is
    # redrawn: a batch redraws from the uniforms after it, a single draw from
    # the next ones, so from such a row on the samples depend on the batch size.
    u = gen.random((count, n + s))
    supports = np.sort(np.argpartition(u[:, :n], s - 1, axis=1)[:, :s], axis=1)
    return supports, _unit_values(u[:, n:], lambda: gen)


def sample_sparse_signal(
    gen: np.random.Generator, n: int, s: int
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a unit-norm s-sparse signal of dimension n: ``(x0, support)``.

    The support is uniform over all (n choose s) subsets. On-support values
    are i.i.d. uniform on [-1, 1] on the real axis, then the vector is
    normalized to unit l2 norm.
    """
    n = _check_int("n", n, 1)
    s = _check_int("s", s, 1, n)
    supports, values = _support_value_batch(gen, n, s, 1)
    x0 = np.zeros(n, dtype=np.complex128)
    x0[supports[0]] = values[0]
    return x0, supports[0]


def csign(v) -> np.ndarray:
    """Componentwise complex signum ``v_i / |v_i|``.

    Exact zeros map to ``1+0j`` so the operator stays total; a sweep reports
    how many measurements met this convention in each cell's
    ``zero_sign_hits``. Every output entry has unit modulus.
    """
    v = np.asarray(v, dtype=np.complex128)
    mod = np.abs(v)
    zero = mod == 0.0
    return np.where(zero, np.complex128(1.0), v / np.where(zero, 1.0, mod))


def measure_linear(Phi: SensingMatrix, x0) -> np.ndarray:
    """Unaltered linear measurements ``Phi x0``."""
    return Phi.mat @ _check_vector("x0", x0, Phi.mat.shape[1])


def measure_phase_only(
    Phi: SensingMatrix, x0, tau: float, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Phase-only measurements ``z_i = csign((Phi x0)_i) exp(1j xi_i)``: ``(z, xi)``.

    The phase noise is i.i.d. ``xi_i ~ Uniform[-tau, tau]`` (radians). With
    ``tau = 0`` the output equals ``csign(Phi x0)`` exactly. Zero entries of
    ``Phi x0`` follow the csign convention.
    """
    _check_real("tau", tau)
    y = measure_linear(Phi, x0)
    xi = gen.uniform(-tau, tau, size=y.shape[0])
    return csign(y) * np.exp(1j * xi), xi


def hard_threshold(v, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Best s-term approximation of ``v`` in l2, along the last axis.

    Keeps the ``s`` entries of largest modulus unchanged and zeroes the rest.
    Ties break toward the lowest index, making the output deterministic and
    platform independent. A stack of rows is thresholded row by row.

    Returns
    -------
    (thresholded, support)
        ``thresholded`` is ``v`` with everything off the selected support set
        to zero; ``support`` holds the sorted indices of the retained entries,
        shape ``v.shape[:-1] + (s,)``.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim == 0:
        raise ConfigError("v: hard_threshold expects a vector or a stack of rows")
    s = _check_int("s", s, 1, v.shape[-1])
    support = np.sort(np.argsort(-np.abs(v), axis=-1, kind="stable")[..., :s], axis=-1)
    out = np.zeros_like(v)
    np.put_along_axis(out, support, np.take_along_axis(v, support, axis=-1), axis=-1)
    return out, support


def adjoint_matvec(A, v) -> np.ndarray:
    """Conjugate-transpose product ``A^H v``."""
    A = np.asarray(A)
    if A.ndim != 2:
        raise ConfigError(f"A: adjoint_matvec expects a matrix, got shape {A.shape}")
    v = _check_vector("v", v, A.shape[0])
    # conj(conj(v) A) == A^H v, without materialising the conjugated matrix
    return (v.conj() @ A).conj()


class DegenerateEstimateError(ArithmeticError):
    """Raised when an estimate is identically zero and has no direction."""


def pbp(Phi: SensingMatrix, z, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Hard-threshold ``Phi^H z`` to its s strongest entries: ``(xhat, support)``."""
    return hard_threshold(adjoint_matvec(Phi.mat, _check_vector("z", z, Phi.mat.shape[0])), s)


def direction_error(x0, xhat) -> float:
    """l2 distance between ``x0`` and the normalized estimate ``xhat/||xhat||_2``.

    Both arguments are vectors of one length. Scale invariant in ``xhat``; at
    most 2 when both directions are unit vectors. A zero estimate has no
    direction and raises :class:`DegenerateEstimateError`.
    """
    ref = _check_vector("x0", x0, np.size(x0))  # any length, on one axis
    est = _check_vector("xhat", xhat, ref.size)

    def norm(v):
        return np.sqrt((v.real * v.real).sum() + (v.imag * v.imag).sum())

    with np.errstate(over="ignore", under="ignore"):
        nrm = norm(est)
    if not np.sqrt(np.finfo(nrm.dtype).tiny) <= nrm < np.inf:  # squares left the type's range
        peak = np.abs(est).max(initial=0.0)
        if peak == 0.0:
            raise DegenerateEstimateError("estimate is identically zero")
        est = est / peak
        nrm = norm(est)
    # ref - est / nrm, where est / nrm is taken as numpy divides a complex
    # entry by a real one: times 1 / nrm
    res = ref - np.multiply(est, 1.0 / nrm, dtype=np.result_type(ref, est, 1.0))
    return float(norm(res))
