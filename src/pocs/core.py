"""The paper's operators: PBP is ``H_s(Phi^H z)`` with ``z = csign(Phi x0) e^{i xi}``.

Componentwise signum, hard thresholding ``H_s``, the adjoint product
``Phi^H z``, PBP itself and the direction error that scores it, over
``complex128`` arrays; support sets are sorted integer index arrays. Because
phase-only measurements carry no amplitude, PBP estimates the direction of
``x0`` only, and the error is taken against the l2-normalized estimate. All
are pure functions, safe for concurrent use. Also here, as every module imports
this one: :class:`ConfigError`, and one helper for each input rule they share:
an integer in [low, high] (each call site states its bounds), and a real >= 0
whose double 2 x is finite.
"""

from __future__ import annotations

import math
import operator

import numpy as np


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
    if not (value >= 0 and math.isfinite(2.0 * value)):  # NaN fails it
        raise ConfigError(f"{field}: need {field} >= 0 with 2 {field} finite, got {value:g}")


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
    v = np.asarray(v)
    if A.ndim != 2 or v.ndim != 1 or A.shape[0] != v.shape[0]:
        raise ConfigError(f"v: dimension mismatch: {A.shape}^H @ {v.shape}")
    # conj(conj(v) A) == A^H v, without materialising the conjugated matrix
    return (v.conj() @ A).conj()


class DegenerateEstimateError(ArithmeticError):
    """Raised when an estimate is identically zero and has no direction."""


def pbp(Phi, z, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Hard-threshold ``Phi^H z`` to its s strongest entries: ``(xhat, support)``."""
    return hard_threshold(adjoint_matvec(Phi.mat, np.asarray(z)), s)


def direction_error(x0, xhat) -> float:
    """l2 distance between ``x0`` and the normalized estimate ``xhat/||xhat||_2``.

    Both arguments are vectors. Scale invariant in ``xhat``; at most 2 when
    both directions are unit vectors. A zero estimate has no direction and
    raises :class:`DegenerateEstimateError`.
    """
    ref = np.asarray(x0)
    est = np.asarray(xhat)
    if ref.ndim != 1 or est.ndim != 1:
        raise ConfigError(f"xhat: direction_error expects two vectors, got {ref.shape} "
                          f"and {est.shape}")

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
