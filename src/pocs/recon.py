"""Projected back-projection (PBP) estimation and the direction-error metric.

PBP reconstructs by applying the adjoint of the sensing matrix to the
measurements and hard-thresholding the result to the s strongest entries.
Because phase-only measurements carry no amplitude, only the signal
direction is estimated; errors are measured between ``x0`` and the
l2-normalized estimate.
"""

from __future__ import annotations

import numpy as np

from .core import adjoint_matvec, hard_threshold


class DegenerateEstimateError(ArithmeticError):
    """Raised when an estimate is identically zero and has no direction."""


def pbp(Phi, z, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Hard-threshold ``Phi^H z`` to its s strongest entries: ``(xhat, support)``."""
    return hard_threshold(adjoint_matvec(Phi.mat, np.asarray(z)), s)


def _row_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v.real * v.real).sum(axis=-1) + (v.imag * v.imag).sum(axis=-1))


def direction_error(x0, xhat):
    """l2 distance between ``x0`` and the normalized estimate ``xhat/||xhat||_2``.

    Scale invariant in ``xhat``; at most 2 when both directions are unit
    vectors. Works along the last axis: stacks of rows give one error per
    row (an array), vectors a float. A zero estimate has no direction and
    raises :class:`DegenerateEstimateError`.
    """
    ref = np.asarray(x0)
    est = np.asarray(xhat)
    nrm = _row_norm(est)
    if np.any(nrm == 0.0):
        raise DegenerateEstimateError("estimate is identically zero")
    # ref - est / nrm, where est / nrm is taken as numpy divides a complex
    # entry by a real one: times 1 / nrm
    residual = np.multiply(est, (1.0 / nrm)[..., None], dtype=np.result_type(ref, est, 1.0))
    error = _row_norm(np.subtract(ref, residual, out=residual))
    return float(error) if error.ndim == 0 else error
