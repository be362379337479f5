"""Projected back-projection (PBP) estimation and the direction-error metric.

PBP reconstructs by applying the adjoint of the sensing matrix to the
measurements and hard-thresholding the result to the s strongest entries.
Because phase-only measurements carry no amplitude, only the signal
direction is estimated; errors are measured between ``x0`` and the
l2-normalized estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import adjoint_matvec, hard_threshold, restrict


class DegenerateEstimateError(ArithmeticError):
    """Raised when an estimate is identically zero and has no direction."""


@dataclass(frozen=True)
class PbpEstimate:
    xhat: np.ndarray
    support: np.ndarray
    s: int


def pbp(Phi, z, s: int) -> PbpEstimate:
    """Hard-threshold the back-projection ``Phi^H z`` to its s strongest entries."""
    mat = getattr(Phi, "mat", Phi)
    xhat, support = hard_threshold(adjoint_matvec(mat, np.asarray(z)), s)
    return PbpEstimate(xhat=xhat, support=support, s=int(s))


def pbp_oracle_support(Phi, z, support) -> np.ndarray:
    """Back-project and keep a fixed support instead of the s strongest entries."""
    mat = getattr(Phi, "mat", Phi)
    return restrict(adjoint_matvec(mat, np.asarray(z)), support)


def _row_norm(v: np.ndarray) -> np.ndarray:
    return np.sqrt((v.real * v.real).sum(axis=-1) + (v.imag * v.imag).sum(axis=-1))


def direction_error(x0, xhat):
    """l2 distance between ``x0`` and the normalized estimate ``xhat/||xhat||_2``.

    Scale invariant in ``xhat``; at most 2 when both directions are unit
    vectors. Works along the last axis: stacks of rows give one error per
    row (an array), vectors a float. A zero estimate has no direction and
    raises :class:`DegenerateEstimateError`.
    """
    ref = np.asarray(getattr(x0, "vec", x0))
    est = np.asarray(getattr(xhat, "xhat", xhat))
    nrm = _row_norm(est)
    if np.any(nrm == 0.0):
        raise DegenerateEstimateError("estimate is identically zero")
    # ref - est / nrm, where est / nrm is taken as numpy divides a complex
    # entry by a real one: times 1 / nrm
    residual = np.multiply(est, (1.0 / nrm)[..., None], dtype=np.result_type(ref, est, 1.0))
    error = _row_norm(np.subtract(ref, residual, out=residual))
    return float(error) if error.ndim == 0 else error
