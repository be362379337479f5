"""Complex vector and matrix primitives shared by every other module.

Vectors and matrices are plain ``numpy`` arrays with ``complex128`` entries;
support sets are sorted integer index arrays. All operations are pure
functions over immutable inputs and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np


def norm(v, p=2) -> float:
    """lp norm of a complex vector for p in {1, 2, inf}, modulus-based."""
    v = np.asarray(v)
    if p == 1:
        return float(np.abs(v).sum())
    if p == 2:
        return float(np.linalg.norm(v))
    if p == np.inf:
        if v.size == 0:
            raise ValueError("inf-norm of an empty vector")
        return float(np.abs(v).max())
    raise ValueError(f"unsupported norm order {p!r}; use 1, 2 or numpy.inf")


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
        raise ValueError("hard_threshold expects a vector or a stack of rows")
    n = v.shape[-1]
    if not 1 <= s <= n:
        raise ValueError(f"sparsity level s={s} out of range [1, {n}]")
    mod = np.abs(v)
    # Keep every entry at or above the s-th largest modulus of its row. Where
    # more entries tie at that modulus than places are left, keep the
    # lowest-index ones, as a stable sort would.
    kth = np.partition(mod, n - s, axis=-1)[..., n - s, None]
    keep = mod >= kth
    if (keep.sum(axis=-1) > s).any():
        above = mod > kth
        tie = mod == kth
        keep = above | (tie & (np.cumsum(tie, axis=-1) <= s - above.sum(axis=-1, keepdims=True)))
    support = np.nonzero(keep)[-1].reshape(v.shape[:-1] + (s,))
    return np.where(keep, v, 0), support


def restrict(v, support) -> np.ndarray:
    """Zero every entry of ``v`` outside ``support``."""
    v = np.asarray(v, dtype=np.complex128)
    support = np.asarray(support, dtype=np.intp)
    if support.size and (support.min() < 0 or support.max() >= v.size):
        raise ValueError("support index out of range")
    out = np.zeros_like(v)
    out[support] = v[support]
    return out


def matvec(A, v) -> np.ndarray:
    """Matrix-vector product ``A v``."""
    A = np.asarray(A)
    v = np.asarray(v)
    if A.ndim != 2 or v.ndim != 1 or A.shape[1] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape} @ {v.shape}")
    return A @ v


def adjoint_matvec(A, v) -> np.ndarray:
    """Conjugate-transpose product ``A^H v``."""
    A = np.asarray(A)
    v = np.asarray(v)
    if A.ndim != 2 or v.ndim != 1 or A.shape[0] != v.shape[0]:
        raise ValueError(f"dimension mismatch: {A.shape}^H @ {v.shape}")
    # conj(conj(v) A) == A^H v, without materialising the conjugated matrix
    return (v.conj() @ A).conj()
