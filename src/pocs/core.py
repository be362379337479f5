"""Complex vector and matrix primitives shared by every other module.

Vectors and matrices are plain ``numpy`` arrays with ``complex128`` entries;
support sets are sorted integer index arrays. All operations are pure
functions over immutable inputs and safe for concurrent use.
"""

from __future__ import annotations

import numpy as np

_zero_sign_seen = 0


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

    Exact zeros map to ``1+0j`` so the operator stays total; each occurrence
    is tallied in a diagnostic counter (see :func:`zero_sign_count`). Every
    output entry has unit modulus.
    """
    global _zero_sign_seen
    v = np.asarray(v, dtype=np.complex128)
    mod = np.abs(v)
    zero = mod == 0.0
    nzero = int(np.count_nonzero(zero))
    if nzero:
        _zero_sign_seen += nzero
    return np.where(zero, np.complex128(1.0), v / np.where(zero, 1.0, mod))


def zero_sign_count() -> int:
    """How many exact-zero entries :func:`csign` has mapped to 1 so far."""
    return _zero_sign_seen


def reset_zero_sign_count() -> None:
    global _zero_sign_seen
    _zero_sign_seen = 0


def hard_threshold(v, s: int) -> tuple[np.ndarray, np.ndarray]:
    """Best s-term approximation of ``v`` in l2.

    Keeps the ``s`` entries of largest modulus unchanged and zeroes the rest.
    Ties break toward the lowest index, making the output deterministic and
    platform independent.

    Returns
    -------
    (thresholded, support)
        ``thresholded`` is ``v`` with everything off the selected support set
        to zero; ``support`` is the sorted index array of retained entries.
    """
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise ValueError("hard_threshold expects a 1-d vector")
    if not 1 <= s <= v.size:
        raise ValueError(f"sparsity level s={s} out of range [1, {v.size}]")
    order = np.argsort(-np.abs(v), kind="stable")
    support = np.sort(order[:s])
    out = np.zeros_like(v)
    out[support] = v[support]
    return out, support


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
