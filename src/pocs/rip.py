"""Empirical (l1, l2) restricted-isometry diagnostics and closed-form bounds.

A matrix Phi has the (l1, l2)-RIP(s, delta) when

    (1 - delta) ||x||_2  <=  ||Phi x||_1  <=  (1 + delta) ||x||_2

for every s-sparse x. Under the PHASE_ONLY variance convention the statistic
``||Phi x||_1`` of a unit-norm probe has expectation exactly 1, so the
distortion witnessed by a probe is ``| ||Phi x||_1 - 1 |``. The randomized
search below reports the maximum over a finite probe set, which is an
empirical LOWER bound on the true distortion; it never certifies the
property (exact certification is combinatorial and out of reach).

Also here: statistical self-tests of the expectation identity and of the
Gaussian concentration rate that controls it, the closed-form minimum
measurement count guaranteeing the RIP with a target failure probability,
and the reconstruction-error bounds implied by a known distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sensing import (
    VarianceConvention,
    _support_value_batch,
    sample_sensing_matrix,
)


@dataclass(frozen=True)
class RipEstimate:
    """Empirical lower bound on the distortion delta at sparsity level s."""

    delta_lower: float
    s: int
    num_probes: int  # total candidates evaluated, all stages included
    worst_probe: np.ndarray


@dataclass(frozen=True)
class ExpectationIdentityReport:
    empirical_mean: float
    standard_error: float
    expected: float
    num_draws: int
    passed: bool


@dataclass(frozen=True)
class ConcentrationReport:
    frequency: float
    bound: float
    standard_error: float
    num_draws: int
    passed: bool


def _probe_stats(mat_t: np.ndarray, supports: np.ndarray, values: np.ndarray) -> np.ndarray:
    # | ||Phi x||_1 - 1 | per probe row: one real GEMM on the (n, 2m) view of Phi^T
    coef = np.zeros((supports.shape[0], mat_t.shape[0]))
    np.put_along_axis(coef, supports, values, axis=1)
    proj = (coef @ mat_t.view(np.float64)).view(np.complex128)
    return np.abs(np.abs(proj).sum(axis=1) - 1.0)


def rip_distortion_probe(
    Phi,
    s: int,
    num_probes: int,
    gen: np.random.Generator,
    local_search_rounds: int = 2,
) -> RipEstimate:
    """Randomized search for the largest distortion ``| ||Phi x||_1 - 1 |``.

    Three probe stages, all counted in ``num_probes`` of the result:
    ``num_probes`` random unit-norm s-sparse vectors (same sampler as
    :func:`pocs.sensing.sample_sparse_signal`), all n canonical basis
    vectors (whose distortion is a column statistic), and a sign-flip hill
    climb around the worst probe found. Deterministic given the stream.
    """
    if Phi.convention is not VarianceConvention.PHASE_ONLY:
        raise ValueError(
            "distortion probing requires the PHASE_ONLY variance convention "
            "(the centered statistic assumes E||Phi x||_1 = ||x||_2)"
        )
    mat = Phi.mat
    m, n = mat.shape
    if not 1 <= s <= n:
        raise ValueError(f"sparsity s={s} out of range [1, {n}]")
    if num_probes < 1:
        raise ValueError("num_probes must be at least 1")

    best_stat = -1.0
    best_support = None
    best_values = None
    evaluated = num_probes + n  # random and canonical stages; the climb adds its own

    # C-contiguous Phi^T, copied in 64-row blocks (faster than a plain transpose copy)
    mat_t = np.empty((n, m), dtype=np.complex128)
    for i in range(0, m, 64):
        mat_t[:, i : i + 64] = mat[i : i + 64].T
    batch = max(8, 262_144 // max(m, n))  # <= 2^18 coefficients and projections
    for done in range(0, num_probes, batch):
        count = min(batch, num_probes - done)
        supports, values = _support_value_batch(gen, n, s, count)
        stats = _probe_stats(mat_t, supports, values)
        k = int(np.argmax(stats))
        if stats[k] > best_stat:
            best_stat = float(stats[k])
            best_support = supports[k].copy()
            best_values = values[k].astype(np.complex128)

    col_stats = np.abs(np.abs(mat).sum(axis=0) - 1.0)
    j = int(np.argmax(col_stats))
    if col_stats[j] > best_stat:
        best_stat = float(col_stats[j])
        best_support = np.array([j], dtype=np.intp)
        best_values = np.ones(1, dtype=np.complex128)

    support = best_support
    values = best_values
    proj = mat[:, support] @ values
    for _ in range(max(0, local_search_rounds)):
        # flipping coordinate k maps the projection to proj - 2 v_k Phi[:, S_k]
        flipped = proj[:, None] - 2.0 * mat[:, support] * values[None, :]
        stats = np.abs(np.abs(flipped).sum(axis=0) - 1.0)
        evaluated += support.size
        k = int(np.argmax(stats))
        if stats[k] <= best_stat:
            break
        best_stat = float(stats[k])
        proj = flipped[:, k].copy()
        values = values.copy()
        values[k] = -values[k]

    worst = np.zeros(n, dtype=np.complex128)
    worst[support] = values
    return RipEstimate(
        delta_lower=best_stat, s=int(s), num_probes=evaluated, worst_probe=worst
    )


def expectation_identity_test(
    m: int,
    n: int,
    num_draws: int,
    gen: np.random.Generator,
    x: np.ndarray | None = None,
) -> ExpectationIdentityReport:
    """Check ``E ||Phi x||_1 = ||x||_2`` over fresh PHASE_ONLY matrix draws.

    Uses a fixed probe vector (random unit vector unless ``x`` is given) and
    passes when the empirical mean lies within 4 standard errors of
    ``||x||_2``.
    """
    if num_draws < 100:
        raise ValueError("num_draws must be at least 100 for a stable standard error")
    if x is None:
        parts = gen.standard_normal((n, 2))
        x = parts.view(np.complex128)[..., 0]
        x = x / np.linalg.norm(x)
    else:
        x = np.asarray(x, dtype=np.complex128)
    expected = float(np.linalg.norm(x))
    vals = np.empty(num_draws)
    for i in range(num_draws):
        Phi = sample_sensing_matrix(gen, m, n, VarianceConvention.PHASE_ONLY)
        vals[i] = np.linalg.norm(Phi.mat @ x, 1)
    mean = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(num_draws))
    return ExpectationIdentityReport(
        empirical_mean=mean,
        standard_error=se,
        expected=expected,
        num_draws=num_draws,
        passed=abs(mean - expected) <= 4.0 * se,
    )


def concentration_test(
    m: int, num_draws: int, t: float, gen: np.random.Generator
) -> ConcentrationReport:
    """Check the Gaussian tail bound behind the distortion concentration.

    For standard Gaussian pairs, the row-modulus sum of an m-row draw
    concentrates around ``m sqrt(pi/2)``; the relative deviation beyond ``t``
    has probability at most ``2 exp(-(pi/4) t^2 m)``. Passes when the
    empirical tail frequency does not exceed that bound by more than 4
    binomial standard errors.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if num_draws < 1:
        raise ValueError("num_draws must be at least 1")
    center = m * math.sqrt(math.pi / 2.0)
    hits = 0
    chunk = int(np.clip(2_000_000 // max(1, 2 * m), 1, num_draws))
    for done in range(0, num_draws, chunk):
        count = min(chunk, num_draws - done)
        parts = gen.standard_normal((count, m, 2))
        stat = np.hypot(parts[..., 0], parts[..., 1]).sum(axis=1)
        hits += int(np.count_nonzero(np.abs(stat - center) > t * center))
    freq = hits / num_draws
    bound = 2.0 * math.exp(-(math.pi / 4.0) * t * t * m)
    se = math.sqrt(freq * (1.0 - freq) / num_draws)
    return ConcentrationReport(
        frequency=freq,
        bound=bound,
        standard_error=se,
        num_draws=num_draws,
        passed=freq <= bound + 4.0 * se,
    )


def sample_complexity_bound(delta: float, s: int, n: int, eta: float) -> int:
    """Minimum rows m guaranteeing the (l1,l2)-RIP(s, delta) w.p. >= 1 - eta.

    Evaluates ceil((36/pi) delta^-2 [s ln(e n / s (1 + 6/delta)^2) + ln(2/eta)])
    with natural logarithms.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    if not 1 <= s <= n:
        raise ValueError(f"sparsity s={s} out of range [1, {n}]")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    covering = (math.e * n / s) * (1.0 + 6.0 / delta) ** 2
    value = (36.0 / math.pi) / delta**2 * (s * math.log(covering) + math.log(2.0 / eta))
    return math.ceil(value)


def pbp_error_bound(delta: float, tau: float) -> float:
    """Direction-error bound 2 sqrt(5 delta) + 4 tau for PBP at level 2s."""
    if delta < 0 or tau < 0:
        raise ValueError("delta and tau must be nonnegative")
    return 2.0 * math.sqrt(5.0 * delta) + 4.0 * tau


def oracle_support_error_bound(delta: float) -> float:
    """Error bound sqrt(5 delta) for noiseless back-projection on a known support."""
    if delta < 0:
        raise ValueError("delta must be nonnegative")
    return math.sqrt(5.0 * delta)
