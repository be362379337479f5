"""Empirical (l1, l2) restricted-isometry diagnostics and closed-form bounds.

A matrix Phi has the (l1, l2)-RIP(s, delta) when

    (1 - delta) ||x||_2  <=  ||Phi x||_1  <=  (1 + delta) ||x||_2

for every s-sparse x. Under the PHASE_ONLY variance convention the statistic
``||Phi x||_1`` of a unit-norm probe has expectation exactly 1, so the
distortion witnessed by a probe is ``| ||Phi x||_1 - 1 |``. The randomized
search below reports the maximum over a finite probe set, which is an
empirical LOWER bound on the true distortion; it never certifies the
property (exact certification is combinatorial and out of reach). It screens
the random probes in float32 with a rigorous error bound, streaming Phi through
the screen in cache-sized row blocks rather than copying it, and evaluates in
float64 only the probes the bound cannot rule out, so it reports what a full
float64 search reports, first maximum included.

Also here: statistical self-tests of the expectation identity and of the
Gaussian concentration rate that controls it, the closed-form minimum
measurement count guaranteeing the RIP with a target failure probability,
and the reconstruction-error bounds implied by a known distortion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, _check_int, _check_real
from .sensing import (
    VarianceConvention,
    _support_value_batch,
    sample_sensing_matrix,
)


@dataclass(frozen=True)
class RipEstimate:
    """Empirical lower bound on the distortion delta at sparsity level s."""

    delta_lower: float
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


# sign-flip rounds of the climb from the best probe, each scoring s + 1 probes in one
# block: every pinned rip-estimate report (the tests' hex values, the benchmark's
# recorded delta range) is of the search with two rounds
_CLIMB_ROUNDS = 2


def _screen(mat: np.ndarray, supports: np.ndarray, values: np.ndarray, rows: int,
            col_l1: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Float32 screen of probe rows: ``(approx, err, col_l1)`` with ``|approx - stat| <= err``.

    ``stat`` is both the exact statistic ``| ||Phi x||_1 - 1 |`` of a row and its
    float64 evaluation by :func:`_probe_stat`. Phi streams through in blocks of
    ``rows`` rows, each converted into one reused C-contiguous complex64 block of
    Phi^T, so no m x n copy is made. ``col_l1`` are the float64 column l1 norms of
    Phi; when None they are summed in the same pass, to the bits of
    ``np.abs(mat).sum(axis=0)``.
    """
    m, n = mat.shape
    coef = np.zeros((supports.shape[0], n), dtype=np.float32)
    np.put_along_axis(coef, supports, values, axis=1)
    sums = np.zeros(supports.shape[0])
    block = np.empty(min(m, rows) * n, dtype=np.complex64)
    moduli = np.zeros((rows + 1, n)) if col_l1 is None else None  # row 0: the sums so far
    for i in range(0, m, rows):
        part = mat[i : i + rows]
        part_t = block[: part.size].reshape(n, len(part))
        part_t[...] = part.T
        # one real GEMM on the (n, 2 rows) block view: Re and Im of Phi x, interleaved
        proj = (coef @ part_t.view(np.float32)).view(np.complex64)
        sums += np.abs(proj).sum(axis=1, dtype=np.float64)
        if moduli is not None:
            np.abs(part, out=moduli[1 : len(part) + 1])
            moduli[0] = moduli[: len(part) + 1].sum(axis=0)
    if moduli is not None:  # numpy adds an array's rows in turn, but one column pairwise
        col_l1 = moduli[0].copy() if n > 1 else np.abs(mat).sum(axis=0)
    # Bound, both for the exact statistic and for its float64 re-check. Each part of
    # an entry of Phi x is a dot product of n terms from float32-rounded (or float64)
    # factors: in any summation order it is off by at most gamma_{n+2} sum_k |x_k| |part|,
    # and |Re| + |Im| <= sqrt2 |z| sums that over the rows to
    # gamma sqrt2 sum_k |x_k| ||Phi e_{S_k}||_1. A modulus is off by 1 ulp, a sum of m
    # of them by gamma_m, and |sum - 1| by 1 ulp; the floor covers float32 underflow
    # and the last factor the float64 rounding of col_l1 and of this bound.
    u32, u64 = 2.0**-24, 2.0**-53
    dot = (n + 2) * u32 / (1.0 - (n + 2) * u32) + (n + 2) * u64 / (1.0 - (n + 2) * u64)
    mod = 2.0 * u32 + 4.0 * u64 + 2.0 * m * u64 / (1.0 - m * u64)
    weight = (np.abs(values) * col_l1[supports]).sum(axis=1)
    floor = 2.0 * u64 + 8.0 * m * (n + 2) * 2.0**-150 * (2.0 + float(col_l1.max()))
    err = (math.sqrt(2.0) * dot * weight + mod * sums + floor) * (1.0 + 2.0**-20)
    return np.abs(sums - 1.0), err, col_l1


def _probe_stat(mat: np.ndarray, support: np.ndarray, values: np.ndarray) -> float:
    """Float64 statistic ``| ||Phi x||_1 - 1 |`` of one probe, as the climb computes it."""
    proj = mat[:, support] @ values
    return float(np.abs(np.abs(proj).sum() - 1.0))


def rip_distortion_probe(
    Phi, s: int, num_probes: int, gen: np.random.Generator
) -> RipEstimate:
    """Randomized search for the largest distortion ``| ||Phi x||_1 - 1 |``.

    Three probe stages, all counted in ``num_probes`` of the result:
    ``num_probes`` random unit-norm s-sparse vectors (same sampler as
    :func:`pocs.sensing.sample_sparse_signal`), all n canonical basis
    vectors (whose distortion is a column statistic), and at most
    ``_CLIMB_ROUNDS`` (2) rounds of a sign-flip hill climb around the worst
    probe found. Deterministic given the stream.

    The random probes are screened in float32, in batches of at most 2^18
    coefficients, with a rigorous bound on each screen value's distance from
    the float64 statistic (:func:`_screen`). Each batch streams Phi through one
    GEMM per block of at most 2^15 entries (128 rows at n = 256), and the first
    pass also sums the column l1 norms. Only a probe whose bound still reaches
    the best statistic so far and every other probe of its batch is evaluated
    in float64, in index order. One ``(stat, support, values)`` record holds the
    best probe, and each stage replaces it on a strict ``>`` only, so the first
    maximum wins.
    """
    if Phi.convention is not VarianceConvention.PHASE_ONLY:
        raise ConfigError(
            "Phi: distortion probing requires the PHASE_ONLY variance convention "
            "(the centered statistic assumes E||Phi x||_1 = ||x||_2)"
        )
    mat = Phi.mat
    m, n = mat.shape
    s = _check_int("s", s, 1, n)
    num_probes = _check_int("num_probes", num_probes, 1)

    best = (-1.0, None, None)  # (stat, support, values) of the first maximum so far
    evaluated = num_probes + n  # random and canonical stages; the climb adds its own

    # Phi streams through the screen in blocks of at most 2^15 entries; a batch holds
    # at most 2^18 coefficients, and one block's projections at most 2^18 entries
    rows = max(1, min(m, 2**15 // n))
    batch = max(1, 2**18 // max(n, rows))
    col_l1 = None  # summed by the first batch's pass
    for done in range(0, num_probes, batch):
        count = min(batch, num_probes - done)
        supports, values = _support_value_batch(gen, n, s, count)
        approx, err, col_l1 = _screen(mat, supports, values, rows, col_l1)
        # a probe is skipped only when its bound proves it below the best so far or
        # below another probe of the batch (a NaN bound is re-checked)
        cut = max(best[0], float(np.max(approx - err)))
        for k in np.flatnonzero(~(approx + err < cut)):
            stat = _probe_stat(mat, supports[k], values[k])
            if stat > best[0]:
                best = (stat, supports[k].copy(), values[k].astype(np.complex128))
    del supports, values, approx, err  # the last batch's buffers, before the climb's

    col_stats = np.abs(col_l1 - 1.0)
    j = int(np.argmax(col_stats))
    if col_stats[j] > best[0]:
        best = (float(col_stats[j]), np.array([j], dtype=np.intp), np.ones(1, dtype=np.complex128))

    proj = mat[:, best[1]] @ best[2]
    for _ in range(_CLIMB_ROUNDS):
        _, support, values = best
        # column 0 is the probe, column k + 1 the probe with coordinate k flipped,
        # proj - 2 v_k Phi[:, S_k]: one reduction scores them all (pairwise down
        # each column of the Fortran-ordered block, as _probe_stat sums), so a
        # summation order can never read a sign flip of one column as an improvement
        cand = np.empty((m, support.size + 1), dtype=np.complex128, order="F")
        cand[:, 0] = proj
        flips = mat[:, support]  # proj - 2.0 * Phi[:, S] * values, built in place
        np.multiply(np.multiply(flips, 2.0, out=flips), values[None, :], out=flips)
        np.subtract(proj[:, None], flips, out=cand[:, 1:])
        stats = np.abs(np.abs(cand).sum(axis=0) - 1.0)
        evaluated += support.size
        k = int(np.argmax(stats[1:]))
        if stats[k + 1] <= stats[0]:
            break
        values = values.copy()
        values[k] = -values[k]
        best = (float(stats[k + 1]), support, values)
        proj = cand[:, k + 1].copy()

    stat, support, values = best
    worst = np.zeros(n, dtype=np.complex128)
    worst[support] = values
    return RipEstimate(delta_lower=stat, num_probes=evaluated, worst_probe=worst)


def expectation_identity_test(
    m: int, n: int, num_draws: int, gen: np.random.Generator
) -> ExpectationIdentityReport:
    """Check ``E ||Phi x||_1 = ||x||_2`` over fresh PHASE_ONLY matrix draws.

    Uses one fixed random unit probe vector and passes when the empirical mean
    lies within 4 standard errors of ``||x||_2``.
    """
    m, n = _check_int("m", m, 1), _check_int("n", n, 1)
    num_draws = _check_int("num_draws", num_draws, 100)  # for a stable standard error
    x = gen.standard_normal((n, 2)).view(np.complex128)[..., 0]
    x = x / np.linalg.norm(x)
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
    m, num_draws = _check_int("m", m, 1), _check_int("num_draws", num_draws, 1)
    if not t > 0:  # NaN fails it
        raise ConfigError(f"t: must be > 0, got {t}")
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
    with natural logarithms, in log space, so a huge n or a tiny eta gives its
    count; a tiny delta or an s too large for a float, whose count is past the
    float range, is a :class:`pocs.ConfigError` naming both.
    """
    for field, x in (("delta", delta), ("eta", eta)):
        if not 0.0 < x < 1.0:  # NaN fails it
            raise ConfigError(f"{field}: must lie in (0, 1), got {x}")
    n = _check_int("n", n, -math.inf)  # an integer; its range is the rule s in [1, n]
    s = _check_int("s", s, 1, n)
    try:
        value = (36.0 / math.pi) / delta / delta * (
            s * (1.0 + math.log(n) - math.log(s) + 2.0 * math.log1p(6.0 / delta))
            + math.log(2.0) - math.log(eta)
        )
    except OverflowError:  # s past the float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"delta, s: no finite bound: the measurement count at "
                          f"delta={delta!r} and s={s!r} is past the float range")
    return math.ceil(value)


def pbp_error_bound(delta: float, tau: float) -> float:
    """Direction-error bound 2 sqrt(5 delta) + 4 tau for PBP at level 2s."""
    _check_real("delta", delta)
    _check_real("tau", tau)
    return 2.0 * math.sqrt(5.0 * delta) + 4.0 * tau


def oracle_support_error_bound(delta: float) -> float:
    """Error bound sqrt(5 delta) for noiseless back-projection on a known support."""
    _check_real("delta", delta)
    return math.sqrt(5.0 * delta)
