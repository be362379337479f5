"""Statistical-equivalence gate for the sweep's back-projection sampler.

Sweep trials draw ``Phi^H z`` from its exact law
(:func:`pocs.experiments._draw_chunk`) instead of forming the m x n
sensing matrix.
These tests check the rank-one split that law rests on, then compare the
direction error of the engine's trials (a chunk at a time, as a sweep runs
them; :func:`run_trial` gives the same errors one by one) against a
full-matrix reference trial
built from the paper-facing API (matrix draw, channel, PBP), cell by cell:
the two means must agree within 4 combined standard errors, and the
two-sample Kolmogorov-Smirnov statistic must stay below its 1% critical
value 1.63 sqrt(2/N).
"""

import math

import numpy as np
import pytest

from pocs import (
    RngStream,
    adjoint_matvec,
    csign,
    direction_error,
    measure_linear,
    measure_phase_only,
    pbp,
    run_trial,
    sample_sensing_matrix,
    sample_sparse_signal,
)
from pocs.experiments import _chunk_trials, _phase_only_statistic, _run_chunk

REFERENCE_SEED = 31
ENGINE_SEED = 32


def reference_errors(scheme, n, s, m, tau, trials):
    """Direction errors of full-matrix trials: draw Phi, measure, PBP."""
    gen = RngStream(REFERENCE_SEED).generator()
    errors = np.empty(trials)
    for t in range(trials):
        Phi = sample_sensing_matrix(gen, m, n, scheme)
        x0, _ = sample_sparse_signal(gen, n, s)
        if scheme == "po":
            z, _ = measure_phase_only(Phi, x0, tau, gen)
        else:
            z = measure_linear(Phi, x0)
        errors[t] = direction_error(x0, pbp(Phi, z, s)[0])
    return errors


def engine_errors(scheme, n, s, m, tau, trials):
    size = _chunk_trials(s, m)
    return np.concatenate([
        _run_chunk(scheme, n, s, m, tau, ENGINE_SEED, c, min(size, trials - c * size))[0]
        for c in range(-(-trials // size))
    ])


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic sup |F_a - F_b| (ties allowed).

    Values are compared on a 1e-9 grid: an estimate on the exact support at
    s = 1, tau = 0 has error 0 up to rounding, and the two samplers round
    differently.
    """
    a, b = np.sort(np.round(a, 9)), np.sort(np.round(b, 9))
    grid = np.concatenate([a, b])
    fa = np.searchsorted(a, grid, side="right") / a.size
    fb = np.searchsorted(b, grid, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


def assert_same_law(scheme, n, s, m, tau, trials):
    ref = reference_errors(scheme, n, s, m, tau, trials)
    new = engine_errors(scheme, n, s, m, tau, trials)
    assert np.isfinite(new).all()
    ref, new = np.round(ref, 9), np.round(new, 9)  # the grid ks_statistic uses
    if not (ref.any() or new.any()):
        # both samplers recover the support in every trial: the errors are
        # rounding residue, with no spread to test the means against
        print(f"\n{scheme} n={n} s={s} m={m} tau={tau:g}: exact in all {trials} trials")
        return
    se = math.sqrt(ref.var(ddof=1) / ref.size + new.var(ddof=1) / new.size)
    z = (new.mean() - ref.mean()) / se
    d = ks_statistic(ref, new)
    critical = 1.63 * math.sqrt(2.0 / trials)
    print(f"\n{scheme} n={n} s={s} m={m} tau={tau:g}: mean {new.mean():.4f} vs "
          f"{ref.mean():.4f} (z={z:+.2f}), KS D={d:.4f} < {critical:.4f}")
    assert abs(z) <= 4.0
    assert d < critical


@pytest.mark.parametrize("scheme", ["po", "cs"])
def test_rank_one_split_is_exact(scheme):
    # Phi^H z = x0 (y^H z) + (I - x0 x0^H) Phi^H z with y = Phi x0
    gen = RngStream(5).generator()
    m, n = 40, 12
    Phi = sample_sensing_matrix(gen, m, n, scheme).mat
    x0, _ = sample_sparse_signal(gen, n, 3)
    y = Phi @ x0
    z = csign(y) * np.exp(1j * gen.uniform(-1.0, 1.0, m)) if scheme == "po" else y
    back = adjoint_matvec(Phi, z)
    split = x0 * np.vdot(y, z) + (np.eye(n) - np.outer(x0, x0.conj())) @ back
    assert np.max(np.abs(back - split)) <= 1e-12


@pytest.mark.parametrize(
    "scheme,s,m,tau",
    [
        ("po", 1, 48, 0.0),    # s = 1, m > n
        ("po", 32, 48, 0.7),   # s = n
        ("po", 8, 4, 2.0),     # m < s
        ("cs", 1, 16, 0.0),    # s = 1, m < n
        ("cs", 32, 64, 0.0),   # s = n, m > n
        ("cs", 8, 4, 0.0),     # m < s
    ],
)
def test_matches_full_matrix_reference_small(scheme, s, m, tau):
    assert_same_law(scheme, 32, s, m, tau, trials=6_000)


@pytest.mark.parametrize("tau", [0.0, 1.5 * math.pi])
def test_matches_full_matrix_reference_acceptance_cells(tau):
    assert_same_law("po", 256, 10, 64, tau, trials=3_000)


class TestSampleBackProjection:
    @pytest.mark.parametrize(
        "scheme,m,tau",
        [
            ("po", 8, -0.1),   # negative phase-noise bound
            ("cs", 8, 0.5),    # the linear channel has no phase noise
            ("po", 0, 0.0),    # no measurements
            ("po", 8, math.nan),  # would run noiseless under a NaN label
            ("po", 8, math.inf),
            ("po", 8, 1e308),  # uniform(-tau, tau) spans 2 tau, which overflows
            ("cs", 8, math.nan),
        ],
        ids=["negative-tau", "cs-with-tau", "m-below-1", "nan-tau", "inf-tau",
             "overflowing-tau", "cs-with-nan-tau"],
    )
    def test_rejects_invalid_input(self, scheme, m, tau):
        with pytest.raises(ValueError):
            run_trial(scheme, 4, 2, m, tau, 0, 0)

    @pytest.mark.parametrize(
        "xi",
        [None, np.array([0.3, -1.1, 0.7, 2.0, -0.2, 0.9])],
        ids=["noiseless", "noisy"],
    )
    def test_phase_only_statistic_counts_zero_signs(self, xi):
        # y^H z is computed without csign, but each exact zero of y must still
        # be counted as a measurement that met csign's zero convention
        y = np.array([0.0, 1 - 2j, 0.0, -0.5j, 0.0, 3.0 + 0.25j])
        value, zeros = _phase_only_statistic(np.abs(y), xi)
        assert zeros == 3
        noise = np.zeros(y.size) if xi is None else xi
        assert abs(value - np.vdot(y, csign(y) * np.exp(1j * noise))) <= 1e-12
