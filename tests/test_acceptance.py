"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible because capture is off) before
asserting, so a full run always shows the per-criterion outcome.
"""

import itertools
import math
import time

import numpy as np
import pytest

from pocs import (
    RngStream,
    SweepConfig,
    csign,
    direction_error,
    fit_rate,
    fnv1a64,
    hard_threshold,
    measure_phase_only,
    pbp,
    pbp_error_bound,
    render_csv,
    rip_distortion_probe,
    run_sweep,
    sample_complexity_bound,
    sample_sensing_matrix,
    sample_sparse_signal,
)
from conftest import ACCEPTANCE_SEED


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def cell_of(timed, scheme, m):
    for c in timed.result.cells:
        if c.scheme == scheme and c.m == m:
            return c
    raise AssertionError(f"cell ({scheme}, m={m}) missing from fixture sweep")


def test_criterion_1_noiseless_anchor(tau_anchor):
    cell = tau_anchor.result.cells[0]
    ok = abs(cell.mean_error - 0.7366) <= 0.02 and tau_anchor.seconds < 30.0
    report(
        1,
        ok,
        f"mean error {cell.mean_error:.4f} (target 0.7366 +/- 0.02), "
        f"{cell.trials} trials in {tau_anchor.seconds:.1f}s (< 30s)",
    )
    assert abs(cell.mean_error - 0.7366) <= 0.02
    assert tau_anchor.seconds < 30.0


def test_criterion_2_saturation(tau_saturation):
    cells = tau_saturation.result.cells
    details, failures = [], []
    for c in cells:
        ok = abs(c.mean_error - 1.414) <= 0.03
        details.append(f"tau={c.tau / math.pi:.1f}pi -> {c.mean_error:.4f} ({'ok' if ok else 'out'})")
        if not ok:
            failures.append(c)
    report(2, not failures, "target 1.414 +/- 0.03 at each point; " + ", ".join(details))
    assert not failures, f"saturation points outside tolerance: {details}"


def test_criterion_3_grid_spot_checks(sweep_s2_high, sweep_s10_low, sweep_s50_high):
    targets = [
        ("po", sweep_s2_high, 4096, -17.66),
        ("cs", sweep_s2_high, 4096, -18.23),
        ("po", sweep_s10_low, 64, -1.32),
        ("po", sweep_s50_high, 4096, -8.07),
        ("cs", sweep_s50_high, 4096, -8.65),
    ]
    elapsed = sweep_s2_high.seconds + sweep_s10_low.seconds + sweep_s50_high.seconds
    details, ok = [], True
    for scheme, timed, m, target_db in targets:
        cell = cell_of(timed, scheme, m)
        close = abs(cell.mean_error_db - target_db) <= 0.3
        ok = ok and close
        details.append(f"{scheme} s={cell.s} m={m}: {cell.mean_error_db:.2f}dB vs {target_db} ({'ok' if close else 'out'})")
    ok = ok and elapsed < 300.0
    report(3, ok, "; ".join(details) + f"; runtime {elapsed:.0f}s (< 300s)")
    for scheme, timed, m, target_db in targets:
        cell = cell_of(timed, scheme, m)
        assert abs(cell.mean_error_db - target_db) <= 0.3, (scheme, m)
    assert elapsed < 300.0


def test_criterion_4_expectation_identity():
    # E ||Phi x||_1 = ||x||_2 under the phase-only scaling: the mean over 10,000 fresh
    # 64 x 256 matrices at one random unit probe x lies within 4 SE of ||x||_2
    start = time.perf_counter()
    gen = RngStream(ACCEPTANCE_SEED, 4).generator()
    x = gen.standard_normal((256, 2)).view(np.complex128)[..., 0]
    x = x / np.linalg.norm(x)
    vals = np.array([np.linalg.norm(sample_sensing_matrix(gen, 64, 256, "po").mat @ x, 1)
                     for _ in range(10_000)])
    mean, se = vals.mean(), vals.std(ddof=1) / math.sqrt(vals.size)
    ok = abs(mean - np.linalg.norm(x)) <= 4.0 * se
    report(
        4,
        ok,
        f"mean ||Phi x||_1 = {mean:.5f} vs 1 "
        f"(4 SE = {4 * se:.5f}, {vals.size} draws, "
        f"{time.perf_counter() - start:.1f}s)",
    )
    assert ok


def test_criterion_5_empirical_rate(sweep_s2_low, sweep_s2_high):
    cells = tuple(sweep_s2_low.result.cells) + tuple(sweep_s2_high.result.cells)
    slope = fit_rate(cells, "po", 2, 256, min_log2_ratio=0.0)
    ok = -0.65 <= slope <= -0.45
    report(5, ok, f"decay exponent {slope:.3f} in [-0.65, -0.45]; "
                  "the -1/4 theoretical rate is pessimistic")
    assert -0.65 <= slope <= -0.45


def test_criterion_6_sample_complexity_reference():
    got = sample_complexity_bound(0.5, 10, 256, 0.01)
    # independent evaluation: expand the logarithm before summing
    log_term = 1.0 + math.log(256.0) - math.log(10.0) + 2.0 * math.log1p(12.0)
    independent = math.ceil((36.0 / math.pi) * 4.0 * (10.0 * log_term + math.log(200.0)))
    ok = got == independent == 4539
    report(6, ok, f"closed form gives {got}, independent evaluation {independent}, reference 4539")
    assert got == independent == 4539


def _brute_force_best_error(v, s):
    best = math.inf
    for S in itertools.combinations(range(v.size), s):
        best = min(best, np.linalg.norm(np.delete(v, S)))
    return best


def test_criterion_7_property_suite(tmp_path):
    checks = []

    gen = RngStream(ACCEPTANCE_SEED, 7).generator()
    worst_gap = 0.0
    for n in range(1, 11):
        for _ in range(100):
            parts = gen.standard_normal((n, 2))
            v = parts.view(np.complex128)[..., 0].copy()
            for s in range(1, n + 1):
                out, _ = hard_threshold(v, s)
                gap = np.linalg.norm(v - out, 2) - _brute_force_best_error(v, s)
                worst_gap = max(worst_gap, abs(gap))
    checks.append(("hard-threshold vs brute force", worst_gap <= 1e-12))

    w = csign(gen.standard_normal(512) + 1j * gen.standard_normal(512))
    unit = float(np.max(np.abs(np.abs(w) - 1.0)))
    idem = float(np.max(np.abs(csign(w) - w)))
    checks.append(("csign unit modulus and idempotence", unit < 1e-12 and idem < 1e-12))

    worst_adj = 0.0
    for _ in range(20):
        A = (gen.standard_normal((8, 5)) + 1j * gen.standard_normal((8, 5)))
        v = gen.standard_normal(5) + 1j * gen.standard_normal(5)
        u = gen.standard_normal(8) + 1j * gen.standard_normal(8)
        lhs = np.vdot(u, A @ v)
        rhs = np.vdot(A.conj().T @ u, v)
        worst_adj = max(worst_adj, abs(lhs - rhs) / max(1.0, abs(lhs)))
    checks.append(("adjoint identity to 1e-12", worst_adj <= 1e-12))

    config = SweepConfig(
        n=32, sparsity_levels=(3,), log2_m_over_n=(-1.0, 0.0),
        schemes=("po", "cs"), trials=40, master_seed=ACCEPTANCE_SEED,
    )
    first = render_csv(run_sweep(config, workers=1))
    again = render_csv(run_sweep(config, workers=1))
    parallel = render_csv(run_sweep(config, workers=2))
    checks.append(("byte-identical CSV across reruns", first == again == parallel))

    ok = all(flag for _, flag in checks)
    report(7, ok, "; ".join(f"{name}: {'ok' if flag else 'FAIL'}" for name, flag in checks))
    for name, flag in checks:
        assert flag, name


@pytest.fixture(scope="module")
def bound_consistency_counts():
    """Trials checked against the distortion-implied error bound, per tau.

    Each trial draws from its own stream, keyed by a string fixed here, so a
    new sweep ``ENGINE`` does not redraw this fixture's data."""
    n, s, m, trials, probes = 256, 10, 64, 1000, 1000
    counts = {}
    for tau in (0.0, 0.2, 0.4):
        violations = 0
        for t in range(trials):
            key = f"stat-v4|po-bound|s={s}|m={m}|tau={tau:.17g}|trial={t}"
            sid = fnv1a64(key.encode("ascii"))
            gen = RngStream(ACCEPTANCE_SEED, sid).generator()
            Phi = sample_sensing_matrix(gen, m, n, "po")
            x0, _ = sample_sparse_signal(gen, n, s)
            z, _ = measure_phase_only(Phi, x0, tau, gen)
            error = direction_error(x0, pbp(Phi, z, s)[0])
            delta = rip_distortion_probe(Phi, 2 * s, probes, gen).delta_lower
            if error > pbp_error_bound(delta, tau) + 1e-12:
                violations += 1
        counts[tau] = violations
    return counts


def test_criterion_8_bound_consistency(bound_consistency_counts):
    total = sum(bound_consistency_counts.values())
    detail = ", ".join(
        f"tau={tau:g}: {v} violations / 1000 trials"
        for tau, v in bound_consistency_counts.items()
    )
    report(8, total == 0, detail + " (expected 0; the bound is loose)")
    assert total == 0, bound_consistency_counts
