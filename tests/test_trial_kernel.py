"""Exactness gate for the chunked sweep-trial kernel (engine ``stat-v1``).

The golden CSVs below were written by the kernel at this stream-key version.
The property loop replays single trials with per-trial formulas (the chunk's
draws in their documented order, a complex exponential for the phase noise,
``np.vdot``, a stable argsort) and compares them with the kernel's rows. The
scalar laws that replace the m-length draws of ``y = Phi x0`` are checked
against the draws they stand for with two-sample Kolmogorov-Smirnov tests,
and a trial's error is checked not to depend on the trial count, the worker
count or being replayed alone.
"""

import math

import numpy as np
import pytest

import pocs.experiments
import pocs.rng
from pocs import (
    RngStream,
    SweepConfig,
    cli,
    run_sweep,
    run_trial,
    trial_stream_id,
)
from pocs.experiments import _draw_chunk, _run_chunk
from pocs.sensing import _support_value_batch, per_part_sigma
from test_engine import ks_statistic

GOLDEN_SWEEP_M = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,0.9899494937,-0.04386962154,0.07801894976
po,1,9,0,70,0,0.06060915267,-12.17461787,0.0344818407
po,3,2,0,70,0,1.067627629,0.2841980427,0.02761644679
po,3,9,0,70,0,0.7003439844,-1.546885974,0.02257151942
cs,1,2,0,70,0,0.9091372901,-0.4137052841,0.08157717725
cs,1,9,0,70,0,0.02020305089,-16.94583042,0.02020305089
cs,3,2,0,70,0,1.115637496,0.4752310242,0.02531598973
cs,3,9,0,70,0,0.6431586875,-1.916818597,0.02573563292
"""

# At s = 1 and m >= n every trial finds the support and the estimate is x0
# times a scalar: those rows are the rounding residue of an exact recovery,
# and their digits pin the order of the floating-point operations too.
GOLDEN_SWEEP_M_EXACT = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,1.171776952,0.6884495138,0.06416482768
po,1,16,0,70,0,9.516197354e-18,-170.2153656,3.741564675e-18
po,1,32,0,70,0,2.06184276e-17,-166.8574446,5.197526932e-18
po,3,2,0,70,0,1.216516606,0.8511804152,0.02159810768
po,3,16,0,70,0,0.6026210962,-2.199556689,0.02351176179
po,3,32,0,70,0,0.4347644379,-3.617459868,0.01679661411
cs,1,2,0,70,0,1.030355595,0.1298713392,0.07571018388
cs,1,16,0,70,0,1.268826314e-17,-168.9659782,4.252344905e-18
cs,1,32,0,70,0,1.268826314e-17,-168.9659782,4.252344905e-18
cs,3,2,0,70,0,1.20829533,0.8217309705,0.02307227818
cs,3,16,0,70,0,0.5364953542,-2.704340345,0.02084499451
cs,3,32,0,70,0,0.3150669085,-5.015972084,0.01668870251
"""

GOLDEN_SWEEP_TAU = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,3,8,0,70,0,0.8606833523,-0.6515659724,0.02589350482
po,3,8,0.7,70,0,0.9023139621,-0.4464232243,0.02984996498
"""

# n = 8: m = 2 < s = 3 and m = 9 > n; 70 trials span three chunks, the last
# one partial.
SWEEP_M_ARGS = ("sweep-m", "--n", "8", "--s", "1", "--s", "3", "--log2-ratio", "-2",
                "--log2-ratio", "0.2", "--trials", "70", "--seed", "7")
SWEEP_M_EXACT_ARGS = ("sweep-m", "--n", "16", "--s", "1", "--s", "3", "--log2-ratio", "-3",
                      "--log2-ratio", "0", "--log2-ratio", "1", "--trials", "70", "--seed", "7")
SWEEP_TAU_ARGS = ("sweep-tau", "--n", "16", "--s", "3", "--m", "8", "--tau", "0",
                  "--tau", "0.7", "--trials", "70", "--seed", "7")


@pytest.mark.parametrize("workers", ["1", "2"])
@pytest.mark.parametrize(
    "args,golden",
    [
        (SWEEP_M_ARGS, GOLDEN_SWEEP_M),
        (SWEEP_M_EXACT_ARGS, GOLDEN_SWEEP_M_EXACT),
        (SWEEP_TAU_ARGS, GOLDEN_SWEEP_TAU),
    ],
    ids=["sweep-m", "sweep-m-exact", "sweep-tau"],
)
def test_sweep_csv_matches_golden_bytes(tmp_path, args, golden, workers):
    out = tmp_path / "sweep.csv"
    assert cli.main([*args, "--workers", workers, "--out", str(out)]) == 0
    assert out.read_bytes() == golden.encode("utf-8")


def reference_trial(scheme, n, s, m, tau, master_seed, t):
    """Trial t with per-trial formulas: (support found, error, failed).

    Regenerates chunk t // 32 in the documented draw order and keeps row
    r = t % 32 of each draw.
    """
    chunk0, r = t - t % 32, t % 32
    gen = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, chunk0)).generator()
    u = gen.random((32, n + s))
    while True:  # rows whose s values 2u - 1 are all zero are redrawn together
        bad = np.flatnonzero((2.0 * u[:, n:] - 1.0 == 0.0).all(axis=1))
        if bad.size == 0:
            break
        u[bad, n:] = gen.random((bad.size, s))
    support = np.sort(np.argpartition(u[r, :n], s - 1)[:s])
    values = 2.0 * u[r, n:] - 1.0
    x0 = np.zeros(n, dtype=np.complex128)
    x0[support] = values / np.sqrt((values * values).sum())
    normals = gen.standard_normal((32, n, 2))
    g = normals[r, :, 0] + 1j * normals[r, :, 1]
    sigma = per_part_sigma(m, scheme)
    if scheme == "po":
        xi = gen.uniform(-tau, tau, (32, m))[r] if tau > 0 else np.zeros(m)
        modulus = sigma * np.sqrt(2.0 * gen.standard_exponential((r + 1, m))[r])
        yz = np.sum(modulus * np.exp(1j * xi))
        scale = sigma * math.sqrt(m)
    else:
        norm_sq = sigma**2 * 2.0 * gen.standard_gamma(m, r + 1)[r]  # ||y||^2
        yz, scale = norm_sq, sigma * math.sqrt(norm_sq)
    v = scale * g + x0 * (yz - scale * np.vdot(x0, g))
    found = np.sort(np.argsort(-np.abs(v), kind="stable")[:s])
    estimate = np.zeros_like(v)
    estimate[found] = v[found]
    nrm = np.linalg.norm(estimate)
    if nrm == 0.0:
        return found, math.nan, True
    return found, float(np.linalg.norm(x0 - estimate / nrm)), False


def random_cases(count):
    rng = np.random.default_rng(20261018)
    cases = [("po", 1, 1, 1, 0.0), ("cs", 1, 1, 1, 0.0)]  # smallest instance
    while len(cases) < count:
        scheme = ("po", "cs")[int(rng.integers(2))]
        n = int(rng.integers(1, 40))
        s = int(rng.choice([1, n, int(rng.integers(1, n + 1))]))
        m = int(rng.choice([int(rng.integers(1, s + 1)), n + int(rng.integers(1, 30)),
                            int(rng.integers(1, 3 * n + 2))]))
        tau = 0.0 if scheme == "cs" or rng.random() < 0.3 else float(rng.uniform(0, 2 * math.pi))
        cases.append((scheme, n, s, m, tau))
    return cases


@pytest.mark.parametrize("scheme,n,s,m,tau", random_cases(80))
def test_kernel_rows_equal_per_trial_reference(scheme, n, s, m, tau):
    seed = 11
    for start, stop in ((30, 32), (32, 35)):  # rows 30 and 31 of chunk 0, rows 0 to 2 of chunk 1
        errors, found, _ = _run_chunk(scheme, n, s, m, tau, seed, start, stop)
        assert found.shape == (stop - start, s)
        for k, t in enumerate(range(start, stop)):
            ref_found, ref_error, ref_failed = reference_trial(scheme, n, s, m, tau, seed, t)
            assert np.array_equal(found[k], ref_found)
            assert math.isnan(errors[k]) == ref_failed
            assert errors[k] == pytest.approx(ref_error, rel=1e-11, abs=1e-13)
            assert run_trial(scheme, n, s, m, tau, seed, t) == errors[k]


class _ZeroValuesFirst:
    """A generator whose first uniform draw has every signal value of the
    given rows at 0.5."""

    def __init__(self, gen, n, rows):
        self._gen, self._n, self._rows, self._first = gen, n, rows, True

    def random(self, size=None):
        u = self._gen.random(size)
        if self._first:
            self._first = False
            u[[r for r in self._rows if r < len(u)], self._n:] = 0.5  # values 2u - 1 all zero
        return u

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_all_zero_signal_values_are_redrawn_before_the_normals(monkeypatch):
    n, s, m, tau, seed = 12, 3, 9, 0.4, 5
    plain = RngStream.generator
    monkeypatch.setattr(pocs.rng.RngStream, "generator",
                        lambda self: _ZeroValuesFirst(plain(self), n, [0, 5]))
    errors, found, _ = _run_chunk("po", n, s, m, tau, seed, 0, 8)
    for t in range(8):
        ref_found, ref_error, _ = reference_trial("po", n, s, m, tau, seed, t)
        assert np.array_equal(found[t], ref_found)
        assert errors[t] == pytest.approx(ref_error, rel=1e-11, abs=1e-13)
    # by hand: the two rows' values come from one draw right after the
    # (32, n + s) uniforms, in row order, and the normals follow it
    stream = RngStream(seed, trial_stream_id("po", s, m, tau, 0))
    u, _, _, g, _ = _draw_chunk("po", n, s, m, tau, seed, 0, 8)
    gen = plain(stream)
    expected = gen.random((32, n + s))
    expected[[0, 5], n:] = gen.random((2, s))
    assert np.array_equal(u, expected[:8])
    assert np.array_equal(g, gen.standard_normal((32, 2 * n)).view(np.complex128)[:8])
    # the signal sampler that the RIP probe uses redraws the same way
    supports, values = _support_value_batch(stream.generator(), n, s, 1)
    gen = plain(stream)
    u = gen.random(n + s)
    redrawn = 2.0 * gen.random((1, s))[0] - 1.0
    assert np.array_equal(supports[0], np.sort(np.argpartition(u[:n], s - 1)[:s]))
    assert np.array_equal(values[0], redrawn / np.sqrt((redrawn * redrawn).sum()))


def test_zero_estimates_fail_their_trials_only(monkeypatch):
    real = pocs.experiments._combine_back_projection

    def zero_first_row(x0, yz, scale, g):
        v = real(x0, yz, scale, g)
        v[0] = 0.0
        return v

    monkeypatch.setattr(pocs.experiments, "_combine_back_projection", zero_first_row)
    errors, _, _ = _run_chunk("po", 16, 2, 8, 0.0, 3, 0, 4)
    assert np.isnan(errors).tolist() == [True, False, False, False]
    assert math.isnan(run_trial("po", 16, 2, 8, 0.0, 3, 0))
    cell = run_sweep(SweepConfig(n=16, sparsity_levels=(2,), m=8, schemes=("po",),
                                 trials=4, master_seed=3)).cells[0]
    assert cell.failures == 1 and cell.mean_error == errors[1:].mean()


KS_DRAWS = 20_000
KS_CRITICAL = 1.63 * math.sqrt(2.0 / KS_DRAWS)  # two-sample, 1% level


def test_rayleigh_moduli_law():
    # |y_i| = sigma |N1 + i N2| is drawn as sigma sqrt(2 E) with E ~ Exp(1)
    gen = RngStream(41).generator()
    sigma = per_part_sigma(64, "po")
    drawn = sigma * np.sqrt(2.0 * gen.standard_exponential(KS_DRAWS))
    normals = gen.standard_normal((KS_DRAWS, 2))
    direct = np.abs(sigma * (normals[:, 0] + 1j * normals[:, 1]))
    assert ks_statistic(drawn, direct) < KS_CRITICAL


@pytest.mark.parametrize("m", [1, 7, 64])
def test_chi_square_norm_law(m):
    # ||y||^2 / sigma^2, the squared norm of 2m standard normals, is chi^2(2m),
    # drawn as 2 Gamma(m, 1)
    gen = RngStream(42).generator()
    drawn = 2.0 * gen.standard_gamma(m, KS_DRAWS)
    direct = np.square(gen.standard_normal((KS_DRAWS, 2 * m))).sum(axis=1)
    assert ks_statistic(drawn, direct) < KS_CRITICAL


@pytest.mark.parametrize("scheme,tau", [("po", 0.0), ("po", 0.9), ("cs", 0.0)])
def test_trial_errors_do_not_depend_on_trials_workers_or_replay(monkeypatch, scheme, tau):
    seen = {}
    aggregate = pocs.experiments._aggregate_cell

    def keep_errors(cell, errors, zero_signs):
        seen[key] = errors.copy()
        return aggregate(cell, errors, zero_signs)

    monkeypatch.setattr(pocs.experiments, "_aggregate_cell", keep_errors)
    for trials in (5, 32, 33, 70):
        for workers in (1, 2):
            key = trials, workers
            config = SweepConfig(n=12, sparsity_levels=(3,), m=20, tau_grid=(tau,),
                                 schemes=(scheme,), trials=trials, master_seed=13)
            run_sweep(config, workers=workers)
    longest = seen[70, 1]
    for (trials, _), errors in seen.items():
        assert np.array_equal(errors, longest[:trials])
    alone = [run_trial(scheme, 12, 3, 20, tau, 13, t) for t in range(70)]
    assert np.array_equal(alone, longest)


def test_moduli_row_blocks_do_not_change_the_draws(monkeypatch):
    # past _MAX_ENTRIES entries the (rows, m) draws run in row blocks, and the
    # phase noise is then read beside them from a copy of the stream
    plain = {  # rows 27 to 39, on both sides of the chunk edge at 32
        (tau, a, b): _run_chunk("po", 10, 2, 50, tau, 3, a, b)
        for tau in (0.0, 1.2)
        for a, b in ((27, 32), (32, 40))
    }
    monkeypatch.setattr(pocs.experiments, "_MAX_ENTRIES", 3 * 50)
    for (tau, a, b), expected in plain.items():
        blocked = _run_chunk("po", 10, 2, 50, tau, 3, a, b)
        for got, want in zip(blocked, expected):
            assert np.array_equal(got, want)
