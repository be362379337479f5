"""Exactness gate for the batched sweep-trial kernel.

The golden CSVs below were written by the per-trial engine that the kernel
replaced, at the same stream-key version (``rank1-v1``). The kernel keeps
every trial's own stream and its draws, and only regroups the arithmetic,
so a sweep must reproduce those bytes for any worker count. The property
loop replays single trials with the per-trial formulas (``csign`` times the
phase noise, ``np.vdot``, a stable argsort) on the same streams and compares
them with the kernel's batched rows.
"""

import math

import numpy as np
import pytest

import pocs.experiments
import pocs.rng
from pocs import (
    RngStream,
    cli,
    csign,
    run_trial,
    trial_stream_id,
)
from pocs.experiments import _run_trials
from pocs.sensing import _support_value_batch, per_part_sigma

GOLDEN_SWEEP_M = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,0.9091372901,-0.4137052841,0.08157717725
po,1,9,0,70,0,0.1212183053,-9.164317918,0.0476604375
po,3,2,0,70,0,1.078748685,0.3292027943,0.02713610685
po,3,9,0,70,0,0.7115179825,-1.478141193,0.02654174414
cs,1,2,0,70,0,0.9091372901,-0.4137052841,0.08157717725
cs,1,9,0,70,0,0.02020305089,-16.94583042,0.02020305089
cs,3,2,0,70,0,1.067814796,0.2849593418,0.02511620013
cs,3,9,0,70,0,0.6229299639,-2.055607784,0.02286870271
"""

# At s = 1 and m >= n every trial finds the support and the estimate is x0
# times a scalar: those rows are the rounding residue of an exact recovery,
# and their digits pin the order of the floating-point operations too.
GOLDEN_SWEEP_M_EXACT = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,1.252589155,0.9780864732,0.05416680886
po,1,16,0,70,0,1.756361494e-17,-167.5538609,3.806570292e-18
po,1,32,0,70,0,1.538383394e-17,-168.1293542,3.955968139e-18
po,3,2,0,70,0,1.214363357,0.8434865397,0.02697561028
po,3,16,0,70,0,0.6206998121,-2.071183861,0.02069531027
po,3,32,0,70,0,0.4003991799,-3.975068207,0.02000385459
cs,1,2,0,70,0,1.111167799,0.4577964731,0.06985852099
cs,1,16,0,70,0,1.110223025e-17,-169.5458977,4.009654378e-18
cs,1,32,0,70,0,7.930164462e-18,-171.0071781,3.442146299e-18
cs,3,2,0,70,0,1.203635888,0.804951282,0.02532001245
cs,3,16,0,70,0,0.5176817138,-2.859371755,0.01890141602
cs,3,32,0,70,0,0.3593327077,-4.4450325,0.01667008932
"""

GOLDEN_SWEEP_TAU = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,3,8,0,70,0,0.8728679081,-0.5905147351,0.02531450873
po,3,8,0.7,70,0,0.918837584,-0.3676124878,0.02657895282
"""

# n = 8: m = 2 < s = 3 and m = 9 > n; 70 trials span several kernel chunks.
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


def reference_trial(scheme, n, s, m, tau, master_seed, t, gen=None):
    """One trial with the per-trial formulas: (support found, error, failed)."""
    if gen is None:
        gen = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, t)).generator()
    u = gen.random(n + s)
    support = np.sort(np.argpartition(u[:n], s - 1)[:s])
    values = 2.0 * u[n:] - 1.0
    while np.sqrt((values * values).sum()) < 1e-300:
        values = 2.0 * gen.random((1, s))[0] - 1.0
    x0 = np.zeros(n, dtype=np.complex128)
    x0[support] = values / np.sqrt((values * values).sum())
    sigma = per_part_sigma(m, scheme)
    normals = gen.standard_normal((m + n, 2)).view(np.complex128)[:, 0]
    y, g = sigma * normals[:m], normals[m:]
    if scheme == "po":
        z = csign(y) * np.exp(1j * gen.uniform(-tau, tau, size=m))
        z_norm = math.sqrt(m)
    else:
        z = y
        z_norm = float(np.linalg.norm(y))
    scale = sigma * z_norm
    v = scale * g + x0 * (np.vdot(y, z) - scale * np.vdot(x0, g))
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
    seed, start, count = 11, 3, 5
    errors, failed, found, _ = _run_trials(scheme, n, s, m, tau, seed, start, start + count)
    assert found.shape == (count, s)
    for k in range(count):
        ref_found, ref_error, ref_failed = reference_trial(scheme, n, s, m, tau, seed, start + k)
        assert np.array_equal(found[k], ref_found)
        assert bool(failed[k]) == ref_failed
        assert errors[k] == pytest.approx(ref_error, rel=1e-11, abs=1e-13)
    single = run_trial(scheme, n, s, m, tau, seed, start)
    assert single.error == errors[0] and single.failed == failed[0]


class _ZeroValuesFirst:
    """A generator whose first uniform draw has every signal value at 0.5."""

    def __init__(self, gen, n):
        self._gen, self._n, self._first = gen, n, True

    def random(self, size=None, out=None):
        u = self._gen.random(size) if out is None else self._gen.random(out=out)
        if self._first:
            self._first = False
            u[..., self._n:] = 0.5  # values 2u - 1 all zero: no direction
        return u

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_all_zero_signal_values_are_redrawn_before_the_normals(monkeypatch):
    n, s, m, tau, seed, t = 12, 3, 9, 0.4, 5, 2
    plain = RngStream.generator
    monkeypatch.setattr(pocs.rng.RngStream, "generator",
                        lambda self: _ZeroValuesFirst(plain(self), n))
    errors, failed, found, _ = _run_trials("po", n, s, m, tau, seed, t, t + 1)
    stream = RngStream(seed, trial_stream_id("po", s, m, tau, t))
    ref_found, ref_error, _ = reference_trial("po", n, s, m, tau, seed, t, stream.generator())
    assert np.array_equal(found[0], ref_found)
    assert errors[0] == pytest.approx(ref_error, rel=1e-11, abs=1e-13)
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
    errors, failed, _, _ = _run_trials("po", 16, 2, 8, 0.0, 3, 0, 4)
    assert failed.tolist() == [True, False, False, False]
    assert math.isnan(errors[0]) and np.isfinite(errors[1:]).all()
    record = run_trial("po", 16, 2, 8, 0.0, 3, 0)
    assert record.failed and math.isnan(record.error)
