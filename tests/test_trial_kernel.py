"""Exactness gate for the chunked sweep-trial kernel (engine ``stat-v4``).

The golden CSVs below were written by the kernel at this stream-key version.
The property loop replays single trials with per-trial formulas (the chunk's
draws in their documented order, a complex exponential for the phase noise,
``np.vdot``, Renyi's recursion for the off-support moduli), places them in an
n-vector and scores it with the paper's operators, ``hard_threshold`` and
``direction_error``, then compares the result with the kernel's rows. The
laws that replace the m-length draws of ``y = Phi x0``, the phase noise
past pi and the n - s off-support draws are checked against the draws they
stand for with
two-sample Kolmogorov-Smirnov tests, and a trial's error is checked not to
depend on the trial count, the worker count or being replayed alone.
"""

import math
import os

import numpy as np
import pytest

import pocs.experiments
from doubles import (
    Recorder,
    ZeroEveryModulus,
    ZeroModuli,
    ZeroValues,
    real_generator,
    wrap_generators,
)
from pocs import (
    DegenerateEstimateError,
    RngStream,
    SweepConfig,
    cli,
    direction_error,
    hard_threshold,
    run_sweep,
    run_trial,
    trial_stream_id,
)
from pocs.core import VarianceConvention, _support_value_batch, per_part_sigma
from pocs.experiments import (
    _BATCH_ENTRIES,
    _arc_law,
    _chunk_trials,
    _draw_chunk,
    _largest_exponentials,
    _plan_batches,
    _run_batch,
    _run_chunk,
)
from test_engine import ks_statistic

GOLDEN_SWEEP_M = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,1.13137085,0.5360498482,0.06810052246
po,1,9,0,70,0,0.02020305089,-16.94583042,0.02020305089
po,3,2,0,70,0,1.084667447,0.3529660623,0.02929235044
po,3,9,0,70,0,0.6654664458,-1.768738377,0.02221346746
cs,1,2,0,70,0,0.929340341,-0.318252105,0.08081220356
cs,1,9,0,70,0,4.758098677e-18,-173.2256656,2.706983902e-18
cs,3,2,0,70,0,1.073099128,0.30639842,0.02189399457
cs,3,9,0,70,0,0.6783411653,-1.685518269,0.02428158106
"""

# At s = 1 and m >= n a trial almost always finds the support, and the
# estimate is then x0 times a scalar: the rows where all 70 trials do (po and
# cs at m = 16 and 32) are the rounding residue of an exact recovery, and
# their digits pin the order of the floating-point operations too.
GOLDEN_SWEEP_M_EXACT = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,1.252589155,0.9780864732,0.05416680886
po,1,16,0,70,0,1.110223025e-17,-169.5458977,4.009654378e-18
po,1,32,0,70,0,1.110223025e-17,-169.5458977,4.009654378e-18
po,3,2,0,70,0,1.213206514,0.8393473334,0.02539583862
po,3,16,0,70,0,0.6300115906,-2.006514606,0.02563009172
po,3,32,0,70,0,0.3560774272,-4.484555567,0.01886131041
cs,1,2,0,70,0,1.151573901,0.6129181349,0.0662066352
cs,1,16,0,70,0,2.06184276e-17,-166.8574446,5.197526932e-18
cs,1,32,0,70,0,1.586032892e-17,-167.9968781,4.676955843e-18
cs,3,2,0,70,0,1.200385298,0.7932066768,0.02226677222
cs,3,16,0,70,0,0.5465421899,-2.623763074,0.0214119037
cs,3,32,0,70,0,0.3430880889,-4.645943593,0.0157414698
"""

GOLDEN_SWEEP_TAU = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,3,8,0,70,0,0.8707726546,-0.6009521782,0.02485258241
po,3,8,0.7,70,0,0.9727874705,-0.1198203177,0.02317910009
po,3,8,4.71238898,70,0,1.447619811,1.60654518,0.01387936173
po,3,8,6.283185307,70,0,1.405778174,1.479167962,0.01523828244
"""

# n = 8: m = 2 < s = 3 and m = 9 > n; 70 trials are the first rows of one
# chunk (chunks hold thousands of trials at these m).
SWEEP_M_ARGS = ("sweep-m", "--n", "8", "--s", "1", "--s", "3", "--log2-ratio", "-2",
                "--log2-ratio", "0.2", "--trials", "70", "--seed", "7")
SWEEP_M_EXACT_ARGS = ("sweep-m", "--n", "16", "--s", "1", "--s", "3", "--log2-ratio", "-3",
                      "--log2-ratio", "0", "--log2-ratio", "1", "--trials", "70", "--seed", "7")
# tau = 0.7 (q = 0), 1.5 pi (q = 1) and 2 pi (r = 0): the three forms of the noise law
SWEEP_TAU_ARGS = ("sweep-tau", "--n", "16", "--s", "3", "--m", "8", "--tau", "0",
                  "--tau", "0.7", "--tau", "4.71238898038469", "--tau", "6.283185307179586",
                  "--trials", "70", "--seed", "7")


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


# SWEEP_TAU_ARGS as JSON: the config echo, the cells at full precision and
# each cell's zero_sign_hits summed over workers
GOLDEN_SWEEP_TAU_JSON = """\
{
  "engine": "stat-v4",
  "config": {
    "n": 16,
    "sparsity_levels": [
      3
    ],
    "log2_m_over_n": null,
    "m": 8,
    "tau_grid": [
      0.0,
      0.7,
      4.71238898038469,
      6.283185307179586
    ],
    "schemes": [
      "po"
    ],
    "trials": 70,
    "master_seed": 7
  },
  "cells": [
    {
      "scheme": "po",
      "s": 3,
      "m": 8,
      "tau": 0.0,
      "trials": 70,
      "failures": 0,
      "mean_error": 0.8707726546080515,
      "mean_error_db": -0.6009521782490349,
      "stderr_error": 0.02485258241399495,
      "zero_sign_hits": 0
    },
    {
      "scheme": "po",
      "s": 3,
      "m": 8,
      "tau": 0.7,
      "trials": 70,
      "failures": 0,
      "mean_error": 0.9727874704576935,
      "mean_error_db": -0.11982031765961748,
      "stderr_error": 0.023179100092086256,
      "zero_sign_hits": 0
    },
    {
      "scheme": "po",
      "s": 3,
      "m": 8,
      "tau": 4.71238898038469,
      "trials": 70,
      "failures": 0,
      "mean_error": 1.4476198113288308,
      "mean_error_db": 1.6065451799233446,
      "stderr_error": 0.013879361734101,
      "zero_sign_hits": 0
    },
    {
      "scheme": "po",
      "s": 3,
      "m": 8,
      "tau": 6.283185307179586,
      "trials": 70,
      "failures": 0,
      "mean_error": 1.4057781739496396,
      "mean_error_db": 1.4791679619584495,
      "stderr_error": 0.01523828243787678,
      "zero_sign_hits": 0
    }
  ]
}
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_json_matches_golden_bytes(tmp_path, workers):
    out = tmp_path / "sweep.json"
    assert cli.main([*SWEEP_TAU_ARGS, "--format", "json", "--workers", workers,
                     "--out", str(out)]) == 0
    assert out.read_bytes() == GOLDEN_SWEEP_TAU_JSON.encode("utf-8")


# The documented draw order of a chunk: quantity j of chunk c draws from the
# cell's stream jumped 9c + j times.
QUANTITIES = {"v": 0, "redraw": 1, "g": 2, "beta": 3, "gaps": 4, "circle": 5, "c": 6,
              "arc": 7, "law": 8}


def chunk_size(s, m):
    """Trials per chunk: the multiple of 32 whose widest draw, rows x max(m, 2s),
    holds at most 2^16 entries, and at least 32."""
    return 32 * max(1, 2**16 // (32 * max(m, 2 * s)))


def substream(stream, chunk, quantity):
    gen = stream.generator()
    bits = gen.bit_generator
    bits.state = bits.jumped(9 * chunk + QUANTITIES[quantity]).state
    return gen


def reference_trial(scheme, n, s, m, tau, master_seed, t):
    """Trial t with per-trial formulas and the paper's operators: (error, failed).

    Regenerates rows 0 to r of each quantity of chunk c, where t is row r of
    chunk c, in the documented order, and keeps row r. The phase of an arc
    entry is q pi + u, drawn flat also at q = 0. The back-projection goes into
    an n-vector: its entries on the support (placed first), then the k
    off-support moduli, then zeros, which PBP never keeps over them.
    """
    c, r = divmod(t, chunk_size(s, m))
    stream = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, 0))
    v = substream(stream, c, "v").random((r + 1, s))
    redraw = substream(stream, c, "redraw")
    for row in range(r + 1):  # a row whose s values 2v - 1 are all zero is redrawn
        while (2.0 * v[row] - 1.0 == 0.0).all():
            v[row] = redraw.random(s)
    values = 2.0 * v[r] - 1.0
    x0 = values / np.sqrt((values * values).sum())
    normals = substream(stream, c, "g").standard_normal((r + 1, s, 2))
    g = normals[r, :, 0] + 1j * normals[r, :, 1]
    k = min(s, n - s)
    top = np.empty(k)  # top[j - 1] is T_j, the j-th largest of n - s Exp(1)
    if k:
        top[k - 1] = -np.log(substream(stream, c, "beta").beta(k, n - s - k + 1, r + 1)[r])
        gaps = substream(stream, c, "gaps").standard_exponential((r + 1, k - 1))[r]
        for j in range(k - 1, 0, -1):
            top[j - 1] = top[j] + gaps[j - 1] / j
    sigma = per_part_sigma(m, scheme)
    if scheme == "po":
        # K of the m phases are uniform on the circle; the other m - K, the
        # arc entries, are q pi + u with u ~ U[-r, r], flat in row order
        q, half = divmod(tau, math.pi)
        circle, normal = np.zeros(r + 1, dtype=np.int64), np.zeros((r + 1, 2))
        if q:
            circle = substream(stream, c, "circle").binomial(m, q * math.pi / tau, r + 1)
            normal = substream(stream, c, "c").standard_normal((r + 1, 2))
        arcs = m - circle
        before, drawn = arcs[:r].sum(), arcs.sum()
        u = substream(stream, c, "arc").uniform(-half, half, drawn)[before:] if tau > 0 \
            else np.zeros(m)
        exps = substream(stream, c, "law").standard_exponential(drawn)[before:]
        yz = np.sum(sigma * np.sqrt(2.0 * exps) * np.exp(1j * (q * math.pi + u)))
        yz += sigma * math.sqrt(circle[r]) * (normal[r, 0] + 1j * normal[r, 1])  # K circle terms
        scale = sigma * math.sqrt(m)
    else:
        norm_sq = sigma**2 * 2.0 * substream(stream, c, "law").standard_gamma(m, r + 1)[r]
        yz, scale = norm_sq, sigma * math.sqrt(norm_sq)  # ||y||^2 and ||y||_2
    back = np.zeros(n, dtype=np.complex128)
    back[:s] = x0 * yz + scale * (g - x0 * np.vdot(x0, g))
    back[s : s + k] = scale * np.sqrt(2.0 * top)
    signal = np.zeros(n, dtype=np.complex128)
    signal[:s] = x0
    try:
        return direction_error(signal, hard_threshold(back, s)[0]), False
    except DegenerateEstimateError:
        return math.nan, True


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
    seed, size = 11, chunk_size(s, m)
    assert _chunk_trials(s, m) == size
    # rows 0 and 1 of chunk 0, the last two of the whole chunk 0, rows 0 to 2 of chunk 1
    for chunk, rows, checked in ((0, 2, (0, 1)), (0, size, (size - 2, size - 1)),
                                 (1, 3, (0, 1, 2))):
        errors, _ = _run_chunk(scheme, n, s, m, tau, seed, chunk, rows)
        for row in checked:
            t = chunk * size + row
            ref_error, ref_failed = reference_trial(scheme, n, s, m, tau, seed, t)
            assert math.isnan(errors[row]) == ref_failed
            assert errors[row] == pytest.approx(ref_error, rel=1e-12, abs=1e-12)
            assert run_trial(scheme, n, s, m, tau, seed, t) == errors[row]


def test_all_zero_signal_values_are_redrawn_before_the_normals(monkeypatch):
    n, s, m, tau, seed = 12, 3, 9, 0.4, 5
    size = chunk_size(s, m)
    stream = RngStream(seed, trial_stream_id("po", s, m, tau, 0))
    x0, g, *_ = _draw_chunk("po", n, s, m, tau, seed, 1, 8)
    # by hand: row 0 of chunk 1 is redrawn to completion, then row 5, on the
    # redraw sub-stream; the other rows and the normals do not move
    expected = substream(stream, 1, "v").random((8, s))
    redraw = substream(stream, 1, "redraw")
    redraw.random(s)  # the first redraw of row 0, all 0.5 again
    expected[0], expected[5] = redraw.random(s), redraw.random(s)
    values = 2.0 * expected - 1.0
    # rows 0 and 5 of chunk 1 have all values zero, and the first redraw of row 0 too
    wrap_generators(monkeypatch, ZeroValues, 0, [0, 5], again=1)
    errors, _ = _run_chunk("po", n, s, m, tau, seed, 1, 8)
    for t in range(8):
        ref_error, _ = reference_trial("po", n, s, m, tau, seed, size + t)
        assert errors[t] == pytest.approx(ref_error, rel=1e-12, abs=1e-12)
    x0_redrawn, g_redrawn, *_ = _draw_chunk("po", n, s, m, tau, seed, 1, 8)
    assert np.array_equal(x0_redrawn, values / np.sqrt((values * values).sum(axis=1))[:, None])
    assert np.array_equal(np.delete(x0_redrawn, [0, 5], axis=0), np.delete(x0, [0, 5], axis=0))
    assert np.array_equal(g_redrawn, g)
    # rows 0 to 2 do not depend on the rows after them, redrawn or not
    assert np.array_equal(_draw_chunk("po", n, s, m, tau, seed, 1, 3)[0], x0_redrawn[:3])
    # the signal sampler of the full-matrix model and the RIP probe redraws in one pass
    wrap_generators(monkeypatch, ZeroValues, n, [0])
    supports, values = _support_value_batch(stream.generator(), n, s, 1)
    gen = real_generator(stream)
    u = gen.random(n + s)
    redrawn = 2.0 * gen.random((1, s))[0] - 1.0
    assert np.array_equal(supports[0], np.sort(np.argpartition(u[:n], s - 1)[:s]))
    assert np.array_equal(values[0], redrawn / np.sqrt((redrawn * redrawn).sum()))


def test_zero_estimates_fail_their_trials_only(monkeypatch):
    # rho = g = top = 0 zeroes the back-projection on the support and every
    # off-support modulus: the estimate of that row has no direction
    real = pocs.experiments._draw_chunk

    def zero_first_row(*args):
        x0, g, top, rho, zero_signs = real(*args)
        if args[-2] == 0:
            rho[0], g[0], top[0] = 0.0, 0.0, 0.0
        return x0, g, top, rho, zero_signs

    monkeypatch.setattr(pocs.experiments, "_draw_chunk", zero_first_row)
    for scheme, n, s in [("po", 16, 2), ("cs", 16, 2), ("po", 4, 4)]:  # k = 2, 2 and 0
        errors, _ = _run_chunk(scheme, n, s, 8, 0.0, 3, 0, 4)
        assert np.isnan(errors).tolist() == [True, False, False, False]
        assert math.isnan(run_trial(scheme, n, s, 8, 0.0, 3, 0))
        assert not math.isnan(run_trial(scheme, n, s, 8, 0.0, 3, 1))
        cell = run_sweep(SweepConfig(n=n, sparsity_levels=(s,), m=8, schemes=(scheme,),
                                     trials=4, master_seed=3)).cells[0]
        assert cell.failures == 1 and cell.mean_error == errors[1:].mean()


def test_cell_without_a_usable_trial_raises(monkeypatch, capsys):
    # every estimate identically zero: the cell has no direction error to average
    real = pocs.experiments._draw_chunk

    def zero_rows(*args):
        x0, g, top, rho, zero_signs = real(*args)
        rho[:], g[:], top[:] = 0.0, 0.0, 0.0
        return x0, g, top, rho, zero_signs

    monkeypatch.setattr(pocs.experiments, "_draw_chunk", zero_rows)
    config = SweepConfig(n=16, sparsity_levels=(2,), m=8, tau_grid=(0.5,), schemes=("po",),
                         trials=40, master_seed=3)
    with pytest.raises(DegenerateEstimateError, match="cell scheme=po s=2 m=8 tau=0.5"):
        run_sweep(config)
    argv = ["sweep-tau", "--n", "16", "--s", "2", "--m", "8", "--tau", "0.5", "--trials", "40"]
    assert cli.main(argv) == 4
    assert "numerical failure: cell scheme=po s=2 m=8 tau=0.5" in capsys.readouterr().err


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


@pytest.mark.parametrize("pool,k", [(246, 10), (10, 10)])
@pytest.mark.parametrize("rank", ["1", "k"])
def test_largest_exponentials_law(pool, k, rank):
    # the k largest of `pool` Exp(1) draws from a Beta draw and Renyi's gaps,
    # against the same ranks of `pool` sorted Exp(1) draws
    gen = RngStream(44).generator()
    beta = gen.beta(k, pool - k + 1, KS_DRAWS)
    drawn = _largest_exponentials(beta, gen.standard_exponential((KS_DRAWS, k - 1)))
    direct = -np.sort(-gen.standard_exponential((KS_DRAWS, pool)), axis=1)[:, :k]
    assert drawn.shape == (KS_DRAWS, k) and (np.diff(drawn, axis=1) < 0).all()
    col = 0 if rank == "1" else k - 1
    assert ks_statistic(drawn[:, col], direct[:, col]) < KS_CRITICAL


@pytest.fixture
def cell_errors(monkeypatch):
    """``(errors, zero_signs)`` of each cell the sweeps of a test aggregate, in order."""
    seen = []
    aggregate = pocs.experiments._aggregate_cell

    def keep_errors(cell, errors, zero_signs):
        seen.append((errors.copy(), zero_signs))
        return aggregate(cell, errors, zero_signs)

    monkeypatch.setattr(pocs.experiments, "_aggregate_cell", keep_errors)
    return seen


@pytest.mark.parametrize("scheme,tau", [("po", 0.0), ("po", 0.9), ("cs", 0.0)])
def test_trial_errors_do_not_depend_on_trials_workers_or_replay(cell_errors, scheme, tau):
    for trials in (5, 32, 33, 70):
        for workers in (1, 2):
            config = SweepConfig(n=12, sparsity_levels=(3,), m=20, tau_grid=(tau,),
                                 schemes=(scheme,), trials=trials, master_seed=13)
            run_sweep(config, workers=workers)
    longest = cell_errors[-1][0]
    for errors, _ in cell_errors:
        assert np.array_equal(errors, longest[: errors.size])
    alone = [run_trial(scheme, 12, 3, 20, tau, 13, t) for t in range(70)]
    assert np.array_equal(alone, longest)


@pytest.mark.parametrize("tau", [1.5 * math.pi, 2.0 * math.pi, 2.7 * math.pi, 4.0 * math.pi])
def test_mixture_law_of_the_phase_noise(tau):
    # rho from K ~ Binomial(m, p) circle terms, one complex normal and the arc
    # entries, against y^H z / (sigma ||z||_2) = sum_i |y_i| exp(1j xi_i) /
    # (sigma sqrt(m)) with xi_i ~ U[-tau, tau]
    m, sigma = 8, per_part_sigma(8, VarianceConvention.PHASE_ONLY)
    size = _chunk_trials(2, m)  # 8,192: the draws are chunks 0 to 2 of the cell
    rho = np.concatenate([_draw_chunk("po", 4, 2, m, tau, 45, c, min(size, KS_DRAWS - c * size))[3]
                         for c in range(-(-KS_DRAWS // size))])
    gen = RngStream(46).generator()
    modulus = sigma * np.sqrt(2.0 * gen.standard_exponential((KS_DRAWS, m)))
    direct = (modulus * np.exp(1j * gen.uniform(-tau, tau, (KS_DRAWS, m)))).sum(axis=1)
    direct /= sigma * math.sqrt(m)
    for part in (np.real, np.imag, np.abs):
        assert ks_statistic(part(rho), part(direct)) < KS_CRITICAL


RHO_DRAWS = 40_000


def drawn_rho(scheme, m, tau):
    """``rho`` of the first RHO_DRAWS trials of the cell (n, s) = (2, 1), seed 27."""
    size = _chunk_trials(1, m)
    return np.concatenate([_draw_chunk(scheme, 2, 1, m, tau, 27, c,
                                       min(size, RHO_DRAWS - c * size))[3]
                           for c in range(-(-RHO_DRAWS // size))])


def z_score(sample, expected):
    return (sample.mean() - expected) / (sample.std(ddof=1) / math.sqrt(sample.size))


@pytest.mark.parametrize("tau", [0.0, 0.7, math.pi, 1.5 * math.pi, 2.7 * math.pi])
@pytest.mark.parametrize("m", [1, 8, 64])
def test_first_two_moments_of_rho_po(m, tau):
    # rho = sum_i sqrt(2 E_i) exp(1j xi_i) / sqrt(m): with E sqrt(2 E_i) = sqrt(pi / 2)
    # and E exp(1j xi_i) = sin(tau) / tau, E rho = sqrt(pi m / 2) sin(tau) / tau and
    # E |rho|^2 = 2 + (m - 1) (pi / 2) (sin(tau) / tau)^2, past pi (the mixture law) too
    rho = drawn_rho("po", m, tau)
    sinc = math.sin(tau) / tau if tau else 1.0
    assert abs(z_score(rho.real, math.sqrt(math.pi * m / 2.0) * sinc)) < 4.0
    if tau:  # at tau = 0 rho is real
        assert abs(z_score(rho.imag, 0.0)) < 4.0
    assert abs(z_score(np.abs(rho) ** 2, 2.0 + (m - 1) * math.pi / 2.0 * sinc * sinc)) < 4.0


@pytest.mark.parametrize("m", [1, 8, 64])
def test_second_moment_of_rho_cs(m):
    # rho = ||y||_2 / sigma = sqrt(2 Gamma(m, 1)): E rho^2 = 2m
    rho = drawn_rho("cs", m, 0.0)
    assert abs(z_score(rho * rho, 2.0 * m)) < 4.0


def test_mixture_parameters_stay_in_range():
    # tau = k pi, where q steps (r = 0, or k pi as a double lies just off the
    # multiple), its neighbours on both sides, and 1e300, whose quotient by
    # pi is rounded; Generator.binomial raises ValueError (exit 4 on the CLI)
    # for p > 1
    taus = [float(t) for k in range(1, 65) for t in
            (np.nextafter(k * math.pi, 0.0), k * math.pi, np.nextafter(k * math.pi, math.inf))]
    taus.append(1e300)
    for tau in taus:
        q, r, p = _arc_law(tau)
        assert q == int(q) >= 1 or tau < math.pi
        assert 0.0 <= r < math.pi and 0.0 <= p <= 1.0
    result = run_sweep(SweepConfig(n=16, sparsity_levels=(2,), m=8, tau_grid=taus,
                                   schemes=("po",), trials=1, master_seed=1))
    assert [c.failures for c in result.cells] == [0] * len(taus)


@pytest.mark.parametrize("scheme,tau", [("cs", 0.0), ("po", 0.0), ("po", 0.9),
                                        ("po", 1.5 * math.pi), ("po", 2.5 * math.pi)])
def test_range_splits_give_the_bits_of_the_whole_call(monkeypatch, cell_errors, scheme, tau):
    # Any number of rows is a prefix of the same bits, and the chunks
    # concatenated are the sweep's cell. n = 64, s = 3, m = 64: chunks of
    # 1,024 trials, so 2,100 trials are three, the last partial; q = 0, 1 and
    # 2 on the phase-only channel. Every 7th drawn modulus is an exact zero,
    # so the zero-sign counts add up too.
    n, s, m, seed, trials = 64, 3, 64, 9, 2100
    assert _chunk_trials(s, m) == 1024
    wrap_generators(monkeypatch, ZeroEveryModulus, 7)
    run_sweep(SweepConfig(n=n, sparsity_levels=(s,), m=m, tau_grid=(tau,), schemes=(scheme,),
                          trials=trials, master_seed=seed))
    [(cell, cell_zeros)] = cell_errors
    chunks = [_run_chunk(scheme, n, s, m, tau, seed, c, rows)
              for c, rows in ((0, 1024), (1, 1024), (2, 52))]
    assert np.array_equal(np.concatenate([e for e, _ in chunks]), cell, equal_nan=True)
    assert sum(z for _, z in chunks) == cell_zeros
    assert (cell_zeros > 0) == (scheme == "po")
    rng = np.random.default_rng(20261019)
    for c, (whole, whole_zeros) in enumerate(chunks[:2]):
        counted = 0
        for rows in sorted({1, 2, 5, 6, 1023, 1024, *(int(r) for r in rng.integers(1, 1024, 4))}):
            part, zeros = _run_chunk(scheme, n, s, m, tau, seed, c, rows)
            assert np.array_equal(part, whole[:rows], equal_nan=True)
            assert counted <= zeros <= whole_zeros  # the moduli of the rows drawn
            counted = zeros
        assert counted == whole_zeros


@pytest.mark.parametrize("tau", [0.0, 1.5 * math.pi])
def test_run_trial_replays_the_last_row_of_a_full_chunk(cell_errors, tau):
    # (s, m) = (10, 64): chunks of 1,024 trials, as in the paper's tau grid
    run_sweep(SweepConfig(n=256, sparsity_levels=(10,), m=64, tau_grid=(tau,),
                          schemes=("po",), trials=2048, master_seed=4), workers=2)
    assert _chunk_trials(10, 64) == 1024
    for t in (1023, 1024, 2047):
        assert run_trial("po", 256, 10, 64, tau, 4, t) == cell_errors[0][0][t]


@pytest.mark.parametrize("scheme,tau", [("po", 0.0), ("po", 0.9), ("cs", 0.0),
                                        ("po", 1.5 * math.pi), ("po", 2.0 * math.pi)])
def test_run_trial_equals_the_rows_of_a_range(scheme, tau):
    size = chunk_size(4, 9)
    # the last 40 rows of chunk 0 and the first 30 of chunk 1, across the edge
    errors = np.concatenate([_run_chunk(scheme, 20, 4, 9, tau, 5, 0, size)[0][-40:],
                             _run_chunk(scheme, 20, 4, 9, tau, 5, 1, 30)[0]])
    for t in (size - 40, size - 1, size, size + 1):
        assert run_trial(scheme, 20, 4, 9, tau, 5, t) == errors[t - size + 40]


@pytest.mark.parametrize("s", [3, 24])  # k = 3, and s = n: k = 0
def test_a_batch_scores_each_chunk_as_it_scores_alone(monkeypatch, s):
    # chunks of six cells at one s, po and cs, tau = 0, 0.9, 1.5 pi and 2 pi, whole
    # and partial, scored in one pass: each row gives the bits it gives in its own
    # chunk, and each chunk its own zero count. Every 5th drawn modulus is an exact zero.
    n, seed = 24, 21
    wrap_generators(monkeypatch, ZeroEveryModulus, 5)
    cells = [("cs", 5, 0.0), ("po", 40, 0.9), ("po", 2048, 1.5 * math.pi),
             ("cs", 2048, 0.0), ("po", 5, 2.0 * math.pi), ("po", 40, 0.0)]
    tasks = [(scheme, n, s, m, tau, seed, c, rows) for scheme, m, tau in cells
             for c, rows in ((0, _chunk_trials(s, m)), (1, 11))]
    errors, zeros = _run_batch(tasks)
    alone = [_run_chunk(*task) for task in tasks]
    assert np.array_equal(errors, np.concatenate([e for e, _ in alone]), equal_nan=True)
    assert zeros == [z for _, z in alone]
    # every po chunk draws moduli but those at tau = 2 pi, where every entry is a circle term
    assert [z > 0 for z in zeros] == [t[0] == "po" and t[4] < 6 for t in tasks]


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_batches_cover_every_chunk_once_within_the_budget(monkeypatch, workers):
    # 27 cells of 3,000 trials: 975 chunks of 32 to 2,048 trials, the last partial.
    # The largest batch the budget allows holds 82 chunks, so 8 workers' cap of 31 binds
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    n, trials, seed = 256, 3000, 7
    cells = [(scheme, s, m, tau) for scheme, tau in (("po", 0.0), ("po", 0.9), ("cs", 0.0))
             for s in (1, 10, 50) for m in (16, 256, 4096)]
    size, batches = _plan_batches(cells, n, trials, seed, workers)
    chunks = [  # (cell index, first trial, _draw_chunk's arguments), in nesting order
        (ci, c * rows, (scheme, n, s, m, tau, seed, c, min(rows, trials - c * rows)))
        for ci, (scheme, s, m, tau) in enumerate(cells)
        for rows in (_chunk_trials(s, m),)
        for c in range(-(-trials // rows))
    ]
    assert size == workers
    planned = [chunk for batch in batches for chunk in batch]
    assert sorted(planned) == sorted(chunks)
    for s in (1, 10, 50):  # each s in nesting order
        assert [c for c in planned if c[2][2] == s] == [c for c in chunks if c[2][2] == s]
    cap = -(-len(chunks) // (4 * workers)) if workers > 1 else len(chunks)
    for batch in batches:
        [s] = {task[2] for *_, task in batch}
        assert 1 <= len(batch) <= cap
        assert len(batch) == 1 or sum(2 * s * task[-1] for *_, task in batch) <= _BATCH_ENTRIES
    # the benchmark's criterion-3 cells, 8 trials each, score in one pass per s
    cells = [(scheme, s, 4096, 0.0) for scheme in ("po", "cs") for s in (2, 50)]
    assert [len(b) for b in _plan_batches(cells, n, 8, seed, 1)[1]] == [2, 2]


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def test_substreams_are_not_correlated():
    # At the same position, the 64-bit outputs of two independent streams
    # differ in 32 bits on average, with a standard error of 4 / sqrt(N) for
    # the mean over N outputs. Sub-streams a multiple of 2^64 outputs apart
    # share the low half of the LCG state: they read z of -7 to -11 here.
    n = 1 << 19
    stream = RngStream(17, trial_stream_id("po", 10, 64, 0.0, 0))
    raw = {key: substream(stream, *key).bit_generator.random_raw(n)
           for key in [(0, "v"), (0, "redraw"), (0, "g"), (0, "law"), (1, "v"), (2, "g")]}
    for a, b in [((0, "v"), (0, "redraw")), ((0, "v"), (0, "g")), ((0, "g"), (0, "law")),
                 ((0, "v"), (1, "v")), ((0, "v"), (2, "g")), ((0, "law"), (1, "v"))]:
        differ = _POPCOUNT[(raw[a] ^ raw[b]).view(np.uint8)].sum() / n
        assert abs(differ - 32.0) < 5 * 4 / math.sqrt(n), (a, b)


def test_range_chunks_run_on_the_cell_stream(monkeypatch):
    # a call builds one generator, on the stream id of the cell's trial 0
    # (-0.0 keys as the cell 0.0), and quantity j of chunk c starts 9c + j
    # jumps into it and draws the rows asked for
    log = []
    ids = wrap_generators(monkeypatch, Recorder, log)
    n, s, m, seed = 40, 2, 2048, 1
    assert _chunk_trials(s, m) == 32
    for scheme, tau, quantities in [
        ("cs", 0.0, ["v", "g", "beta", "gaps", "law"]),
        ("po", -0.0, ["v", "g", "beta", "gaps", "law"]),
        ("po", 0.5, ["v", "g", "beta", "gaps", "arc", "law"]),
        ("po", 1.5 * math.pi, ["v", "g", "beta", "gaps", "circle", "c", "arc", "law"]),
    ]:
        ids.clear()
        log.clear()
        for chunk, rows in ((2, 32), (3, 4)):
            _draw_chunk(scheme, n, s, m, tau, seed, chunk, rows)
        assert ids == [trial_stream_id(scheme, s, m, abs(tau), 0)] * 2
        methods = {"v": "random", "g": "standard_normal", "beta": "beta",
                   "gaps": "standard_exponential", "circle": "binomial", "c": "standard_normal",
                   "arc": "uniform",
                   "law": "standard_gamma" if scheme == "cs" else "rayleigh"}
        stream = RngStream(seed, ids[0])
        expected = [
            (methods[name], substream(stream, c, name).bit_generator.state["state"]["state"])
            for c in (2, 3) for name in quantities
        ]
        assert [(name, state) for name, _, state in log] == expected
        assert [log[0][1], log[len(quantities)][1]] == [(32, s), (4, s)]  # values: 32 rows, 4


@pytest.mark.parametrize("rows,row,hits", [(32, 3, 2)])
def test_zero_signs_count_the_rows_asked_for_only(monkeypatch, rows, row, hits):
    # the first 32 rows of chunk 0, whose row 3 has two zero moduli: the
    # zeros of every row drawn are counted, without phase noise too; at
    # 1.5 pi (q = 1) the moduli are flat and drawn for the arc entries only
    for m, tau in ((8, 0.0), (8, 0.5), (64, 1.5 * math.pi)):
        assert _chunk_trials(2, m) >= rows
        wrap_generators(monkeypatch, ZeroModuli, m, row)
        *_, zero_signs = _draw_chunk("po", 16, 2, m, tau, 3, 0, rows)
        assert zero_signs == hits


def test_range_memory_is_bounded():
    # one chunk of the 10,000 trials would hold several (10000, 1024) arrays
    # (240 MiB at tau > 0); capped, a chunk's draws are 64 x 1024 entries
    import tracemalloc

    config = SweepConfig(n=256, sparsity_levels=(10,), m=1024, tau_grid=(0.5,),
                         schemes=("po",), trials=10_000, master_seed=1)
    tracemalloc.start()
    try:
        run_sweep(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # eight float64 buffers of 2^16 entries
