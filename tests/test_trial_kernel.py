"""Exactness gate for the chunked sweep-trial kernel (engine ``stat-v3``).

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

import numpy as np
import pytest

import pocs.experiments
import pocs.rng
from pocs import (
    RngStream,
    SweepConfig,
    cli,
    direction_error,
    hard_threshold,
    run_sweep,
    run_trial,
    trial_stream_id,
)
from pocs.experiments import _arc_law, _draw_chunk, _largest_exponentials, _run_chunk
from pocs.recon import DegenerateEstimateError
from pocs.sensing import VarianceConvention, _support_value_batch, per_part_sigma
from test_engine import ks_statistic

GOLDEN_SWEEP_M = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,0.9697464428,-0.1334180481,0.07903589426
po,1,9,0,70,0,0.04040610178,-13.93553047,0.02836363361
po,3,2,0,70,0,1.117959162,0.4842593959,0.02303545453
po,3,9,0,70,0,0.7044199879,-1.521683294,0.02258337061
cs,1,2,0,70,0,0.8081220356,-0.9252305085,0.08425254637
cs,1,9,0,70,0,0.02020305089,-16.94583042,0.02020305089
cs,3,2,0,70,0,1.064233869,0.2703707615,0.02455712096
cs,3,9,0,70,0,0.6288562042,-2.014486501,0.02347435503
"""

# At s = 1 and m >= n a trial almost always finds the support, and the
# estimate is then x0 times a scalar: the rows where all 70 trials do (po at
# m = 32, cs at m = 16 and 32) are the rounding residue of an exact recovery,
# and their digits pin the order of the floating-point operations too.
GOLDEN_SWEEP_M_EXACT = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,1,2,0,70,0,1.272792206,1.047575073,0.05107539185
po,1,16,0,70,0,0.02020305089,-16.94583042,0.02020305089
po,1,32,0,70,0,1.110223025e-17,-169.5458977,4.009654378e-18
po,3,2,0,70,0,1.240487233,0.9359229901,0.01971179366
po,3,16,0,70,0,0.6209823205,-2.069207641,0.02151712805
po,3,32,0,70,0,0.4015949654,-3.962117404,0.02148770761
cs,1,2,0,70,0,1.070761697,0.2969282742,0.07300537027
cs,1,16,0,70,0,1.744636182e-17,-167.5829513,4.864183977e-18
cs,1,32,0,70,0,1.586032892e-17,-167.9968781,4.676955843e-18
cs,3,2,0,70,0,1.187216807,0.7453003614,0.02335282701
cs,3,16,0,70,0,0.5167933689,-2.866830675,0.01961577262
cs,3,32,0,70,0,0.3425908793,-4.652242033,0.0149740679
"""

GOLDEN_SWEEP_TAU = """\
scheme,s,m,tau,trials,failures,mean_error,mean_error_db,stderr_error
po,3,8,0,70,0,0.8629816704,-0.6399842854,0.02538899512
po,3,8,0.7,70,0,0.8842488966,-0.5342547342,0.02600964102
po,3,8,4.71238898,70,0,1.45742478,1.635861493,0.0161336784
po,3,8,6.283185307,70,0,1.393380602,1.440697602,0.01901873679
"""

# n = 8: m = 2 < s = 3 and m = 9 > n; 70 trials span three chunks, the last
# one partial.
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


def reference_trial(scheme, n, s, m, tau, master_seed, t):
    """Trial t with per-trial formulas and the paper's operators: (error, failed).

    Regenerates chunk c = t // 32, c 2^64 outputs into the cell's stream,
    in the documented draw order and keeps row r = t % 32 of each draw. The
    phase of an arc entry is q pi + u. The back-projection goes into an
    n-vector: its entries on the support (placed first), then the k
    off-support moduli, then zeros, which PBP never keeps over them.
    """
    r = t % 32
    gen = RngStream(master_seed, trial_stream_id(scheme, s, m, tau, 0)).generator()
    gen.bit_generator.advance(t // 32 << 64)
    v = gen.random((32, s))
    while True:  # rows whose s values 2v - 1 are all zero are redrawn together
        bad = np.flatnonzero((2.0 * v - 1.0 == 0.0).all(axis=1))
        if bad.size == 0:
            break
        v[bad] = gen.random((bad.size, s))
    values = 2.0 * v[r] - 1.0
    x0 = values / np.sqrt((values * values).sum())
    normals = gen.standard_normal((32, s, 2))
    g = normals[r, :, 0] + 1j * normals[r, :, 1]
    k = min(s, n - s)
    top = np.empty(k)  # top[j - 1] is T_j, the j-th largest of n - s Exp(1)
    if k:
        top[k - 1] = -np.log(gen.beta(k, n - s - k + 1, 32)[r])
        gaps = gen.standard_exponential((32, k - 1))[r]
        for j in range(k - 1, 0, -1):
            top[j - 1] = top[j] + gaps[j - 1] / j
    sigma = per_part_sigma(m, scheme)
    if scheme == "po":
        # K of the m phases are uniform on the circle; the other m - K, the
        # arc entries, are q pi + u with u ~ U[-r, r], flat in row order
        q, half = divmod(tau, math.pi)
        circle, c = np.zeros(32, dtype=np.int64), np.zeros((32, 2))
        if q:
            circle, c = gen.binomial(m, q * math.pi / tau, 32), gen.standard_normal((32, 2))
        arcs = m - circle
        before = arcs[:r].sum()
        u = gen.uniform(-half, half, arcs.sum())[before:] if tau > 0 else np.zeros(m)
        modulus = sigma * np.sqrt(2.0 * gen.standard_exponential(before + arcs[r])[before:])
        yz = np.sum(modulus * np.exp(1j * (q * math.pi + u[: arcs[r]])))
        yz += sigma * math.sqrt(circle[r]) * (c[r, 0] + 1j * c[r, 1])  # the K circle terms
        scale = sigma * math.sqrt(m)
    else:
        norm_sq = sigma**2 * 2.0 * gen.standard_gamma(m, r + 1)[r]  # ||y||^2
        yz, scale = norm_sq, sigma * math.sqrt(norm_sq)
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
    seed = 11
    for start, stop in ((30, 32), (32, 35)):  # rows 30 and 31 of chunk 0, rows 0 to 2 of chunk 1
        errors, _ = _run_chunk(scheme, n, s, m, tau, seed, start, stop)
        for k, t in enumerate(range(start, stop)):
            ref_error, ref_failed = reference_trial(scheme, n, s, m, tau, seed, t)
            assert math.isnan(errors[k]) == ref_failed
            assert errors[k] == pytest.approx(ref_error, rel=1e-12, abs=1e-12)
            assert run_trial(scheme, n, s, m, tau, seed, t) == errors[k]


class _ZeroValuesFirst:
    """A generator whose first uniform draw has every value of the given
    rows at 0.5, past the first ``n`` columns."""

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
                        lambda self: _ZeroValuesFirst(plain(self), 0, [0, 5]))
    errors, _ = _run_chunk("po", n, s, m, tau, seed, 0, 8)
    for t in range(8):
        ref_error, _ = reference_trial("po", n, s, m, tau, seed, t)
        assert errors[t] == pytest.approx(ref_error, rel=1e-12, abs=1e-12)
    # by hand: the two rows' values come from one draw right after the
    # (32, s) uniforms, in row order, and the normals follow it
    stream = RngStream(seed, trial_stream_id("po", s, m, tau, 0))
    x0, g, *_ = _draw_chunk("po", n, s, m, tau, seed, 0, 8)
    gen = plain(stream)
    expected = gen.random((32, s))
    expected[[0, 5]] = gen.random((2, s))
    values = 2.0 * expected[:8] - 1.0
    assert np.array_equal(x0, values / np.sqrt((values * values).sum(axis=1))[:, None])
    assert np.array_equal(g, gen.standard_normal((32, 2 * s)).view(np.complex128)[:8])
    # the signal sampler of the full-matrix model and the RIP probe redraws the same way
    monkeypatch.setattr(pocs.rng.RngStream, "generator",
                        lambda self: _ZeroValuesFirst(plain(self), n, [0]))
    supports, values = _support_value_batch(stream.generator(), n, s, 1)
    gen = plain(stream)
    u = gen.random(n + s)
    redrawn = 2.0 * gen.random((1, s))[0] - 1.0
    assert np.array_equal(supports[0], np.sort(np.argpartition(u[:n], s - 1)[:s]))
    assert np.array_equal(values[0], redrawn / np.sqrt((redrawn * redrawn).sum()))


def test_zero_estimates_fail_their_trials_only(monkeypatch):
    # yz = scale = 0 zeroes the back-projection on the support and every
    # off-support modulus: the estimate of that row has no direction
    real = pocs.experiments._draw_chunk

    def zero_first_row(*args):
        x0, g, top, yz, scale, zero_signs = real(*args)
        if args[-2] == 0:
            yz[0] = scale[0] = 0.0
        return x0, g, top, yz, scale, zero_signs

    monkeypatch.setattr(pocs.experiments, "_draw_chunk", zero_first_row)
    for scheme, n, s in [("po", 16, 2), ("cs", 16, 2), ("po", 4, 4)]:  # k = 2, 2 and 0
        errors, _ = _run_chunk(scheme, n, s, 8, 0.0, 3, 0, 4)
        assert np.isnan(errors).tolist() == [True, False, False, False]
        assert math.isnan(run_trial(scheme, n, s, 8, 0.0, 3, 0))
        assert not math.isnan(run_trial(scheme, n, s, 8, 0.0, 3, 1))
        cell = run_sweep(SweepConfig(n=n, sparsity_levels=(s,), m=8, schemes=(scheme,),
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


@pytest.mark.parametrize("tau", [1.5 * math.pi, 2.0 * math.pi, 2.7 * math.pi, 4.0 * math.pi])
def test_mixture_law_of_the_phase_noise(tau):
    # y^H z from K ~ Binomial(m, p) circle terms, one complex normal and the
    # arc entries, against sum_i |y_i| exp(1j xi_i) with xi_i ~ U[-tau, tau]
    m, sigma = 8, per_part_sigma(8, VarianceConvention.PHASE_ONLY)
    yz = _draw_chunk("po", 4, 2, m, tau, 45, 0, KS_DRAWS)[3]
    gen = RngStream(46).generator()
    modulus = sigma * np.sqrt(2.0 * gen.standard_exponential((KS_DRAWS, m)))
    direct = (modulus * np.exp(1j * gen.uniform(-tau, tau, (KS_DRAWS, m)))).sum(axis=1)
    for part in (np.real, np.imag, np.abs):
        assert ks_statistic(part(yz), part(direct)) < KS_CRITICAL


def test_mixture_parameters_stay_in_range():
    # tau = k pi, where q steps (r = 0, or k pi as a double lies just off the
    # multiple), its neighbours on both sides, and 1e300, whose quotient by
    # pi is rounded; Generator.binomial raises ValueError (exit 2 on the CLI)
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


# n = 64, s = 3, m = 64: 1,024 trials (32 chunks) per range under the 2^16
# cap, so 1,100 trials make two ranges per cell, the last chunk partial
RANGE_ARGS = ("sweep-tau", "--n", "64", "--s", "3", "--m", "64", "--tau", "0",
              "--tau", "0.7", "--trials", "1100", "--seed", "7")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_range_cap_does_not_change_the_bytes(monkeypatch, tmp_path, fmt):
    outs = {}
    for label, cap in [("one chunk", 1), ("2^16", 2**16), ("whole cell", 2**40)]:
        monkeypatch.setattr(pocs.experiments, "_RANGE_ENTRIES", cap)
        outs[label] = tmp_path / f"{label}.{fmt}"
        assert cli.main([*RANGE_ARGS, "--format", fmt, "--out", str(outs[label])]) == 0
    assert len({path.read_bytes() for path in outs.values()}) == 1


@pytest.mark.parametrize("scheme,tau", [("po", 0.0), ("po", 0.9), ("cs", 0.0),
                                        ("po", 1.5 * math.pi), ("po", 2.0 * math.pi)])
def test_run_trial_equals_the_rows_of_a_range(scheme, tau):
    errors, _ = _run_chunk(scheme, 20, 4, 9, tau, 5, 0, 70)  # three chunks in one range
    for t in (31, 32, 33):
        assert run_trial(scheme, 20, 4, 9, tau, 5, t) == errors[t]


def test_range_chunks_run_on_the_cell_stream(monkeypatch):
    # a range builds one generator, on the stream id of the cell's trial 0,
    # and chunk c draws from it c 2^64 outputs in
    ids = []
    plain = RngStream.generator

    def record(self):
        ids.append(self.stream_id)
        return plain(self)

    monkeypatch.setattr(pocs.rng.RngStream, "generator", record)
    for tau in (0.5, -0.0):
        ids.clear()
        _draw_chunk("po", 40, 2, 3, tau, 1, 0, 10_000)  # 313 chunks
        assert ids == [trial_stream_id("po", 2, 3, tau, 0)]
    assert ids == [trial_stream_id("po", 2, 3, 0.0, 0)]  # -0.0 keys as the cell 0.0
    ids.clear()
    x0 = _draw_chunk("po", 40, 2, 3, 0.5, 1, 9990, 10_000)[0]  # starts mid-chunk 312
    assert ids == [trial_stream_id("po", 2, 3, 0.5, 0)]
    gen = plain(RngStream(1, ids[0]))
    gen.bit_generator.advance(312 << 64)
    values = 2.0 * gen.random((32, 2))[6:16] - 1.0
    assert np.array_equal(x0, values / np.sqrt((values * values).sum(axis=1))[:, None])


class _ZeroModuli:
    """A generator whose moduli draws get exact zeros: the first two moduli
    of row ``row`` of the chunk starting at ``chunk0``. A moduli draw is a
    (rows, m) or a flat exponential draw (the top-k gaps are (32, 1) here);
    the chunks make one each, in order, and a row's entries in a flat draw
    follow the arc entries, m - K, of the rows before it. The first moduli
    draw of a range first zeroes the whole buffer it writes into, so that an
    entry no call draws holds zeros."""

    def __init__(self, gen, m, chunk0, row):
        self._gen, self._m, self._chunk0, self._row = gen, m, chunk0, row
        self._chunk, self._circle = 0, np.zeros(32, dtype=np.int64)

    def binomial(self, *args):
        self._circle = self._gen.binomial(*args)
        return self._circle

    def standard_exponential(self, size=None, out=None):
        if isinstance(size, tuple) and size[-1] != self._m:  # the top-k gaps
            return self._gen.standard_exponential(size, out=out)
        if self._chunk == 0:
            out.base[...] = 0.0
        e = self._gen.standard_exponential(size, out=out).reshape(-1)
        if self._chunk == self._chunk0 // 32:
            arcs = self._m - self._circle
            assert arcs[self._row] >= 2
            e[arcs[: self._row].sum() :][:2] = 0.0
        self._chunk += 1
        return e

    def __getattr__(self, name):
        return getattr(self._gen, name)


@pytest.mark.parametrize("chunk0,row,hits", [
    (32, 3, 2),  # row 35, in the range's second chunk, counts
    (0, 2, 0),   # row 2 is drawn, but before start
])
def test_zero_signs_count_the_rows_asked_for_only(monkeypatch, chunk0, row, hits):
    # trials 5 to 39: buffers of two chunks, 64 rows, whose moduli past stop
    # are never drawn, nor counted; at 1.5 pi (q = 1) the moduli are flat and
    # drawn for the arc entries only
    plain = RngStream.generator
    for m, tau in ((8, 0.5), (64, 1.5 * math.pi)):
        monkeypatch.setattr(pocs.rng.RngStream, "generator",
                            lambda self: _ZeroModuli(plain(self), m, chunk0, row))
        *_, zero_signs = _draw_chunk("po", 16, 2, m, tau, 3, 5, 40)
        assert zero_signs == hits


def test_range_memory_is_bounded():
    # one range of the 10,000 trials would hold several (10000, 1024) arrays
    # (240 MiB at tau > 0); capped, a range's buffers are 64 x 1024 entries
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
