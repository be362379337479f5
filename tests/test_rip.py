"""Restricted-isometry diagnostics: probe search, the exact laws behind it, closed forms."""

import decimal
import itertools
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from exact_laws import RAYLEIGH_CUT, rayleigh_sum_cells
from pocs import (
    ConfigError,
    RngStream,
    SensingMatrix,
    VarianceConvention,
    oracle_support_error_bound,
    pbp_error_bound,
    rip_distortion_probe,
    sample_complexity_bound,
    sample_sensing_matrix,
)
import pocs.rip
from pocs.core import _support_value_batch, per_part_sigma
from pocs.experiments import rip_estimate_report
from pocs.rip import _probe_stat, _screen


class TestDistortionProbe:
    def test_requires_phase_only_convention(self):
        Phi = sample_sensing_matrix(RngStream(40).generator(), 8, 4, "cs")
        with pytest.raises(ValueError):
            rip_distortion_probe(Phi, 2, 10, RngStream(41).generator())

    def test_canonical_vectors_always_probed(self):
        Phi = sample_sensing_matrix(RngStream(42).generator(), 16, 2, "po")
        est = rip_distortion_probe(Phi, 1, 5, RngStream(43).generator())
        canonical = [abs(np.linalg.norm(Phi.mat[:, j], 1) - 1.0) for j in range(2)]
        assert est.delta_lower >= max(canonical) - 1e-15

    def test_one_sparse_sup_equals_column_statistic(self):
        # every unit-norm 1-sparse probe reduces to a column l1 statistic,
        # so the search result must equal the exhaustive canonical maximum
        Phi = sample_sensing_matrix(RngStream(44).generator(), 32, 4, "po")
        est = rip_distortion_probe(Phi, 1, 200, RngStream(45).generator())
        exhaustive = max(abs(np.linalg.norm(Phi.mat[:, j], 1) - 1.0) for j in range(4))
        assert est.delta_lower == pytest.approx(exhaustive, abs=1e-12)

    def test_worst_probe_attains_reported_distortion(self):
        Phi = sample_sensing_matrix(RngStream(46).generator(), 24, 12, "po")
        est = rip_distortion_probe(Phi, 3, 100, RngStream(47).generator())
        stat = abs(np.linalg.norm(Phi.mat @ est.worst_probe, 1) - 1.0)
        assert stat == pytest.approx(est.delta_lower, abs=1e-12)
        assert abs(np.linalg.norm(est.worst_probe) - 1.0) < 1e-12
        assert np.count_nonzero(est.worst_probe) <= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_more_probes_never_decrease_the_bound(self, seed, monkeypatch):
        monkeypatch.setattr(pocs.rip, "_CLIMB_ROUNDS", 0)
        Phi = sample_sensing_matrix(RngStream(48, seed).generator(), 16, 10, "po")
        small = rip_distortion_probe(Phi, 2, 50, RngStream(49, seed).generator())
        large = rip_distortion_probe(Phi, 2, 100, RngStream(49, seed).generator())
        assert large.delta_lower >= small.delta_lower

    def test_monotone_with_default_search_at_fixed_seed(self):
        Phi = sample_sensing_matrix(RngStream(50).generator(), 16, 10, "po")
        small = rip_distortion_probe(Phi, 2, 50, RngStream(51).generator())
        large = rip_distortion_probe(Phi, 2, 100, RngStream(51).generator())
        assert large.delta_lower >= small.delta_lower

    def test_deterministic_given_stream(self):
        Phi = sample_sensing_matrix(RngStream(52).generator(), 16, 10, "po")
        a = rip_distortion_probe(Phi, 3, 64, RngStream(53).generator())
        b = rip_distortion_probe(Phi, 3, 64, RngStream(53).generator())
        assert a.delta_lower == b.delta_lower
        assert np.array_equal(a.worst_probe, b.worst_probe)
        assert a.num_probes == b.num_probes

    def test_probe_count_includes_all_stages(self, monkeypatch):
        monkeypatch.setattr(pocs.rip, "_CLIMB_ROUNDS", 0)
        Phi = sample_sensing_matrix(RngStream(54).generator(), 16, 10, "po")
        est = rip_distortion_probe(Phi, 3, 64, RngStream(55).generator())
        assert est.num_probes == 64 + 10  # random draws plus canonical vectors

    def test_reference_scale_distortion_is_small(self):
        # m = 4096 rows concentrate hard; the witnessed distortion stays small
        gen = RngStream(56).generator()
        Phi = sample_sensing_matrix(gen, 4096, 256, "po")
        est = rip_distortion_probe(Phi, 10, 1000, gen)
        assert est.delta_lower < 0.15

    def test_bad_arguments(self):
        Phi = sample_sensing_matrix(RngStream(57).generator(), 8, 4, "po")
        with pytest.raises(ValueError):
            rip_distortion_probe(Phi, 0, 10, RngStream(0).generator())
        with pytest.raises(ValueError):
            rip_distortion_probe(Phi, 5, 10, RngStream(0).generator())
        with pytest.raises(ValueError):
            rip_distortion_probe(Phi, 2, 0, RngStream(0).generator())


def gathered_stats(mat, supports, values):
    """Per-probe | ||Phi x||_1 - 1 | by gathering the support columns (reference)."""
    out = np.empty(supports.shape[0])
    for i in range(0, supports.shape[0], 16):  # gathers (m, 16, s) at a time
        cols = mat[:, supports[i : i + 16]]
        proj = np.einsum("ick,ck->ci", cols, values[i : i + 16])
        out[i : i + 16] = np.abs(np.abs(proj).sum(axis=1) - 1.0)
    return out


def reference_search(Phi, s, num_probes, gen, local_search_rounds=2):
    """The probe search written from the gathered formula, all random probes in one draw."""
    mat = Phi.mat
    n = mat.shape[1]
    supports, values = _support_value_batch(gen, n, s, num_probes)
    stats = gathered_stats(mat, supports, values)
    k = int(np.argmax(stats))
    best, support, vals = float(stats[k]), supports[k], values[k].astype(np.complex128)
    col_stats = np.abs(np.abs(mat).sum(axis=0) - 1.0)
    j = int(np.argmax(col_stats))
    if col_stats[j] > best:
        best, support, vals = float(col_stats[j]), np.array([j]), np.ones(1, np.complex128)
    evaluated = num_probes + n
    proj = mat[:, support] @ vals
    for _ in range(local_search_rounds):
        # the probe and its flips, each summed as one contiguous column
        flipped = proj[:, None] - 2.0 * mat[:, support] * vals[None, :]
        stats = [np.abs(np.abs(np.ascontiguousarray(f)).sum() - 1.0) for f in flipped.T]
        evaluated += support.size
        k = int(np.argmax(stats))
        if stats[k] <= np.abs(np.abs(proj).sum() - 1.0):
            break
        best, proj = float(stats[k]), flipped[:, k].copy()
        vals = vals.copy()
        vals[k] = -vals[k]
    worst = np.zeros(n, dtype=np.complex128)
    worst[support] = vals
    return best, worst, evaluated


class ScriptedUniforms:
    """Stands in for the generator of a search: hands out prepared uniform rows in order."""

    def __init__(self, rows):
        self.rows, self.used = rows, 0

    def random(self, shape):
        self.used += shape[0]
        return self.rows[self.used - shape[0] : self.used].copy()


def batch_sizes(monkeypatch):
    """The probe counts of the search's batches, recorded as it draws them."""
    sizes, draw = [], pocs.rip._support_value_batch
    monkeypatch.setattr(pocs.rip, "_support_value_batch",
                        lambda gen, n, s, count: sizes.append(count) or draw(gen, n, s, count))
    return sizes


class TestProbeKernel:
    """The streamed float32 screen and the float64 re-check against the gathered einsum."""

    def test_per_probe_statistics_match_gathered_einsum(self):
        gen = np.random.default_rng(70)
        # (m, n, s, rows): the search's own row blocks, blocks that do not divide m
        # (300 = 2 x 128 + 44 rows at n = 256, 1000 = 819 + 181 at n = 40) and
        # blocks of 1, 3 and 7 rows, or all m
        shapes = [(1, 1, 1, 1), (1, 9, 9, 1), (1, 9, 1, 1), (6, 1, 1, 6), (13, 13, 13, 13),
                  (64, 256, 20, 64), (300, 256, 20, 128), (1000, 40, 5, 819),
                  (4096, 256, 20, 128), (100, 37, 5, 7), (50, 3, 2, 3), (20, 12, 4, 1)]
        shapes += [
            (int(m), int(n), int(gen.integers(1, n + 1)), int(gen.integers(1, m + 1)))
            for m, n in zip(gen.integers(1, 300, 40), gen.integers(1, 80, 40))
        ]
        for m, n, s, rows in shapes:
            Phi = sample_sensing_matrix(gen, m, n, "po")
            supports, values = _support_value_batch(gen, n, s, int(gen.integers(1, 50)))
            col_l1 = np.abs(Phi.mat).sum(axis=0)
            approx, err, summed = _screen(Phi.mat, supports, values, rows)
            want = gathered_stats(Phi.mat, supports, values)
            assert np.all(np.abs(approx - want) <= err), (m, n, s, rows)
            assert np.array_equal(summed, col_l1), (m, n, s, rows)  # summed in the pass
            given = _screen(Phi.mat, supports, values, rows, col_l1)
            assert np.array_equal(given[0], approx) and np.array_equal(given[1], err)
            got = [_probe_stat(Phi.mat, support, v) for support, v in zip(supports, values)]
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (m, n, s, rows)

    # at (m, n) = (3000, 16) Phi streams in row blocks of 2^15 // 16 = 2,048 (the last
    # one 952) and a batch is 2^18 // 2,048 = 128 probes: 40 ends inside the first
    # batch, 209 spans two and ends inside the second
    @pytest.mark.parametrize("num_probes", [40, 209])
    @pytest.mark.parametrize("seed", range(2))
    def test_search_matches_gathered_reference(self, num_probes, seed, monkeypatch):
        Phi = sample_sensing_matrix(RngStream(71, seed).generator(), 3000, 16, "po")
        gen, ref_gen = RngStream(72, seed).generator(), RngStream(72, seed).generator()
        sizes = batch_sizes(monkeypatch)
        est = rip_distortion_probe(Phi, 5, num_probes, gen)
        assert sizes == {40: [40], 209: [128, 81]}[num_probes]
        best, worst, evaluated = reference_search(Phi, 5, num_probes, ref_gen)
        assert est.delta_lower == pytest.approx(best, rel=0.0, abs=1e-12)
        assert np.array_equal(est.worst_probe, worst)
        assert est.num_probes == evaluated
        assert gen.random() == ref_gen.random()  # drew exactly num_probes probes

    @pytest.mark.parametrize("seed", range(3))
    def test_search_matches_gathered_reference_at_workload_scale(self, seed):
        # (m, n, s) = (4096, 256, 20): the float32 screen leaves a few probes per search
        Phi = sample_sensing_matrix(RngStream(73, seed).generator(), 4096, 256, "po")
        gen, ref_gen = RngStream(74, seed).generator(), RngStream(74, seed).generator()
        est = rip_distortion_probe(Phi, 20, 1000, gen)
        best, worst, evaluated = reference_search(Phi, 20, 1000, ref_gen)
        assert est.delta_lower == pytest.approx(best, rel=0.0, abs=1e-12)
        assert np.array_equal(est.worst_probe, worst)
        assert est.num_probes == evaluated
        assert gen.random() == ref_gen.random()

    @pytest.mark.parametrize("twin_first", [False, True])
    @pytest.mark.parametrize("gap", [1, 80])  # the next probe, or 80 probes later
    def test_first_of_tied_probes_wins(self, gap, twin_first, monkeypatch):
        # Phi = [A, A]: the probe on S + h with the values of the probe on S has the same
        # Phi x to the bit, so every probe ties with its twin. The columns of A are near
        # one column c with ||c||_1 = 1, so the random probes beat the canonical ones.
        # At (m, n) = (4096, 8) a batch is 2^18 // 4,096 = 64 probes: a twin at gap 1
        # shares its probe's batch, a twin 80 probes later is in the next batch or the
        # one after, so every tie straddles a batch boundary.
        m, h, s, count = 4096, 4, 3, 80
        gen = np.random.default_rng(75)
        base = sample_sensing_matrix(gen, m, h, "po")
        col = base.mat[:, :1] / np.abs(base.mat[:, 0]).sum()
        A = col + 0.1 * (base.mat - base.mat[:, :1])
        Phi = SensingMatrix(np.hstack([A, A]), base.convention)
        u = gen.random((count, 2 * h + s))
        u[:, :h] *= 0.5  # the s smallest uniforms, hence the support, in the first half
        u[:, h : 2 * h] = 0.5 + 0.5 * u[:, h : 2 * h]
        twin = u.copy()
        twin[:, :h], twin[:, h : 2 * h] = u[:, h : 2 * h], u[:, :h]
        first, second = (twin, u) if twin_first else (u, twin)
        rows = np.empty((2 * count, 2 * h + s))
        if gap == 1:
            rows[0::2], rows[1::2] = first, second
        else:
            rows[:count], rows[count:] = first, second
        sizes = batch_sizes(monkeypatch)
        monkeypatch.setattr(pocs.rip, "_CLIMB_ROUNDS", 0)
        est = rip_distortion_probe(Phi, s, 2 * count, ScriptedUniforms(rows))
        assert sizes == [64, 64, 32]
        best, worst, _ = reference_search(
            Phi, s, 2 * count, ScriptedUniforms(rows), local_search_rounds=0
        )
        support = np.flatnonzero(est.worst_probe)
        assert support.size == s
        assert (support.min() >= h) == twin_first
        assert np.array_equal(est.worst_probe, worst)
        assert est.delta_lower == best

    def test_probe_stage_makes_no_copy_of_phi(self):
        # at (4096, 256, 20) a complex64 copy of Phi, or np.abs(Phi), is 8 MiB; the
        # streamed screen, the sampler of 1,000 probes and the climb stay below 6 MiB
        gen = RngStream(76).generator()
        Phi = sample_sensing_matrix(gen, 4096, 256, "po")
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            rip_distortion_probe(Phi, 20, 1000, gen)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20

    # the first measured call of the benchmark's rip_estimate_m4096 workload at seeds
    # 0 and 7, to the bit, as the float64 GEMM search reported them; and s = 1, as the
    # search reported it when it screened 1-sparse probes by their column statistic
    @pytest.mark.parametrize(
        "s,master_seed,delta_hex,evaluated",
        [
            (20, 0, "0x1.0354fd6691ba0p-5", 1296),
            (20, 70_000, "0x1.17187c2f03640p-5", 1296),
            (1, 0, "0x1.46218f5f3f800p-6", 1257),
        ],
        ids=["0-0x1.0354fd6691ba0p-5", "70000-0x1.17187c2f03640p-5", "s1-0-0x1.46218f5f3f800p-6"],
    )
    def test_workload_report_keeps_its_bits(self, s, master_seed, delta_hex, evaluated):
        report = rip_estimate_report(4096, 256, s, 1000, master_seed)
        assert report["delta_lower"].hex() == delta_hex
        assert report["evaluated_probes"] == evaluated

    # A winning canonical column is +-e_j, and its sign flip has the same |Phi x| to
    # the bit: the climb must not read it as an improvement, whatever order sums the
    # moduli. Seeds 1-6 at s = 1 (seed 1 used to count 1258), and the benchmark's
    # workload seed 10 at s = 20 (master seed 100,000), whose winner is a column.
    @pytest.mark.parametrize("s,master_seed", [(1, k) for k in range(1, 7)] + [(20, 100_000)])
    def test_sign_flip_of_a_winning_column_is_no_improvement(self, s, master_seed):
        report = rip_estimate_report(4096, 256, s, 1000, master_seed)
        assert report["evaluated_probes"] == 1000 + 256 + 1  # one climb round of one flip
        Phi = sample_sensing_matrix(RngStream(master_seed).generator(), 4096, 256, "po")
        col_stats = np.abs(np.abs(Phi.mat).sum(axis=0) - 1.0)
        assert report["delta_lower"] == pytest.approx(col_stats.max(), rel=1e-12)


def certified_distortion_s2(mat, tol):
    """A value within ``tol`` below the exact max of | ||Phi x||_1 - 1 | over unit
    x with at most 2 nonzeros: Piyavskii-Shubert branch and bound.

    Modulo a global phase, which ||Phi x||_1 ignores, a unit x on the support
    {j, k} is ``(cos t, e^{ip} sin t)`` with t in [0, pi/2] and p in [0, 2 pi). On
    the sphere |dx|^2 = dt^2 + sin^2 t dp^2, so a cell of half-widths (a, b) in
    (t, p) lies within a + b of its center, and ||Phi_S x||_1 is Lipschitz in x
    with constant sum_i ||row_i(Phi_S)||_2. Every support and both sides,
    ||Phi x||_1 - 1 and 1 - ||Phi x||_1, share one incumbent: each round splits
    every cell whose bound still exceeds it by more than tol into four.
    """
    pairs = np.array(list(itertools.combinations(range(mat.shape[1]), 2)))
    lip = np.sqrt(np.abs(mat[:, pairs[:, 0]]) ** 2 + np.abs(mat[:, pairs[:, 1]]) ** 2).sum(0)
    a = b = math.pi / 16  # 4 x 16 cells per support and side
    t, p = (c.ravel() for c in np.meshgrid(a * np.arange(1, 8, 2), b * np.arange(1, 32, 2)))
    cell = np.arange(pairs.shape[0] * 2 * t.size)  # (support, side, start cell)
    pair, side = cell // (2 * t.size), np.where(cell // t.size % 2, -1.0, 1.0)
    t, p = t[cell % t.size], p[cell % t.size]
    best = -math.inf
    while True:
        stat = np.empty(pair.size)
        for i in range(0, pair.size, 4096):  # (m, 4096) columns at a time
            j, k = pairs[pair[i : i + 4096]].T
            c, e = np.cos(t[i : i + 4096]), np.exp(1j * p[i : i + 4096]) * np.sin(t[i : i + 4096])
            stat[i : i + 4096] = np.abs(mat[:, j] * c + mat[:, k] * e).sum(axis=0) - 1.0
        stat *= side
        best = max(best, stat.max())
        keep = stat + lip[pair] * (a + b) > best + tol
        if not keep.any():
            return best
        a, b = a / 2, b / 2
        pair, side = np.repeat(pair[keep], 4), np.repeat(side[keep], 4)
        t = (t[keep, None] + np.array([-a, -a, a, a])).ravel()
        p = (p[keep, None] + np.array([-b, b, -b, b])).ravel()


# (16, 12) and (32, 16) certify in about 0.1-0.5 s each
@pytest.mark.parametrize("m,n,seed", [(16, 12, k) for k in range(3)] + [(32, 16, k) for k in range(3)])
def test_search_never_reports_more_than_the_certified_distortion(m, n, seed):
    # the search reports a lower bound, and a lower bound that overshoots the
    # certified value is a bug (in _screen's bound, say)
    tol = 1e-3
    gen = RngStream(seed, 13).generator()
    Phi = sample_sensing_matrix(gen, m, n, "po")
    certified = certified_distortion_s2(Phi.mat, tol)
    assert rip_distortion_probe(Phi, 2, 1000, gen).delta_lower <= certified + tol
    # complex probes, which the search's real values never try, stay below it too
    parts = gen.standard_normal((20_000, 2, 2))
    x = parts.view(np.complex128)[..., 0]
    x /= np.linalg.norm(x, axis=1)[:, None]
    supports = np.sort(np.argsort(gen.random((20_000, n)), axis=1)[:, :2], axis=1)
    stats = np.abs(np.abs(np.einsum("mik,ik->im", Phi.mat[:, supports], x)).sum(1) - 1.0)
    assert stats.max() <= certified + tol


class TestExpectationIdentity:
    def test_phase_only_scaling_makes_the_mean_exactly_one(self):
        # under the phase-only scaling the identity E ||Phi x||_1 = ||x||_2 is exact:
        # for a unit x each |(Phi x)_i| is Rayleigh with mean sigma sqrt(pi/2), and m
        # rows of sigma = sqrt(2/pi)/m sum to 1, to rounding at every m
        for m in [*range(1, 5000), *(2**k for k in range(24))]:
            mean = m * per_part_sigma(m, "po") * math.sqrt(math.pi / 2.0)
            assert abs(mean - 1.0) <= 4.0 * 2.0**-53, m

    def test_grand_mean_over_fresh_matrix_signal_pairs(self):
        # the identity holds per pair, so the grand mean over fresh (Phi, x)
        # pairs converges to 1 at the usual 1/sqrt(N) rate
        from pocs import sample_sensing_matrix, sample_sparse_signal

        gen = RngStream(66).generator()
        vals = np.empty(500)
        for i in range(vals.size):
            Phi = sample_sensing_matrix(gen, 16, 32, "po")
            x, _ = sample_sparse_signal(gen, 32, 4)
            vals[i] = np.linalg.norm(Phi.mat @ x, 1)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - 1.0) <= 4.0 * se


class TestConcentration:
    def test_tail_bound_against_the_exact_law(self):
        # the lemma behind the RIP: a sum R of m i.i.d. Rayleigh(1) leaves its mean
        # m sqrt(pi/2) by a relative t with probability at most 2 exp(-(pi/4) t^2 m).
        # The exact tail comes from the FFT law of R on a grid of step h, made an upper
        # bound: a cell centre lies within m h / 2 of the sum it stands for, and a
        # Rayleigh(1) passes the grid's cut with probability e^-50
        step = 1e-3
        for m in (1, 2, 4, 8, 16, 32, 64, 128):
            centres, mass = rayleigh_sum_cells(m, step)
            mean = m * math.sqrt(math.pi / 2.0)
            for t in (0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0, 1.5):
                far = np.abs(centres - mean) > t * mean - 0.5 * m * step
                tail = mass[far].sum() + m * math.exp(-0.5 * RAYLEIGH_CUT**2)
                bound = 2.0 * math.exp(-(math.pi / 4.0) * t * t * m)
                if tail > 1e-12:  # above the FFT's rounding floor
                    assert tail <= 0.5 * bound, (m, t, tail, bound)
                if bound < 1e-12:
                    assert abs(tail) < 1e-12, (m, t, tail, bound)


def independent_bound_evaluation(delta, s, n, eta):
    """Same closed form, regrouped: ln(e n/s (1+6/delta)^2) split into summands."""
    log_term = 1.0 + math.log(n) - math.log(s) + 2.0 * math.log1p(6.0 / delta)
    return math.ceil((36.0 / math.pi) / (delta * delta) * (s * log_term + math.log(2.0) - math.log(eta)))


class TestSampleComplexityBound:
    def test_reference_point(self):
        assert sample_complexity_bound(0.5, 10, 256, 0.01) == 4539
        assert sample_complexity_bound(0.5, 10, 256, 0.01) == independent_bound_evaluation(0.5, 10, 256, 0.01)

    @pytest.mark.parametrize("delta", [0.1, 0.3, 0.5, 0.9])
    @pytest.mark.parametrize("s,n", [(1, 10), (10, 256), (50, 256), (256, 256)])
    def test_matches_independent_evaluation(self, delta, s, n):
        for eta in (0.5, 0.01, 1e-6):
            assert sample_complexity_bound(delta, s, n, eta) == independent_bound_evaluation(delta, s, n, eta)

    def test_halving_delta_more_than_quadruples(self):
        coarse = sample_complexity_bound(0.5, 10, 256, 0.01)
        fine = sample_complexity_bound(0.25, 10, 256, 0.01)
        assert fine > 4 * coarse

    def test_monotonicity(self):
        base = sample_complexity_bound(0.5, 10, 256, 0.01)
        assert sample_complexity_bound(0.6, 10, 256, 0.01) < base
        assert sample_complexity_bound(0.5, 10, 256, 0.05) < base
        assert sample_complexity_bound(0.5, 12, 256, 0.01) > base
        assert sample_complexity_bound(0.5, 10, 512, 0.01) > base

    def test_full_sparsity_boundary(self):
        # s = n evaluates with e n / s = e
        value = sample_complexity_bound(0.5, 256, 256, 0.01)
        assert value == independent_bound_evaluation(0.5, 256, 256, 0.01)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            sample_complexity_bound(0.0, 10, 256, 0.01)
        with pytest.raises(ValueError):
            sample_complexity_bound(1.0, 10, 256, 0.01)
        with pytest.raises(ValueError):
            sample_complexity_bound(0.5, 0, 256, 0.01)
        with pytest.raises(ValueError):
            sample_complexity_bound(0.5, 300, 256, 0.01)
        with pytest.raises(ValueError):
            sample_complexity_bound(0.5, 10, 256, 0.0)
        with pytest.raises(ValueError):
            sample_complexity_bound(math.nan, 10, 256, 0.01)
        with pytest.raises(ValueError):
            sample_complexity_bound(0.5, 10, 256, math.nan)
        # a probability is a real number first: a string or None names its field
        with pytest.raises(ConfigError, match="^delta:"):
            sample_complexity_bound("0.5", 10, 256, 0.01)
        with pytest.raises(ConfigError, match="^eta:"):
            sample_complexity_bound(0.5, 10, 256, "0.01")
        with pytest.raises(ConfigError, match="^delta:"):
            sample_complexity_bound(None, 10, 256, 0.01)
        with pytest.raises(ValueError, match="^s:"):
            sample_complexity_bound(0.5, 10.5, 256, 0.01)
        # n is an integer too: a fractional n would run the closed form at n = 256.5
        with pytest.raises(ValueError, match="^n:"):
            sample_complexity_bound(0.5, 10, 256.5, 0.01)
        with pytest.raises(ValueError, match="^n:"):
            sample_complexity_bound(0.5, 10, True, 0.01)
        # in range, but the count is not a finite double
        with pytest.raises(ValueError, match="delta="):
            sample_complexity_bound(1e-300, 10, 256, 0.01)
        with pytest.raises(ValueError, match="s="):
            sample_complexity_bound(0.5, 10**400, 10**400, 0.01)
        # a huge n or a tiny eta has a finite count
        assert sample_complexity_bound(0.5, 10, 10**400, 0.01) == 424169
        assert sample_complexity_bound(0.5, 10, 256, 1e-320) == 38102

    @pytest.mark.parametrize("n,eta,expected", [
        (256, 0.01, 4539), (10**400, 0.01, 424169), (256, 1e-320, 38102),
    ])
    def test_matches_decimal_product_form(self, n, eta, expected):
        # ceil((36/pi) delta^-2 [s ln(e n/s (1+6/delta)^2) + ln(2/eta)]) at 60 digits
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            delta, s = Decimal(0.5), Decimal(10)
            pi = Decimal("3.14159265358979323846264338327950288419716939937510582097494")
            growth = Decimal(1).exp() * Decimal(n) / s * (1 + 6 / delta) ** 2
            exact = 36 / pi / (delta * delta) * (s * growth.ln() + (2 / Decimal(eta)).ln())
        assert math.ceil(exact) == expected
        assert sample_complexity_bound(0.5, 10, n, eta) == expected


class TestErrorBounds:
    def test_pbp_bound_values(self):
        assert pbp_error_bound(0.0, 0.0) == 0.0
        assert pbp_error_bound(0.05, 0.0) == pytest.approx(1.0, abs=1e-12)
        assert pbp_error_bound(0.01, 0.1) == pytest.approx(
            2.0 * math.sqrt(0.05) + 0.4, abs=1e-12
        )

    def test_oracle_bound_values(self):
        assert oracle_support_error_bound(0.0) == 0.0
        assert oracle_support_error_bound(0.2) == pytest.approx(1.0, abs=1e-12)
        assert oracle_support_error_bound(0.05) == pytest.approx(0.5, abs=1e-12)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            pbp_error_bound(-0.1, 0.0)
        with pytest.raises(ValueError):
            pbp_error_bound(0.1, -0.1)
        with pytest.raises(ValueError):
            oracle_support_error_bound(-0.1)
        with pytest.raises(ValueError):
            pbp_error_bound(math.nan, 0.0)
        with pytest.raises(ValueError):
            pbp_error_bound(0.0, math.nan)
        with pytest.raises(ValueError):
            oracle_support_error_bound(math.nan)
        # delta follows the tau rule: a real >= 0 whose double 2 delta is finite
        with pytest.raises(ValueError, match="^delta:"):
            pbp_error_bound(math.inf, 0.0)
        with pytest.raises(ValueError, match="^delta:"):
            oracle_support_error_bound(math.inf)
        # a str is not a number, even one that reads as one
        with pytest.raises(ValueError, match="^tau:"):
            pbp_error_bound(0.1, "0.5")
