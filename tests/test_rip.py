"""Restricted-isometry diagnostics: probe search, self-tests, closed forms."""

import math

import numpy as np
import pytest

from pocs import (
    RngStream,
    VarianceConvention,
    concentration_test,
    expectation_identity_test,
    oracle_support_error_bound,
    pbp_error_bound,
    rip_distortion_probe,
    sample_complexity_bound,
    sample_sensing_matrix,
)
from pocs.rip import _probe_stats
from pocs.sensing import _support_value_batch


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
    def test_more_probes_never_decrease_the_bound(self, seed):
        Phi = sample_sensing_matrix(RngStream(48, seed).generator(), 16, 10, "po")
        small = rip_distortion_probe(Phi, 2, 50, RngStream(49, seed).generator(), local_search_rounds=0)
        large = rip_distortion_probe(Phi, 2, 100, RngStream(49, seed).generator(), local_search_rounds=0)
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

    def test_probe_count_includes_all_stages(self):
        Phi = sample_sensing_matrix(RngStream(54).generator(), 16, 10, "po")
        est = rip_distortion_probe(Phi, 3, 64, RngStream(55).generator(), local_search_rounds=0)
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
    cols = mat[:, supports]  # (m, count, s)
    proj = np.einsum("ick,ck->ci", cols, values)
    return np.abs(np.abs(proj).sum(axis=1) - 1.0)


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
        flipped = proj[:, None] - 2.0 * mat[:, support] * vals[None, :]
        stats = np.abs(np.abs(flipped).sum(axis=0) - 1.0)
        evaluated += support.size
        k = int(np.argmax(stats))
        if stats[k] <= best:
            break
        best, proj = float(stats[k]), flipped[:, k].copy()
        vals = vals.copy()
        vals[k] = -vals[k]
    worst = np.zeros(n, dtype=np.complex128)
    worst[support] = vals
    return best, worst, evaluated


class TestProbeKernel:
    """The dense real GEMM against the gathered complex einsum it replaced."""

    def test_per_probe_statistics_match_gathered_einsum(self):
        gen = np.random.default_rng(70)
        shapes = [(1, 1, 1), (1, 9, 9), (1, 9, 1), (6, 1, 1), (13, 13, 13), (64, 256, 20)]
        shapes += [
            (int(m), int(n), int(gen.integers(1, n + 1)))
            for m, n in zip(gen.integers(1, 300, 40), gen.integers(1, 80, 40))
        ]
        for m, n, s in shapes:
            Phi = sample_sensing_matrix(gen, m, n, "po")
            supports, values = _support_value_batch(gen, n, s, int(gen.integers(1, 50)))
            mat_t = np.ascontiguousarray(Phi.mat.T)
            got = _probe_stats(mat_t, supports, values)
            want = gathered_stats(Phi.mat, supports, values)
            assert np.allclose(got, want, rtol=0.0, atol=1e-12), (m, n, s)

    # at n <= m = 4096 the search runs 262,144 // 4096 = 64 probes per batch:
    # 40 ends inside the first batch, 209 spans four and ends inside the last
    @pytest.mark.parametrize("num_probes", [40, 209])
    @pytest.mark.parametrize("seed", range(2))
    def test_search_matches_gathered_reference(self, num_probes, seed):
        Phi = sample_sensing_matrix(RngStream(71, seed).generator(), 4096, 32, "po")
        gen, ref_gen = RngStream(72, seed).generator(), RngStream(72, seed).generator()
        est = rip_distortion_probe(Phi, 5, num_probes, gen)
        best, worst, evaluated = reference_search(Phi, 5, num_probes, ref_gen)
        assert est.delta_lower == pytest.approx(best, rel=0.0, abs=1e-12)
        assert np.array_equal(est.worst_probe, worst)
        assert est.num_probes == evaluated
        assert gen.random() == ref_gen.random()  # drew exactly num_probes probes


class TestExpectationIdentity:
    def test_unit_vector_mean_is_one(self):
        report = expectation_identity_test(16, 32, 800, RngStream(60).generator())
        assert report.passed
        assert report.expected == pytest.approx(1.0, abs=1e-12)
        assert report.empirical_mean == pytest.approx(1.0, abs=5 * report.standard_error)

    def test_homogeneous_in_the_probe_norm(self):
        gen = RngStream(61).generator()
        parts = gen.standard_normal((16, 2))
        x = parts.view(np.complex128)[..., 0]
        x = 3.0 * x / np.linalg.norm(x)
        report = expectation_identity_test(8, 16, 800, gen, x=x)
        assert report.expected == pytest.approx(3.0, abs=1e-12)
        assert report.passed

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

    def test_scalar_case_matches_rayleigh_mean(self):
        # m = n = 1: |Phi x| is Rayleigh with mean sigma sqrt(pi/2) = 1
        report = expectation_identity_test(1, 1, 4000, RngStream(62).generator())
        assert report.passed

    def test_requires_enough_draws(self):
        with pytest.raises(ValueError):
            expectation_identity_test(4, 4, 99, RngStream(0).generator())


class TestConcentration:
    def test_bound_value_and_zero_frequency(self):
        report = concentration_test(64, 100_000, 0.5, RngStream(63).generator())
        assert report.bound == pytest.approx(2.0 * math.exp(-4.0 * math.pi), rel=1e-12)
        assert report.bound == pytest.approx(7.0e-6, abs=5e-7)
        assert report.frequency == 0.0
        assert report.passed

    def test_huge_threshold_is_trivially_met(self):
        report = concentration_test(8, 2000, 50.0, RngStream(64).generator())
        assert report.frequency == 0.0
        assert report.passed

    def test_single_row_tail(self):
        report = concentration_test(1, 1_000_000, 0.1, RngStream(65).generator())
        assert report.passed
        assert report.frequency <= report.bound + 4.0 * report.standard_error

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            concentration_test(4, 100, 0.0, RngStream(0).generator())
        with pytest.raises(ValueError):
            concentration_test(4, 0, 0.5, RngStream(0).generator())


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
