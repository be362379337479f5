"""PBP reconstruction and direction-error tests."""

import math

import numpy as np
import pytest

from pocs import (
    DegenerateEstimateError,
    RngStream,
    SensingMatrix,
    VarianceConvention,
    adjoint_matvec,
    csign,
    direction_error,
    hard_threshold,
    measure_phase_only,
    oracle_support_error_bound,
    pbp,
    pbp_error_bound,
    pbp_oracle_support,
    rip_distortion_probe,
    sample_sensing_matrix,
    sample_sparse_signal,
)


def inject(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return SensingMatrix(mat=mat, convention=VarianceConvention.PHASE_ONLY, sigma=1.0)


class TestPbp:
    def test_identity_backprojection(self):
        xhat, support = pbp(inject(np.eye(3)), np.array([3.0, 1j, -2.0]), 1)
        assert np.array_equal(xhat, np.array([3.0, 0, 0]))
        assert np.array_equal(support, np.array([0]))

    def test_full_sparsity_is_plain_backprojection(self):
        gen = RngStream(20).generator()
        Phi = sample_sensing_matrix(gen, 12, 6, "po")
        z = csign(gen.standard_normal(12) + 1j * gen.standard_normal(12))
        xhat, _ = pbp(Phi, z, 6)
        assert np.array_equal(xhat, adjoint_matvec(Phi.mat, z))

    def test_decomposes_into_adjoint_then_threshold(self):
        gen = RngStream(21).generator()
        Phi = sample_sensing_matrix(gen, 20, 10, "po")
        z = csign(gen.standard_normal(20) + 1j * gen.standard_normal(20))
        xhat, support = pbp(Phi, z, 3)
        expected, supp = hard_threshold(adjoint_matvec(Phi.mat, z), 3)
        assert np.array_equal(xhat, expected)
        assert np.array_equal(support, supp)

    def test_estimate_is_s_sparse_on_recorded_support(self):
        gen = RngStream(22).generator()
        Phi = sample_sensing_matrix(gen, 30, 15, "po")
        z = csign(gen.standard_normal(30) + 1j * gen.standard_normal(30))
        xhat, support = pbp(Phi, z, 4)
        assert np.count_nonzero(xhat) <= 4
        assert set(np.flatnonzero(xhat)) <= set(support)

    def test_bad_arguments(self):
        Phi = inject(np.eye(3))
        with pytest.raises(ValueError):
            pbp(Phi, np.ones(4, complex), 1)
        with pytest.raises(ValueError):
            pbp(Phi, np.ones(3, complex), 0)

    def test_noiseless_error_within_distortion_bound(self):
        # small instance where the probed distortion makes the bound honest
        gen = RngStream(23).generator()
        Phi = sample_sensing_matrix(gen, 64, 8, "po")
        x0, _ = sample_sparse_signal(gen, 8, 2)
        z, _ = measure_phase_only(Phi, x0, 0.0, gen)
        xhat, _ = pbp(Phi, z, 2)
        delta = rip_distortion_probe(Phi, 4, 400, gen).delta_lower
        assert direction_error(x0, xhat) <= pbp_error_bound(delta, 0.0) + 1e-12


class TestOracleSupport:
    def test_full_support(self):
        gen = RngStream(24).generator()
        Phi = sample_sensing_matrix(gen, 10, 5, "po")
        z = csign(gen.standard_normal(10) + 1j * gen.standard_normal(10))
        out = pbp_oracle_support(Phi, z, np.arange(5))
        assert np.array_equal(out, adjoint_matvec(Phi.mat, z))

    def test_empty_support(self):
        gen = RngStream(25).generator()
        Phi = sample_sensing_matrix(gen, 10, 5, "po")
        z = np.ones(10, complex)
        assert np.array_equal(
            pbp_oracle_support(Phi, z, np.array([], dtype=np.intp)),
            np.zeros(5, complex),
        )

    def test_oracle_error_within_bound(self):
        gen = RngStream(26).generator()
        Phi = sample_sensing_matrix(gen, 64, 8, "po")
        x, support = sample_sparse_signal(gen, 8, 2)
        S = np.union1d(support, np.array([(support[0] + 1) % 8]))
        z = csign(Phi.mat @ x)
        est = pbp_oracle_support(Phi, z, S)
        delta = rip_distortion_probe(Phi, S.size, 400, gen).delta_lower
        err = float(np.linalg.norm(est - x))
        assert err <= oracle_support_error_bound(delta) + 1e-12

    def test_invalid_indices(self):
        with pytest.raises(ValueError):
            pbp_oracle_support(inject(np.eye(3)), np.ones(3, complex), np.array([5]))


class TestDirectionError:
    def test_positive_scaling_gives_zero(self):
        gen = RngStream(27).generator()
        x0, _ = sample_sparse_signal(gen, 16, 4)
        for c in (0.5, 1.0, 7.25):
            assert direction_error(x0, c * x0) < 1e-12

    def test_antipodal_gives_two(self):
        x0, _ = sample_sparse_signal(RngStream(28).generator(), 16, 4)
        assert direction_error(x0, -x0) == pytest.approx(2.0, abs=1e-12)

    def test_orthogonal_gives_sqrt_two(self):
        e0 = np.zeros(4, complex)
        e0[0] = 1.0
        e1 = np.zeros(4, complex)
        e1[1] = 1.0
        assert direction_error(e0, e1) == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_scale_invariance(self):
        gen = RngStream(29).generator()
        x0, _ = sample_sparse_signal(gen, 16, 4)
        xhat = gen.standard_normal(16) + 1j * gen.standard_normal(16)
        base = direction_error(x0, xhat)
        for c in (2.0, 10.0, 0.125):
            assert direction_error(x0, c * xhat) == pytest.approx(base, abs=1e-12)

    def test_bounded_by_two(self):
        gen = RngStream(30).generator()
        for _ in range(50):
            x0, _ = sample_sparse_signal(gen, 16, 4)
            xhat = gen.standard_normal(16) + 1j * gen.standard_normal(16)
            assert direction_error(x0, xhat) <= 2.0 + 1e-12

    def test_zero_estimate_raises(self):
        x0, _ = sample_sparse_signal(RngStream(31).generator(), 8, 2)
        with pytest.raises(DegenerateEstimateError):
            direction_error(x0, np.zeros(8, complex))

    def test_rows_score_like_single_vectors(self):
        gen = RngStream(32).generator()
        x0 = np.stack([sample_sparse_signal(gen, 16, 4)[0] for _ in range(5)])
        xhat = gen.standard_normal((5, 16)) + 1j * gen.standard_normal((5, 16))
        errors = direction_error(x0, xhat)
        assert errors.shape == (5,)
        for r in range(5):
            ref = np.linalg.norm(x0[r] - xhat[r] / np.linalg.norm(xhat[r]))
            assert errors[r] == pytest.approx(ref, rel=1e-13)
            assert direction_error(x0[r], xhat[r]) == pytest.approx(ref, rel=1e-13)

    def test_any_zero_row_raises(self):
        x0 = np.eye(3, dtype=complex)
        xhat = np.eye(3, dtype=complex)
        xhat[1] = 0.0
        with pytest.raises(DegenerateEstimateError):
            direction_error(x0, xhat)
