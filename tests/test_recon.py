"""PBP reconstruction and direction-error tests."""

import math

import numpy as np
import pytest

from doubles import inject
from pocs import (
    ConfigError,
    DegenerateEstimateError,
    RngStream,
    adjoint_matvec,
    csign,
    direction_error,
    hard_threshold,
    measure_phase_only,
    oracle_support_error_bound,
    pbp,
    pbp_error_bound,
    rip_distortion_probe,
    sample_sensing_matrix,
    sample_sparse_signal,
)


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

    def test_measurement_length_error_names_z(self):
        Phi = inject(np.ones((8, 4)))
        with pytest.raises(ConfigError, match=r"^z: must be a vector of length 8, got shape"):
            pbp(Phi, np.ones(7), 2)

    def test_noiseless_error_within_distortion_bound(self):
        # small instance where the probed distortion makes the bound honest
        gen = RngStream(23).generator()
        Phi = sample_sensing_matrix(gen, 64, 8, "po")
        x0, _ = sample_sparse_signal(gen, 8, 2)
        z, _ = measure_phase_only(Phi, x0, 0.0, gen)
        xhat, _ = pbp(Phi, z, 2)
        delta = rip_distortion_probe(Phi, 4, 400, gen).delta_lower
        assert direction_error(x0, xhat) <= pbp_error_bound(delta, 0.0) + 1e-12


def oracle_support_estimate(Phi, z, support):
    """Back-project and keep a fixed support instead of the s strongest entries."""
    back = adjoint_matvec(Phi.mat, np.asarray(z))
    out = np.zeros_like(back)
    out[support] = back[support]
    return out


class TestOracleSupport:
    def test_full_support(self):
        gen = RngStream(24).generator()
        Phi = sample_sensing_matrix(gen, 10, 5, "po")
        z = csign(gen.standard_normal(10) + 1j * gen.standard_normal(10))
        out = oracle_support_estimate(Phi, z, np.arange(5))
        assert np.array_equal(out, adjoint_matvec(Phi.mat, z))

    def test_empty_support(self):
        gen = RngStream(25).generator()
        Phi = sample_sensing_matrix(gen, 10, 5, "po")
        z = np.ones(10, complex)
        assert np.array_equal(
            oracle_support_estimate(Phi, z, np.array([], dtype=np.intp)),
            np.zeros(5, complex),
        )

    def test_oracle_error_within_bound(self):
        gen = RngStream(26).generator()
        Phi = sample_sensing_matrix(gen, 64, 8, "po")
        x, support = sample_sparse_signal(gen, 8, 2)
        S = np.union1d(support, np.array([(support[0] + 1) % 8]))
        z = csign(Phi.mat @ x)
        est = oracle_support_estimate(Phi, z, S)
        delta = rip_distortion_probe(Phi, S.size, 400, gen).delta_lower
        err = float(np.linalg.norm(est - x))
        assert err <= oracle_support_error_bound(delta) + 1e-12


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
        # 1e200 and 1e-160 square out of double range, 1e20 and 1e-23 out of float32's
        for c in (2.0, 10.0, 0.125, 1e200, 1e-160):
            assert direction_error(x0, c * xhat) == pytest.approx(base, abs=1e-12)
        for c in (1.0, 1e20, 1e-23):
            est = (c * xhat).astype(np.complex64)
            assert direction_error(x0, est) == pytest.approx(base, abs=1e-6)

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

    def test_rejects_a_stack_of_rows(self):
        # it would otherwise be scored as one long vector
        x0 = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            direction_error(x0, x0)

    def test_rejects_a_length_mismatch(self):
        with pytest.raises(ConfigError, match="^xhat:"):
            direction_error(np.ones(3), np.ones(4))
        # numpy would broadcast the length-1 x0 against xhat and score sqrt(2)
        with pytest.raises(ConfigError, match="^xhat:"):
            direction_error(np.ones(1), np.array([1.0, 0.0, 0.0]))
