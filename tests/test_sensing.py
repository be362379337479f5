"""Sensing ensemble and measurement-channel tests."""

import itertools
import math

import numpy as np
import pytest

from pocs import (
    ConfigError,
    RngStream,
    SensingMatrix,
    VarianceConvention,
    csign,
    measure_linear,
    measure_phase_only,
    sample_sensing_matrix,
    sample_sparse_signal,
)
from pocs.core import _support_value_batch, per_part_sigma


class TestSamplingConventions:
    def test_phase_only_sigma_value(self):
        sigma = per_part_sigma(64, VarianceConvention.PHASE_ONLY)
        assert sigma == pytest.approx(math.sqrt(2.0 / math.pi) / 64, rel=1e-12)
        assert sigma == pytest.approx(0.012467, abs=1e-6)

    def test_classical_cs_entry_variance(self):
        # per-part variance 1/(2m) makes the total entry variance 1/m
        assert 2 * per_part_sigma(64, "cs") ** 2 == pytest.approx(1.0 / 64, rel=1e-12)

    @pytest.mark.parametrize("convention", ["po", "cs"])
    def test_empirical_part_variance(self, convention):
        m, n = 100, 500  # 10^5 entries
        Phi = sample_sensing_matrix(RngStream(3).generator(), m, n, convention)
        for part in (Phi.mat.real, Phi.mat.imag):
            assert part.var() == pytest.approx(per_part_sigma(m, convention) ** 2, rel=0.02)
        # independent parts: empirical correlation is tiny
        corr = np.corrcoef(Phi.mat.real.ravel(), Phi.mat.imag.ravel())[0, 1]
        assert abs(corr) < 0.02

    def test_shape_and_dtype(self):
        Phi = sample_sensing_matrix(RngStream(4).generator(), 5, 7, "po")
        assert Phi.mat.shape == (5, 7)
        assert Phi.mat.dtype == np.complex128

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_sensing_matrix(RngStream(0).generator(), 0, 4, "po")

    @pytest.mark.parametrize("convention", list(VarianceConvention))
    def test_sigma_takes_the_convention_string(self, convention):
        assert per_part_sigma(8, convention.value) == per_part_sigma(8, convention)

    def test_sigma_rejects_an_unknown_convention(self):
        with pytest.raises(ValueError, match="^convention:"):
            per_part_sigma(8, "linear")
        with pytest.raises(ValueError, match="^convention:"):
            sample_sensing_matrix(RngStream(0).generator(), 4, 4, "linear")


class TestSparseSignal:
    def test_full_support_forced(self):
        for seed in range(10):
            _, support = sample_sparse_signal(RngStream(5, seed).generator(), 4, 4)
            assert np.array_equal(support, np.arange(4))

    def test_unit_norm_and_exact_zeros(self):
        x0, support = sample_sparse_signal(RngStream(6).generator(), 50, 7)
        assert abs(np.linalg.norm(x0) - 1.0) < 1e-12
        off = np.setdiff1d(np.arange(50), support)
        assert np.all(x0[off] == 0)
        assert np.all(x0[support] != 0)

    def test_values_live_on_real_axis(self):
        x0, _ = sample_sparse_signal(RngStream(7).generator(), 20, 5)
        assert np.all(x0.imag == 0)

    def test_support_uniformity(self):
        n, s, draws = 6, 2, 100_000
        gen = RngStream(8).generator()
        counts = {S: 0 for S in itertools.combinations(range(n), s)}
        for _ in range(draws):
            _, support = sample_sparse_signal(gen, n, s)
            counts[tuple(support)] += 1
        p = 1.0 / len(counts)
        sigma = math.sqrt(p * (1 - p) / draws)
        for S, c in counts.items():
            assert abs(c / draws - p) <= 4.0 * sigma, f"support {S} frequency off"

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            sample_sparse_signal(RngStream(0).generator(), 4, 0)
        with pytest.raises(ValueError):
            sample_sparse_signal(RngStream(0).generator(), 4, 5)
        with pytest.raises(ValueError, match="^s:"):
            sample_sparse_signal(RngStream(0).generator(), 8, 2.5)


class _ScriptedUniforms:
    """A generator whose ``random`` hands out the given uniforms in order."""

    def __init__(self, uniforms):
        self._u, self._next = np.asarray(uniforms, dtype=float), 0

    def random(self, size):
        count = int(np.prod(size))
        self._next += count
        return self._u[self._next - count : self._next].reshape(size).copy()


def batches(uniforms, n, s, sizes):
    """Supports and values of consecutive batches of the given sizes, stacked."""
    gen = _ScriptedUniforms(uniforms)
    drawn = [_support_value_batch(gen, n, s, size) for size in sizes]
    return np.concatenate([d[0] for d in drawn]), np.concatenate([d[1] for d in drawn])


class TestSupportValueBatch:
    # (n, s) = (4, 1): each draw takes 5 uniforms, the support at the smallest
    # of the first 4 and the value from the last
    UNIFORMS = [0.9, 0.8, 0.7, 0.1, 0.6, 0.25, 0.9, 0.8, 0.7, 0.1, 0.75, 0.2]

    def test_batch_size_keeps_the_samples(self):
        supports, values = batches(self.UNIFORMS, 4, 1, [2])
        assert supports.ravel().tolist() == [3, 0] and values.ravel().tolist() == [1.0, -1.0]
        single_supports, single_values = batches(self.UNIFORMS, 4, 1, [1, 1])
        assert np.array_equal(single_supports, supports)
        assert np.array_equal(single_values, values)

    def test_an_all_zero_value_row_is_redrawn_after_its_batch(self):
        # row 0's value uniform is 0.5, so its value 2u - 1 is zero: a batch of 2
        # redraws it from the uniform after both rows, while single draws redraw
        # it from the next uniform and shift the draw of row 1
        uniforms = [*self.UNIFORMS[:4], 0.5, *self.UNIFORMS[5:]]
        supports, values = batches(uniforms, 4, 1, [2])
        assert supports.ravel().tolist() == [3, 0] and values.ravel().tolist() == [1.0, -1.0]
        supports, values = batches(uniforms, 4, 1, [1, 1])
        assert supports.ravel().tolist() == [3, 3] and values.ravel().tolist() == [-1.0, 1.0]

    def test_all_zero_value_rows_are_redrawn_row_by_row(self):
        # (n, s) = (3, 2): rows 0 and 2 have all value uniforms 0.5. Row 0 is
        # redrawn to completion first, its first redraw all 0.5 again, then row 2
        rows = [[0.9, 0.1, 0.8, 0.5, 0.5], [0.2, 0.7, 0.4, 0.25, 0.75], [0.3, 0.6, 0.9, 0.5, 0.5]]
        redraws = [[0.5, 0.5], [0.1, 0.4], [0.95, 0.35]]
        supports, values = batches([*np.ravel(rows), *np.ravel(redraws)], 3, 2, [3])
        assert supports.tolist() == [[1, 2], [0, 2], [0, 1]]
        expected = 2.0 * np.array([[0.1, 0.4], [0.25, 0.75], [0.95, 0.35]]) - 1.0
        expected /= np.sqrt((expected * expected).sum(axis=1))[:, None]
        assert np.array_equal(values, expected)

    def test_batched_supports_are_uniform(self):
        # 200 batches of 1,000 draws at (n, s) = (16, 3) hit each of the 560 subsets,
        # and Pearson's chi^2 over them lies within 4 SD, sqrt(2 df), of its df
        n, s, batch, rounds = 16, 3, 1000, 200
        gen = RngStream(16).generator()
        codes = np.concatenate([(1 << _support_value_batch(gen, n, s, batch)[0]).sum(axis=1)
                                for _ in range(rounds)])  # a subset as its bit mask
        _, hits = np.unique(codes, return_counts=True)
        assert hits.size == math.comb(n, s) == 560
        expected = batch * rounds / hits.size
        df = hits.size - 1
        chi2 = ((hits - expected) ** 2 / expected).sum()
        assert abs(chi2 / df - 1.0) <= 4.0 * math.sqrt(2.0 / df), chi2 / df


def inject(mat):
    mat = np.asarray(mat, dtype=np.complex128)
    return SensingMatrix(mat=mat, convention=VarianceConvention.PHASE_ONLY)


class TestMeasureLinear:
    def test_identity_on_basis_vector(self):
        Phi = inject(np.eye(3))
        e1 = np.zeros(3, complex)
        e1[0] = 1.0
        assert np.array_equal(measure_linear(Phi, e1), e1)

    def test_matches_triple_loop_oracle(self):
        gen = RngStream(9).generator()
        parts = gen.standard_normal((3, 3, 2))
        A = parts.view(np.complex128)[..., 0].copy()
        x = gen.standard_normal(3) + 1j * gen.standard_normal(3)
        expected = np.zeros(3, complex)
        for i in range(3):
            for j in range(3):
                expected[i] += A[i, j] * x[j]
        got = measure_linear(inject(A), x)
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ConfigError, match="^x0:"):
            measure_linear(inject(np.eye(3)), np.ones(4, complex))
        with pytest.raises(ConfigError, match="^x0:"):
            measure_phase_only(inject(np.eye(3)), np.ones(4, complex), 0.0,
                               RngStream(10).generator())


class TestMeasurePhaseOnly:
    def test_noiseless_signum(self):
        # Phi x0 = [3+4i, -2] for x0 = [1]
        Phi = inject(np.array([[3 + 4j], [-2.0]]))
        x0 = np.array([1.0 + 0j])
        z, xi = measure_phase_only(Phi, x0, 0.0, RngStream(10).generator())
        assert np.allclose(z, [0.6 + 0.8j, -1.0], atol=1e-15)
        assert np.all(xi == 0.0)

    def test_tau_zero_is_exactly_the_signum(self):
        gen = RngStream(11).generator()
        Phi = sample_sensing_matrix(gen, 32, 16, "po")
        x0, _ = sample_sparse_signal(gen, 16, 3)
        z, _ = measure_phase_only(Phi, x0, 0.0, gen)
        assert np.array_equal(z, csign(Phi.mat @ x0))

    @pytest.mark.parametrize("tau", [0.1, math.pi, 4 * math.pi])
    def test_unit_modulus_and_noise_bound(self, tau):
        gen = RngStream(12).generator()
        Phi = sample_sensing_matrix(gen, 64, 16, "po")
        x0, _ = sample_sparse_signal(gen, 16, 3)
        z, xi = measure_phase_only(Phi, x0, tau, gen)
        assert np.max(np.abs(np.abs(z) - 1.0)) < 1e-12
        assert np.all(np.abs(xi) <= tau)

    def test_noise_moments(self):
        tau = math.pi
        gen = RngStream(13).generator()
        Phi = sample_sensing_matrix(gen, 100_000, 2, "po")
        x0, _ = sample_sparse_signal(gen, 2, 1)
        _, xi = measure_phase_only(Phi, x0, tau, gen)
        tol = 4.0 * (tau / math.sqrt(3)) / math.sqrt(xi.size)
        assert abs(xi.mean()) <= tol

    def test_scale_invariance_of_the_channel(self):
        gen = RngStream(14).generator()
        Phi = sample_sensing_matrix(gen, 24, 12, "po")
        x0, _ = sample_sparse_signal(gen, 12, 4)
        z1, _ = measure_phase_only(Phi, x0, 0.0, RngStream(15).generator())
        z2, _ = measure_phase_only(Phi, 2.0 * x0, 0.0, RngStream(15).generator())
        z3, _ = measure_phase_only(Phi, 3.1 * x0, 0.0, RngStream(15).generator())
        assert np.array_equal(z1, z2)  # power-of-two scaling is exact
        assert np.allclose(z1, z3, atol=1e-12)

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            measure_phase_only(inject(np.eye(2)), np.ones(2, complex), -0.1, RngStream(0).generator())

    @pytest.mark.parametrize("tau", [math.nan, math.inf, 1e308, "0.5"])
    def test_non_finite_tau_rejected(self, tau):
        # uniform(-tau, tau) needs a finite width 2 tau, of a real number (not a str)
        with pytest.raises(ValueError, match="^tau:"):
            measure_phase_only(inject(np.eye(2)), np.ones(2, complex), tau, RngStream(0).generator())


def test_draws_are_bit_reproducible():
    def draw_all():
        gen = RngStream(77, 3).generator()
        Phi = sample_sensing_matrix(gen, 16, 8, "po")
        x0, _ = sample_sparse_signal(gen, 8, 2)
        z, xi = measure_phase_only(Phi, x0, 0.5, gen)
        return Phi.mat, x0, xi, z

    first = draw_all()
    second = draw_all()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
