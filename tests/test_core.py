"""Core primitive tests, with brute-force oracles where the contract allows one."""

import itertools

import numpy as np
import pytest

from pocs import (
    RngStream,
    adjoint_matvec,
    csign,
    hard_threshold,
)


def random_complex(gen, d):
    parts = gen.standard_normal((d, 2))
    return parts.view(np.complex128)[..., 0].copy()


class TestCsign:
    def test_modulus_five(self):
        out = csign(np.array([3 + 4j]))
        assert np.allclose(out, [0.6 + 0.8j], atol=1e-15)

    def test_negative_real_axis(self):
        assert np.allclose(csign(np.array([-2.0])), [-1.0], atol=1e-15)

    def test_zero_convention(self):
        out = csign(np.array([0.0]))
        assert out[0] == 1.0 + 0.0j
        out = csign(np.array([0.0, -0.0, 1j]))
        assert out.tolist() == [1.0 + 0.0j, 1.0 + 0.0j, 1j]

    @pytest.mark.parametrize("seed", range(5))
    def test_unit_modulus_and_idempotence(self, seed):
        gen = RngStream(101, seed).generator()
        v = random_complex(gen, 64)
        w = csign(v)
        assert np.max(np.abs(np.abs(w) - 1.0)) < 1e-12
        assert np.allclose(csign(w), w, atol=1e-12)


def brute_force_best_support(v, s):
    """Exhaustive minimizer over all |S| = s of the l2 norm of v off S."""
    best, best_err = None, np.inf
    for S in itertools.combinations(range(v.size), s):
        err = np.linalg.norm(np.delete(v, S))
        if err < best_err - 1e-15:
            best, best_err = S, err
    return best, best_err


class TestHardThreshold:
    def test_moduli_ordering(self):
        v = np.array([3, 1j, -2, 0.5])
        out, supp = hard_threshold(v, 2)
        assert np.array_equal(out, np.array([3, 0, -2, 0]))
        assert np.array_equal(supp, np.array([0, 2]))

    def test_tie_breaks_to_lowest_index(self):
        out, supp = hard_threshold(np.array([1.0, 1.0, 1.0]), 2)
        assert np.array_equal(out, np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(supp, np.array([0, 1]))

    def test_matches_brute_force_n8_s3(self):
        gen = RngStream(102).generator()
        for _ in range(20):
            v = random_complex(gen, 8)
            out, _ = hard_threshold(v, 3)
            _, best_err = brute_force_best_support(v, 3)
            assert np.linalg.norm(v - out, 2) == pytest.approx(best_err, abs=1e-12)

    def test_idempotent_and_sparse(self):
        gen = RngStream(103).generator()
        v = random_complex(gen, 12)
        out, supp = hard_threshold(v, 4)
        assert np.count_nonzero(out) <= 4
        again, supp2 = hard_threshold(out, 4)
        assert np.array_equal(again, out)
        assert np.array_equal(supp2, supp)

    def test_beats_every_fixed_support(self):
        gen = RngStream(104).generator()
        for n in (3, 5, 7):
            v = random_complex(gen, n)
            for s in range(1, n + 1):
                out, _ = hard_threshold(v, s)
                thresh_err = np.linalg.norm(v - out, 2)
                for S in itertools.combinations(range(n), s):
                    fixed = np.linalg.norm(np.delete(v, S))
                    assert thresh_err <= fixed + 1e-12

    def test_rows_match_stable_argsort_with_ties(self):
        # integer moduli on axis-aligned phases tie exactly and often
        gen = RngStream(105).generator()
        for _ in range(40):
            rows, n = int(gen.integers(1, 6)), int(gen.integers(1, 20))
            phases = np.array([1, -1, 1j, -1j])[gen.integers(0, 4, size=(rows, n))]
            v = gen.integers(0, 4, size=(rows, n)) * phases
            for s in range(1, n + 1):
                out, supp = hard_threshold(v, s)
                assert supp.shape == (rows, s)
                for r in range(rows):
                    ref = np.sort(np.argsort(-np.abs(v[r]), kind="stable")[:s])
                    assert np.array_equal(supp[r], ref)
                    assert np.array_equal(np.delete(out[r], ref), np.zeros(n - s))
                    assert np.array_equal(out[r, ref], v[r, ref])
                    row_out, row_supp = hard_threshold(v[r], s)
                    assert np.array_equal(row_out, out[r])
                    assert np.array_equal(row_supp, ref)

    def test_s_out_of_range(self):
        v = np.ones(3, dtype=complex)
        with pytest.raises(ValueError):
            hard_threshold(v, 0)
        with pytest.raises(ValueError):
            hard_threshold(v, 4)
        with pytest.raises(ValueError, match="^s:"):
            hard_threshold(v, 2.0)


class TestMatvec:
    def test_adjoint_conjugates(self):
        A = np.array([[1j]])
        assert (A @ np.array([1.0]))[0] == 1j
        assert adjoint_matvec(A, np.array([1.0]))[0] == -1j

    @pytest.mark.parametrize("seed", range(5))
    def test_adjoint_identity(self, seed):
        gen = RngStream(107, seed).generator()
        A = random_complex(gen, 12).reshape(4, 3)
        v = random_complex(gen, 3)
        w = random_complex(gen, 4)
        lhs = np.vdot(w, A @ v)  # <Av, w> with numpy's conjugation order
        rhs = np.vdot(adjoint_matvec(A, w), v)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_adjoint_matches_conjugate_transpose(self):
        # the adjoint avoids a conjugated copy of A; it must equal A^H v
        gen = RngStream(108).generator()
        for m, n in [(1, 1), (1, 5), (5, 1), (3, 7), (16, 64), (64, 16), (9, 9)]:
            A = random_complex(gen, m * n).reshape(m, n)
            v = random_complex(gen, m)
            ref = A.conj().T @ v
            got = adjoint_matvec(A, v)
            assert got.shape == (n,)
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            adjoint_matvec(np.eye(2), np.ones(3))


def test_public_names_are_exactly_all():
    # each module declares its own exports in __all__, and pocs re-exports them:
    # one owner per public name, and pocs binds no other public name
    import types

    import pocs
    from pocs import core, experiments, rip, rng

    public = {
        name
        for name, value in vars(pocs).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(pocs.__all__)
    assert len(pocs.__all__) == len(set(pocs.__all__))
    owned = []
    for module in (core, experiments, rip, rng):
        assert "__all__" in vars(module), module.__name__
        # every non-underscore name the module defines is in its __all__, and no name
        # it imports; a constant has no __module__, and belongs where it is bound
        defined = {
            name
            for name, value in vars(module).items()
            if not name.startswith("_") and not isinstance(value, types.ModuleType)
            and getattr(value, "__module__", module.__name__) == module.__name__
        }
        assert sorted(defined) == sorted(module.__all__), module.__name__
        owned += module.__all__
    assert len(owned) == len(set(owned))  # the four lists are disjoint
    assert set(owned) == set(pocs.__all__)
