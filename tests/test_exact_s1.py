"""Exact gate for s = 1 cells: the sweep's mean error against arithmetic.

At s = 1, ``x0 = +-e_j`` and the support entry of the scaled
back-projection is ``x0 rho``; each of the n - 1 entries off it has squared
modulus ``2 E`` with ``E ~ Exp(1)`` (:func:`pocs.experiments._draw_chunk`).
At tau = 0, ``rho`` is real and positive, so PBP recovers ``x0`` exactly
when it keeps the support entry and has error sqrt(2) when it keeps any
other. It keeps the support entry iff ``T < X`` with ``X = rho^2 / 2``, T
the largest of the n - 1 ``Exp(1)``, for both schemes:

- ``cs``: ``rho = sqrt(2G)``, so ``X = G ~ Gamma(m, 1)``;
- ``po``: ``rho = R / sqrt(m)``, so ``X = R^2 / (2m)`` with R a sum of m
  i.i.d. Rayleigh(1).

So the mean error is ``sqrt(2) (1 - E[(1 - e^-X)^(n-1)])``. The expectation
is computed with no random numbers, over cell masses placed at the centres
of a grid of step h (:mod:`exact_laws`): the Gamma cell masses from its
survival function, and the m-fold FFT convolution power of the Rayleigh cell
masses. Both are off by O(h^2), far below the sweep's standard error.
"""

import math

import numpy as np
import pytest

from exact_laws import gamma_cells, rayleigh_sum_cells
from pocs import SweepConfig, run_sweep

N = 256
MS = (1, 2, 4, 8, 16)
TRIALS = 200_000
STEP = 1e-3  # grid step h of both discretisations


def kept_probability(x, mass, n):
    """``E[(1 - e^-X)^(n-1)]`` for X on the points ``x`` (all > 0) with masses ``mass``."""
    return float(np.sum(mass * np.exp((n - 1) * np.log1p(-np.exp(-x)))))


def exact_cs(m, n):
    # X = G ~ Gamma(m, 1)
    x, mass = gamma_cells(m, STEP)
    assert abs(mass.sum() - 1.0) < 1e-9
    return math.sqrt(2.0) * (1.0 - kept_probability(x, mass, n))


def exact_po(m, n):
    # R a sum of m i.i.d. Rayleigh(1)
    r, mass = rayleigh_sum_cells(m, STEP)
    assert abs(mass.sum() - 1.0) < 1e-9
    return math.sqrt(2.0) * (1.0 - kept_probability(r * r / (2.0 * m), mass, n))


def test_references_at_known_points():
    # the two laws meet at m = 1: R^2 / 2 of one Rayleigh(1) is Exp(1) = Gamma(1, 1)
    assert exact_po(1, N) == pytest.approx(exact_cs(1, N), abs=1e-6)
    # with n = 2, P(T < X) = E[1 - e^-X] = 1 - 2^-m for X ~ Gamma(m, 1)
    for m in MS:
        assert exact_cs(m, 2) == pytest.approx(math.sqrt(2.0) * 2.0**-m, abs=1e-6)


@pytest.fixture(scope="module")
def s1_sweep():
    config = SweepConfig(n=N, sparsity_levels=(1,), log2_m_over_n=tuple(math.log2(m / N) for m in MS),
                         trials=TRIALS, master_seed=11)
    return {(c.scheme, c.m): c for c in run_sweep(config, workers=2).cells}


@pytest.mark.parametrize("m", MS)
@pytest.mark.parametrize("scheme,exact", [("cs", exact_cs), ("po", exact_po)])
def test_mean_error_matches_exact_value(s1_sweep, scheme, exact, m):
    cell = s1_sweep[scheme, m]
    assert cell.trials == TRIALS and cell.failures == 0
    assert abs(cell.mean_error - exact(m, N)) <= 4.0 * cell.stderr_error
