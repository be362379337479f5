"""The cell masses of :mod:`exact_laws` against closed forms."""

import math

import numpy as np
import pytest

from exact_laws import gamma_cells


@pytest.mark.parametrize("m", [1, 2, 5, 16])
def test_gamma_cells_match_the_factorial_sum(m):
    # below 171! the survival function e^-x sum_{j < m} x^j / j! can be summed as written
    step = 1e-3
    centres, mass = gamma_cells(m, step)
    edges = np.arange(centres.size + 1) * step
    survival = np.exp(-edges) * sum(edges**j / math.factorial(j) for j in range(m))
    assert np.abs(mass + np.diff(survival)).max() <= 1e-12


@pytest.mark.parametrize("m", [172, 500])
def test_gamma_cells_past_the_factorial_range(m):
    # the cells hold all the mass, at the law's mean m and variance m; a cell centre is
    # within step / 2 of the values it stands for
    step = 1e-2
    centres, mass = gamma_cells(m, step)
    assert abs(mass.sum() - 1.0) <= 1e-12
    mean = np.sum(centres * mass)
    assert abs(mean - m) <= step
    assert abs(np.sum((centres - mean) ** 2 * mass) - m) <= step * math.sqrt(m)
