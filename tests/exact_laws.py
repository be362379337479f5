"""Cell masses of the laws the exact tests integrate against, with no random numbers.

Each law is discretised on a grid of step h: the mass of every cell
``[k h, (k + 1) h)`` is placed at the cell's centre.
"""

import math

import numpy as np

RAYLEIGH_CUT = 10.0  # the Rayleigh(1) cells stop here: the mass beyond is e^-50


def gamma_cells(m, step):
    """``(centres, mass)`` of Gamma(m, 1) on the cells up to m + 20 sqrt(m) + 50.

    The masses come from the survival function sum_{j < m} e^-x x^j / j!, each
    term taken in log space, ``exp(j log x - x - lgamma(j + 1))``, so that no
    power or factorial leaves the float range (171! is the last that fits).
    """
    edges = np.arange(int((m + 20 * math.sqrt(m) + 50) / step) + 1) * step
    with np.errstate(divide="ignore"):  # log 0 = -inf: every term but j = 0 is 0 at x = 0
        log_edges = np.log(edges)
    survival = np.exp(-edges)  # the term j = 0
    for j in range(1, m):
        survival += np.exp(j * log_edges - edges - math.lgamma(j + 1))
    return edges[:-1] + 0.5 * step, -np.diff(survival)


def rayleigh_sum_cells(m, step):
    """``(centres, mass)`` of a sum of m i.i.d. Rayleigh(1), each cut at ``RAYLEIGH_CUT``.

    The m-fold FFT convolution power of the Rayleigh cell masses: a sum of m cell
    centres (k_i + 1/2) h is (K + m/2) h, K the sum of the indices, so it lies
    within m h / 2 of the sum of the m values it stands for.
    """
    edges = np.arange(int(RAYLEIGH_CUT / step) + 1) * step
    cell = -np.diff(np.exp(-0.5 * edges * edges))
    size = m * (cell.size - 1) + 1
    mass = np.fft.irfft(np.fft.rfft(cell, size) ** m, size)
    return (np.arange(size) + 0.5 * m) * step, mass
