"""Statistical gate where the engine's phase-noise law is a mixture.

Past tau = pi the sweep engine draws the phase noise from its wrapped law
(:func:`pocs.experiments._draw_chunk`): with q, r = divmod(tau, pi), K ~
Binomial(m, q pi / tau) of a row's m phases are uniform on the circle and sum
to one complex normal, and the other m - K are q pi + u with u ~ U[-r, r].
``tests/test_engine.py`` has one such cell, tau = 1.5 pi (q = 1). These
cells, at the small cells' n = 32, cover r = 0 at q = 1, 2 and 4 (tau = pi,
2 pi and 4 pi, where no arc entry is drawn) and q = 2 with r > 0
(tau = 2.7 pi), against full-matrix trials under the same two tests: means
within 4 combined standard errors, and the two-sample Kolmogorov-Smirnov
statistic below its 1% critical value.
"""

import math

import pytest

from test_engine import assert_same_law


@pytest.mark.parametrize("tau", [math.pi, 2.0 * math.pi, 2.7 * math.pi, 4.0 * math.pi])
def test_matches_full_matrix_reference_past_pi(tau):
    assert_same_law("po", 32, 4, 24, tau, trials=6_000)
