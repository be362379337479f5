"""Phase-only compressive sensing toolkit.

Estimates the direction of a sparse complex signal from only the phases of
its complex Gaussian random measurements, a complex-field analogue of
one-bit acquisition. The package provides the projected back-projection
(PBP) estimator and the supporting (l1, l2) restricted-isometry machinery:
empirical distortion probing and the matching reconstruction-error and
sample-complexity bounds. A seeded Monte Carlo harness (library API plus the
``pocs`` command line) sweeps measurement count or phase-noise amplitude and
emits deterministic CSV or JSON tables.
"""

# each module declares the names it exports in its own __all__; the package
# re-exports them all
from . import core, experiments, rip, rng
from .core import *
from .experiments import *
from .rip import *
from .rng import *

__version__ = "0.1.0"

__all__ = core.__all__ + experiments.__all__ + rip.__all__ + rng.__all__
