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

from .core import (
    ConfigError,
    DegenerateEstimateError,
    SensingMatrix,
    VarianceConvention,
    adjoint_matvec,
    csign,
    direction_error,
    hard_threshold,
    measure_linear,
    measure_phase_only,
    pbp,
    sample_sensing_matrix,
    sample_sparse_signal,
)
from .experiments import (
    CellAggregate,
    SweepConfig,
    SweepResult,
    fit_rate,
    load_sweep_cells,
    render_csv,
    render_json,
    rip_estimate_report,
    run_sweep,
    run_trial,
    trial_stream_id,
)
from .rip import (
    RipEstimate,
    oracle_support_error_bound,
    pbp_error_bound,
    rip_distortion_probe,
    sample_complexity_bound,
)
from .rng import RngStream, fnv1a64

__version__ = "0.1.0"

__all__ = [
    "CellAggregate",
    "ConfigError",
    "DegenerateEstimateError",
    "RipEstimate",
    "RngStream",
    "SensingMatrix",
    "SweepConfig",
    "SweepResult",
    "VarianceConvention",
    "adjoint_matvec",
    "csign",
    "direction_error",
    "fit_rate",
    "fnv1a64",
    "hard_threshold",
    "load_sweep_cells",
    "measure_linear",
    "measure_phase_only",
    "oracle_support_error_bound",
    "pbp",
    "pbp_error_bound",
    "render_csv",
    "render_json",
    "rip_distortion_probe",
    "rip_estimate_report",
    "run_sweep",
    "run_trial",
    "sample_complexity_bound",
    "sample_sensing_matrix",
    "sample_sparse_signal",
    "trial_stream_id",
]
