"""Session-scoped Monte Carlo sweeps shared by the acceptance gate.

The heavy cells (m = 4096 at 1000 trials) take around a minute each on one
core, so each grid is computed once per session and reused by every test
that needs it. Creation wall time is recorded for the runtime criteria.
"""

import time
from dataclasses import dataclass

import pytest

from pocs import SweepConfig, SweepResult, run_sweep

ACCEPTANCE_SEED = 20260808


@dataclass(frozen=True)
class TimedResult:
    result: SweepResult
    seconds: float


def timed_sweep(config: SweepConfig) -> TimedResult:
    start = time.perf_counter()
    result = run_sweep(config)
    return TimedResult(result, time.perf_counter() - start)


@pytest.fixture(scope="session")
def sweep_s2_high() -> TimedResult:
    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(2,), log2_m_over_n=(4.0,),
            schemes=("po", "cs"), trials=1000, master_seed=ACCEPTANCE_SEED,
        )
    )


@pytest.fixture(scope="session")
def sweep_s2_low() -> TimedResult:
    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(2,), log2_m_over_n=(0.0, 2.0),
            schemes=("po", "cs"), trials=1000, master_seed=ACCEPTANCE_SEED,
        )
    )


@pytest.fixture(scope="session")
def sweep_s10_low() -> TimedResult:
    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(10,), log2_m_over_n=(-2.0,),
            schemes=("po",), trials=1000, master_seed=ACCEPTANCE_SEED,
        )
    )


@pytest.fixture(scope="session")
def sweep_s50_high() -> TimedResult:
    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(50,), log2_m_over_n=(4.0,),
            schemes=("po", "cs"), trials=1000, master_seed=ACCEPTANCE_SEED,
        )
    )


@pytest.fixture(scope="session")
def tau_anchor() -> TimedResult:
    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(10,), m=64, tau_grid=(0.0,),
            schemes=("po",), trials=10_000, master_seed=ACCEPTANCE_SEED,
        )
    )


@pytest.fixture(scope="session")
def tau_saturation() -> TimedResult:
    import math

    return timed_sweep(
        SweepConfig(
            n=256, sparsity_levels=(10,), m=64,
            tau_grid=(1.5 * math.pi, 2.0 * math.pi, 4.0 * math.pi),
            schemes=("po",), trials=10_000, master_seed=ACCEPTANCE_SEED,
        )
    )
