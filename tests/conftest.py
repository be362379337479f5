"""Session-scoped Monte Carlo sweeps at the acceptance gate's reference scale, n = 256.

Each grid is run once per session, because several tests read it: criteria
3 and 5 share the s = 2 grid at m = 4096, and the po-vs-cs tests of
``tests/test_experiments.py`` read the s = 2 grids too. Each fixture records
the wall time its sweep took, which criteria 1 and 3 check.
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
