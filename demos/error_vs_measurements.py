"""Sweep the measurement count and watch the direction error fall.

Compares phase-only acquisition (keep only the measurement phases) against
classical linear acquisition on the same reduced grid, prints the aggregate
table, and fits the empirical decay exponent of the error in m. Phase-only
recovery tracks the linear scheme up to a roughly constant dB offset, and
both decay close to m^(-1/2) once m exceeds the signal dimension.

Run:
    python demos/error_vs_measurements.py
"""

from pocs import SweepConfig, fit_rate, render_csv, run_sweep


def main() -> None:
    config = SweepConfig(
        n=128,
        sparsity_levels=(2, 8),
        log2_m_over_n=(-2.0, 0.0, 1.0, 2.0, 3.0),
        schemes=("po", "cs"),
        trials=300,
        master_seed=7,
    )
    print(f"# n={config.n}, {config.trials} trials per cell, master seed {config.master_seed}")
    result = run_sweep(config)
    print(render_csv(result), end="")

    for scheme, label in (("po", "phase-only"), ("cs", "linear")):
        slope = fit_rate(result.cells, scheme, 2, config.n, min_log2_ratio=0.0)
        print(f"# decay exponent of the mean error in m ({label}, s=2, m >= n): {slope:+.3f}")
    print("# reference slopes: -0.5 is the observed rate, -0.25 the guaranteed one")


if __name__ == "__main__":
    main()
