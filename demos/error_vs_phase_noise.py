"""Degrade the measurement phases and watch the error saturate at sqrt(2).

Phase noise uniform on [-tau, tau] multiplies each phase-only measurement by
exp(1j xi). The mean direction error grows almost linearly in tau until
tau = pi; past that the measurements carry essentially no direction
information and the error settles at sqrt(2), the distance between random
unit directions. (Just past pi it briefly overshoots sqrt(2): the average
noise factor E exp(1j xi) = sin(tau)/tau is negative there, so the
back-projection points slightly away from the signal.)

Run:
    python demos/error_vs_phase_noise.py
"""

import math

from pocs import SweepConfig, run_sweep


def main() -> None:
    config = SweepConfig(
        n=256,
        sparsity_levels=(10,),
        m=64,
        tau_grid=tuple(k * 0.25 * math.pi for k in range(0, 17, 2)),
        schemes=("po",),
        trials=1000,
        master_seed=11,
    )
    print(f"# n={config.n}, s=10, m=64, {config.trials} trials per tau")
    result = run_sweep(config)
    print("tau/pi   mean error   (bar chart, sqrt(2) marked at |)")
    saturation = math.sqrt(2.0)
    for cell in result.cells:
        bars = int(round(cell.mean_error / saturation * 40))
        print(f"{cell.tau / math.pi:5.2f}   {cell.mean_error:10.4f}   {'#' * bars}{'|' if bars == 40 else ''}")
    print(f"# saturation level sqrt(2) = {saturation:.4f}")


if __name__ == "__main__":
    main()
