"""Probe the (l1, l2) restricted isometry of a phase-only sensing matrix.

Walks through the diagnostic toolkit on one drawn matrix: the empirical
distortion lower bound found by randomized probing, the reconstruction-error
bounds that distortion implies, and the closed-form measurement budget that
would guarantee a target distortion with high probability.

Run:
    python demos/rip_diagnostics.py
"""

from pocs import (
    RngStream,
    oracle_support_error_bound,
    pbp_error_bound,
    rip_distortion_probe,
    sample_complexity_bound,
    sample_sensing_matrix,
)


def main() -> None:
    m, n, s = 512, 128, 5
    gen = RngStream(2024).generator()

    Phi = sample_sensing_matrix(gen, m, n, "po")
    estimate = rip_distortion_probe(Phi, s, 2000, gen)
    print(f"empirical distortion at (m={m}, n={n}, s={s})")
    print(f"  delta >= {estimate.delta_lower:.4f} from {estimate.num_probes} probes "
          "(lower bound only; never a certificate)")
    print(f"  implied oracle-support error bound: {oracle_support_error_bound(estimate.delta_lower):.3f}")
    print(f"  implied PBP error bound (noiseless): {pbp_error_bound(estimate.delta_lower, 0.0):.3f}")

    print("measurement budget for a guaranteed distortion (failure prob 1%)")
    for delta in (0.5, 0.3, 0.2):
        budget = sample_complexity_bound(delta, s, n, 0.01)
        print(f"  delta = {delta:.1f}: m >= {budget}")


if __name__ == "__main__":
    main()
