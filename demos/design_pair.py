"""Design a quasi-orthogonal zone-complementary pair and inspect its zone.

Runs the accelerated majorization-minimization solver at desk scale
(L=64, Z=30, PAPR-constrained) until both in-zone correlation maxima reach
the default target, then prints them alongside the stop reason and the
objective trajectory.
"""

import numpy as np

from qozcp import SolverConfig, complementary_sum, cross_correlation, papr, solve


def main():
    config = SolverConfig(L=64, Z=30, mode="papr", p_r=5.0, seed=0)
    pair, state = solve(config)

    L, Z = config.L, config.Z
    r = complementary_sum(pair)
    c = cross_correlation(pair.x, pair.y)
    lags = np.arange(-(L - 1), L)
    in_comp = (np.abs(lags) < Z) & (lags != 0)
    in_cross = np.abs(lags) < Z

    print(f"stopped ({state.stop_reason}) after {state.iteration} iterations, "
          f"objective {state.objective_history[-1]:.3e}, target {config.target:.3e}")
    print(f"max |C_x + C_y| for 0 < |k| < {Z}: {np.max(np.abs(r[in_comp])):.3e}")
    print(f"max |C_xy|      for     |k| < {Z}: {np.max(np.abs(c[in_cross])):.3e}")
    print(f"PAPR(x) = {papr(pair.x):.3f}, PAPR(y) = {papr(pair.y):.3f} "
          f"(cap {config.p_r})")

    hist = state.objective_history
    marks = [0, 10, 100, 500, len(hist) - 1]
    print("objective trajectory:")
    for i in marks:
        if i < len(hist):
            print(f"  iter {i:5d}: {hist[i]:.6e}")


if __name__ == "__main__":
    main()
