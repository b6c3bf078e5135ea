"""Strong turnpike behavior of a scalar problem with drift and noise.

Simulates the finite-horizon closed loop and its stationary comparison
process with shared noise increments, then prints the pathwise gap
E|X - X*|^2 + E|u - u*|^2 near the boundaries and at the midpoint,
together with two-sided exponential fits.
"""

import numpy as np

from mflq import (
    SimulationConfig,
    fit_turnpike_decay,
    make_problem,
    run_coupled,
    solve_feedback,
)


def main():
    problem = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]],
                           R=[[1.0]], b=[1.0], sigma=[0.5])
    T = 10.0
    cfg = SimulationConfig(T=T, dt=2e-3, n_paths=4000, seed=42)
    feedback = solve_feedback(problem, T, cfg.n_steps)
    static = feedback.static
    print(f"steady state: x* = {static.x_star[0]:.4f},"
          f" u* = {static.u_star[0]:.4f}, V = {static.V:.6f}")

    res = run_coupled(feedback, [1.5], cfg)
    stats = res.optimal
    gap = stats.gap_X + stats.gap_u
    mesh = stats.mesh

    def at(t):
        return gap[np.argmin(np.abs(mesh - t))]

    print(f"gap(0)     = {at(0.0):.4e}")
    print(f"gap(0.5)   = {at(0.5):.4e}")
    print(f"gap(T/2)   = {at(T / 2):.4e}")
    print(f"gap(T-0.5) = {at(T - 0.5):.4e}")
    left, right = fit_turnpike_decay(gap, T, mesh)
    print(f"left decay:  lam = {left.lam:.3f} (R^2 = {left.r_squared:.4f})")
    print(f"right decay: lam = {right.lam:.3f} (R^2 = {right.r_squared:.4f})")
    print(f"cost/T = {stats.cost_estimate / T:.4f}"
          f" +- {stats.cost_stderr / T:.4f} (V = {static.V:.4f})")


if __name__ == "__main__":
    main()
