"""Paper property checks used by the tests only: Riccati monotonicity in
the horizon, the cross-term normalization, the KKT residuals of the
static problem and the exact moments of the Monte Carlo chain."""

from dataclasses import replace

import numpy as np

from mflq import AssumptionViolation, integrate_finite_horizon
from mflq.riccati import _sym
from mflq.simulate import _mean_cost_series, _node_series, closed_loop

PSD_ORDER_TOL = 1e-9


def horizon_monotonicity_check(problem, horizons, steps_per_unit):
    """Compute Pi_T(0) per horizon and test PSD-order monotonicity.

    One march to the longest horizon at steps_per_unit steps per unit
    time serves every horizon, each a node of it, as its tail.  Returns
    (list of Pi_T(0), verdict); the verdict is true iff each successive
    difference has minimum eigenvalue >= -PSD_ORDER_TOL.
    """
    horizons = list(horizons)
    if any(h2 <= h1 for h1, h2 in zip(horizons, horizons[1:])):
        raise ValueError("horizons must be strictly increasing")
    longest = horizons[-1]
    march = integrate_finite_horizon(
        problem, longest, steps=max(1, int(round(steps_per_unit * longest))))
    pi0 = [march.tail(T).Pi_of_t[0] for T in horizons]
    verdict = all(
        np.min(np.linalg.eigvalsh(_sym(b - a))) >= -PSD_ORDER_TOL
        for a, b in zip(pi0, pi0[1:]))
    return pi0, verdict


def normalize_cross_terms(problem):
    """Zero the cross-weight blocks by absorbing them into (A, C, Q).

    Replaces A by A - B R^{-1} S, C by C - D R^{-1} S, Q by Q - S' R^{-1} S,
    applies the analogous hat transform, and rewrites the barred blocks so
    the new hats are exactly the transformed hats.  The finite-horizon
    Riccati solutions are unchanged by this transform.
    """
    h = problem.hats
    try:
        RinvS = np.linalg.solve(problem.R, problem.S)
        RhinvSh = np.linalg.solve(h.Rhat, h.Shat)
    except np.linalg.LinAlgError as exc:
        raise AssumptionViolation("A1 violated") from exc
    A_new = problem.A - problem.B @ RinvS
    C_new = problem.C - problem.D @ RinvS
    Q_new = problem.Q - problem.S.T @ RinvS
    Ahat_new = h.Ahat - h.Bhat @ RhinvSh
    Chat_new = h.Chat - h.Dhat @ RhinvSh
    Qhat_new = h.Qhat - h.Shat.T @ RhinvSh
    Q_new = 0.5 * (Q_new + Q_new.T)
    Qhat_new = 0.5 * (Qhat_new + Qhat_new.T)
    zero_mn = np.zeros((problem.m, problem.n))
    return replace(
        problem,
        A=A_new, C=C_new, Q=Q_new, S=zero_mn,
        Abar=Ahat_new - A_new, Cbar=Chat_new - C_new,
        Qbar=Qhat_new - Q_new, Sbar=zero_mn.copy(),
    )


def kkt_residual(problem, P, solution):
    """Max-abs residuals (feasibility, stationarity-x, stationarity-u)."""
    h = problem.hats
    P = np.asarray(P, dtype=float)
    x, u, lam = solution.x_star, solution.u_star, solution.lambda_star
    w = P @ (h.Chat @ x + h.Dhat @ u + problem.sigma)
    feas = h.Ahat @ x + h.Bhat @ u + problem.b
    stat_x = h.Ahat.T @ lam + h.Qhat @ x + h.Chat.T @ w + h.Shat.T @ u + problem.q
    stat_u = h.Bhat.T @ lam + h.Rhat @ u + h.Dhat.T @ w + h.Shat @ x + problem.r
    return (float(np.max(np.abs(feas), initial=0.0)),
            float(np.max(np.abs(stat_x), initial=0.0)),
            float(np.max(np.abs(stat_u), initial=0.0)))


def exact_moments(feedback, x0, config):
    """The exact expectations of what run_coupled estimates on the same
    Euler chain: its optimal cost and its four gap series.

    The chain v <- F_k v + (G_k v) dW_k of v = (Xt - Xs, Xs, 1), with one
    scalar dW_k of variance dt, has second moment S_k = E[v_k v_k'] with
    S_{k+1} = F_k S_k F_k' + dt G_k S_k G_k' from S_0 = v_0 v_0'.  F, G,
    cost_W and the maps are simulate.closed_loop's, and every series
    comes from S through run_coupled's own _node_series and
    _mean_cost_series.  Returns (cost, {gap name: node series}).
    """
    cl = closed_loop(feedback, x0, config.T, config.dt)
    K, r = config.n_steps, cl.F.shape[-1]
    v0 = np.zeros(r)
    v0[:r // 2], v0[-1] = cl.m_t[0], 1.0
    S = np.empty((K + 1, r, r))
    S[0] = np.outer(v0, v0)
    for k in range(K):
        S[k + 1] = (cl.F[k] @ S[k] @ cl.F[k].T
                    + config.dt * cl.G[k] @ S[k] @ cl.G[k].T)
    mean_X, mean_u = (_node_series(cl.maps[name], S)[0]
                      for name in ("X_opt", "u_opt"))
    mean_cost = _mean_cost_series(feedback.problem, mean_X, mean_u)
    cost = (np.einsum("kij,kij->", cl.cost_W, S)
            + np.trapezoid(mean_cost, np.linspace(0.0, config.T, K + 1)))
    return float(cost), {name: _node_series(cl.maps[name], S)[1]
                         for name in ("gap_X", "gap_u", "gap_Y", "gap_Z")}
