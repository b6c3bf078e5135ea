"""Static optimization over the affine steady-state set.

Minimizes

    F(x, u) = <Qhat x, x> + <Rhat u, u> + 2 <Shat x, u> + 2 <q, x> + 2 <r, u>
            + <P (Chat x + Dhat u + sigma), Chat x + Dhat u + sigma>

subject to Ahat x + Bhat u + b = 0, via its KKT system.  The minimizer
(x*, u*) is the mean of the turnpike, the multiplier lambda* anchors the
stationary adjoint, and sigma* = Chat x* + Dhat u* + sigma is the
stationary diffusion offset.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .model import ProblemData, exact_shape

__all__ = ["StaticSolution", "evaluate_F", "solve_static"]

KKT_RCOND_TOL = 1e-14
KKT_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class StaticSolution:
    x_star: np.ndarray
    u_star: np.ndarray
    lambda_star: np.ndarray
    V: float
    sigma_star: np.ndarray


def _diffusion_offset(problem: ProblemData, x, u) -> np.ndarray:
    """Chat x + Dhat u + sigma: the diffusion offset at (x, u)."""
    h = problem.hats
    return h.Chat @ x + h.Dhat @ u + problem.sigma


def evaluate_F(problem: ProblemData, P: np.ndarray,
               x: np.ndarray, u: np.ndarray) -> float:
    """Static cost at a point (x, u), including the diffusion term."""
    h = problem.hats
    n, m = problem.n, problem.m
    x, u = exact_shape("x", x, (n,)), exact_shape("u", u, (m,))
    P = exact_shape("P", P, (n, n))
    w = _diffusion_offset(problem, x, u)
    return float(
        x @ h.Qhat @ x + u @ h.Rhat @ u + 2.0 * (u @ h.Shat @ x)
        + 2.0 * (problem.q @ x) + 2.0 * (problem.r @ u)
        + w @ P @ w)


def _kkt_system(problem: ProblemData, P: np.ndarray):
    h = problem.hats
    n, m = problem.n, problem.m
    CtPC = h.Chat.T @ P @ h.Chat
    CtPD = h.Chat.T @ P @ h.Dhat
    DtPD = h.Dhat.T @ P @ h.Dhat
    M = np.zeros((2 * n + m, 2 * n + m))
    M[:n, :n] = h.Qhat + CtPC
    M[:n, n:n + m] = h.Shat.T + CtPD
    M[:n, n + m:] = h.Ahat.T
    M[n:n + m, :n] = h.Shat + CtPD.T
    M[n:n + m, n:n + m] = h.Rhat + DtPD
    M[n:n + m, n + m:] = h.Bhat.T
    M[n + m:, :n] = h.Ahat
    M[n + m:, n:n + m] = h.Bhat
    rhs = np.concatenate([
        -problem.q - h.Chat.T @ (P @ problem.sigma),
        -problem.r - h.Dhat.T @ (P @ problem.sigma),
        -problem.b,
    ])
    return M, rhs


def solve_static(problem: ProblemData, P: np.ndarray) -> StaticSolution:
    """Solve the KKT system M sol = rhs for (x*, u*, lambda*) and fill
    V, sigma*.

    One dense (2n+m)-square solve with partial pivoting; the multiplier
    is kept as a first-class output.  Raises NumericalFailure when M's
    reciprocal condition number is below KKT_RCOND_TOL, or when the
    solve fails its certificate: max|M sol - rhs| above KKT_RESIDUAL_TOL
    times max(1, max|M| max|sol| + max|rhs|).
    """
    P = exact_shape("P", P, (problem.n, problem.n))
    M, rhs = _kkt_system(problem, P)
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] / sv[0] < KKT_RCOND_TOL:
        raise NumericalFailure("static problem degenerate (check A1/A2)")
    sol = np.linalg.solve(M, rhs)
    scale = max(1.0, np.max(np.abs(M)) * np.max(np.abs(sol))
                + np.max(np.abs(rhs)))
    residual = np.max(np.abs(M @ sol - rhs))
    if not residual <= KKT_RESIDUAL_TOL * scale:
        raise NumericalFailure(f"static problem: KKT residual {residual:.3g} "
                               f"above KKT_RESIDUAL_TOL * {scale:.3g}")
    x, u, lam = np.split(sol, [problem.n, problem.n + problem.m])
    return StaticSolution(
        x_star=x, u_star=u, lambda_star=lam,
        V=evaluate_F(problem, P, x, u),
        sigma_star=_diffusion_offset(problem, x, u),
    )

