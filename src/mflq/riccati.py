"""Backward Riccati pair on a finite horizon, stationary limits, offsets.

The state-weight matrix P_T(t) solves the matrix Riccati ODE

    dP/dt + Q(P) - S(P)' R(P)^{-1} S(P) = 0,    P_T(T) = 0,

and the mean-weight matrix Pi_T(t) solves the analogous equation in the
hat coefficients, consuming P but not conversely.  Dropping the time
derivative gives the algebraic Riccati pair whose solutions (P, Pi) are
the infinite-horizon limits.  The mean offsets (phiHat, thetaHat) feed
the affine part of the closed-loop feedback.  The finite-horizon data
depend on T - t alone, so `solve_feedback` solves them once per problem,
up to the longest horizon, and each shorter horizon reads the tail.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import static_opt
from .errors import NumericalFailure
from .model import (
    ProblemData,
    assemble_hats,
    check_mean_system_stabilizability,
    check_ms_stability,
    _maps,
    coefficient_maps,
    hat_coefficient_maps,
    mean_square_generator,
    require_a1,
)

__all__ = [
    "ArePair",
    "RiccatiPath",
    "Feedback",
    "integrate_finite_horizon",
    "solve_are",
    "integrate_offsets",
    "solve_feedback",
    "convergence_profile",
    "horizon_monotonicity_check",
    "write_convergence_csv",
]

RESIDUAL_TOL = 1e-10
PD_TOL = 1e-10
INVERSION_TOL = 1e-12
PSD_ORDER_TOL = 1e-9
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
MARCH_STEP = 0.01
MARCH_STEP_BUDGET = 10_000
DEFAULT_STEPS_PER_UNIT = 1000
_BLOWUP = 1e8


@dataclass(frozen=True)
class ArePair:
    """Stationary Riccati solutions with gains and residuals."""

    P: np.ndarray
    Pi: np.ndarray
    Theta: np.ndarray
    ThetaHat: np.ndarray
    residual_P: float
    residual_Pi: float


@dataclass(frozen=True)
class RiccatiPath:
    """Nodewise samples of the finite-horizon Riccati data on [0, T].

    Arrays are indexed by mesh node (ascending t); matrices are stored
    as (K+1, n, n), gains as (K+1, m, n), the mean offsets phiHat as
    (K+1, n) and thetaHat as (K+1, m).
    """

    T: float
    mesh: np.ndarray
    P_of_t: np.ndarray
    Pi_of_t: np.ndarray
    Theta_of_t: np.ndarray
    ThetaHat_of_t: np.ndarray
    phiHat_of_t: np.ndarray
    thetaHat_of_t: np.ndarray

    def tail(self, T: float) -> RiccatiPath:
        """The path of horizon T: the last K + 1 nodes, K = T / h for the
        step h, on the mesh of [0, T].  The data depend on T - t alone,
        so this equals a fresh march to T with step h.  Raises ValueError
        unless T is a node (to SimulationConfig's tolerance) up to self.T.
        """
        h = self.T / (len(self.mesh) - 1)
        ratio = T / h
        K = int(round(ratio))
        if (abs(ratio - K) > 1e-12 * max(1.0, ratio)
                or not 1 <= K < len(self.mesh)):
            raise ValueError(
                f"horizon T={T} is not a node of the Riccati march "
                f"(step {h} up to T={self.T})")
        arrays = {f.name: getattr(self, f.name)[-K - 1:] for f in fields(self)
                  if f.name.endswith("_of_t")}
        return RiccatiPath(T=float(T), mesh=np.linspace(0.0, T, K + 1),
                           **arrays)


@dataclass(frozen=True)
class Feedback:
    """The optimal closed loop of a problem at every horizon up to
    march.T: the stationary pair, the static solution and the Riccati
    path with its mean offsets, marched once to the longest horizon.
    The path of a shorter horizon is the march's tail."""

    problem: ProblemData
    are: ArePair
    static: static_opt.StaticSolution
    march: RiccatiPath

    def path(self, T: float) -> RiccatiPath:
        """The path of horizon T, the march's tail (RiccatiPath.tail)."""
        return self.march.tail(T)


def _sym(M):
    return 0.5 * (M + M.mT)


def _riccati_rhs(maps):
    """Q - S' R^{-1} S from a (Q, S, R) triple; the Riccati ODE right-hand
    side in s = T - t (forward-in-s form of the backward ODE)."""
    Qm, Sm, Rm = maps
    return _sym(Qm - Sm.mT @ np.linalg.solve(Rm, Sm))


def _rhs_P(problem: ProblemData, P):
    return _riccati_rhs(coefficient_maps(problem, P))


def _rhs_Pi(hats, P, Pi):
    return _riccati_rhs(hat_coefficient_maps(hats, P, Pi))


def _gain(maps):
    """Theta = -R^{-1} S from a (Q, S, R) triple, guarding the inversion."""
    _, Sm, Rm = maps
    if np.min(np.linalg.eigvalsh(_sym(Rm))) < INVERSION_TOL:
        raise NumericalFailure("Riccati inversion breakdown")
    return -np.linalg.solve(Rm, Sm)


def _gains(problem: ProblemData, hats, P, Pi):
    return (_gain(coefficient_maps(problem, P)),
            _gain(hat_coefficient_maps(hats, P, Pi)))


def _hermite_mid(y0, y1, f0, f1, h):
    """Cubic Hermite value at the interval midpoint."""
    return 0.5 * (y0 + y1) + 0.125 * h * (f0 - f1)


def _rk4(f, y0, h, steps):
    """Classical RK4 for dy/ds = f(j, c, y) from y(0) = y0.

    The stage time is s = (j + c) h: c in {0, 0.5, 1} places it inside
    interval j.  Returns the (steps + 1, ...) stack of node values.
    """
    ys = np.empty((steps + 1,) + np.shape(y0))
    y = ys[0] = y0
    for j in range(steps):
        k1 = f(j, 0.0, y)
        k2 = f(j, 0.5, y + 0.5 * h * k1)
        k3 = f(j, 0.5, y + 0.5 * h * k2)
        k4 = f(j, 1.0, y + h * k3)
        y = ys[j + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return ys


def _rk4_linear(M, g, y0, h, steps):
    """Classical RK4 for the linear ODE dy/ds = M(s) y + g(s) from
    y(0) = y0, with M and g read from half-step stacks: entry 2j + 2c is
    the value at s = (j + c) h.

    One RK4 step of a linear ODE is an affine map y -> Phi_j y + psi_j.
    The maps of all steps are built in one batched pass over the stacks;
    the march is then one matrix-vector product per step.  Returns the
    (steps + 1, n) stack of node values.
    """
    M0, Mh, M1 = M[0:-1:2], M[1::2], M[2::2]
    g0, gh, g1 = g[0:-1:2], g[1::2], g[2::2]

    def mv(A, x):
        return (A @ x[..., None])[..., 0]
    # stage i of step j is k_i = K_i y + kappa_i
    K1, kap1 = M0, g0
    K2, kap2 = Mh + 0.5 * h * (Mh @ K1), 0.5 * h * mv(Mh, kap1) + gh
    K3, kap3 = Mh + 0.5 * h * (Mh @ K2), 0.5 * h * mv(Mh, kap2) + gh
    K4, kap4 = M1 + h * (M1 @ K3), h * mv(M1, kap3) + g1
    Phi = np.eye(M.shape[-1]) + (h / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
    psi = (h / 6.0) * (kap1 + 2.0 * kap2 + 2.0 * kap3 + kap4)
    ys = np.empty((steps + 1,) + np.shape(y0))
    y = ys[0] = y0
    for j in range(steps):
        y = ys[j + 1] = Phi[j] @ y + psi[j]
    return ys


def _half_steps(nodes, mids):
    """Interleave node values and interval midpoint values, index 2j for
    node j and 2j + 1 for the midpoint of interval j."""
    out = np.empty((2 * len(nodes) - 1,) + nodes.shape[1:])
    out[0::2], out[1::2] = nodes, mids
    return out


def _pair_maps(problem: ProblemData):
    """The coefficient maps (Q, S, R) of the P and Pi equations as one
    function of the stacked pair y = (P, Pi), each map stacked over the
    two equations.

    The maps are affine in y, so one matrix L and one vector c give them
    all: flattened, they are L vec(y) + c.  L and c are read off `_maps`
    once: c at y = 0, and the columns of L at the 2n^2 unit matrices with
    the constant blocks Q, S, R zeroed, so that no column carries the
    constant's rounding.  A call is then one matrix-vector product.
    """
    hats = assemble_hats(problem)
    # (problem, hats) blocks stacked on a leading axis of length 2: _maps
    # at (P, (P, Pi)) gives the maps of both equations
    blocks = [np.stack([getattr(problem, k), getattr(hats, k + "hat")])
              for k in "ABCDQSR"]
    n = problem.n
    const = _maps(*blocks, np.zeros((n, n)), np.zeros((2, n, n)))
    units = np.eye(2 * n * n).reshape(-1, 2, n, n)
    linear = blocks[:4] + [np.zeros_like(b) for b in blocks[4:]]
    L = np.concatenate([x.reshape(len(units), -1) for x in
                        _maps(*linear, units[:, :1], units)], axis=1).T
    c = np.concatenate([x.reshape(-1) for x in const])
    ends = np.cumsum([x.size for x in const])
    parts = [(slice(e - x.size, e), x.shape) for e, x in zip(ends, const)]

    def maps(y):
        w = L @ y.reshape(-1) + c
        return [w[sl].reshape(shape) for sl, shape in parts]
    return maps


def integrate_finite_horizon(problem: ProblemData, T: float,
                             steps: int | None = None) -> RiccatiPath:
    """Integrate the Riccati pair backward from P_T(T) = Pi_T(T) = 0.

    Classical RK4 on a uniform mesh of `steps` intervals (default 1000
    per unit time), marching the stacked pair (P, Pi) jointly in
    s = T - t: the Pi equation consumes the P stage values.  Each stage
    reads the coefficient maps of both equations off one affine map of
    (P, Pi) (`_pair_maps`).  The offsets phiHat, thetaHat are
    zero-filled; integrate_offsets fills them.
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    require_a1(problem)
    if steps is None:
        steps = max(1, int(round(DEFAULT_STEPS_PER_UNIT * T)))
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    maps = _pair_maps(problem)

    def rhs(j, c, y):
        return _riccati_rhs(maps(y))

    # node j in s = T - t is node steps - j in t
    pair = _rk4(rhs, np.zeros((2, problem.n, problem.n)), T / steps, steps)
    P_of_t = pair[::-1, 0].copy()
    Pi_of_t = pair[::-1, 1].copy()
    Theta_of_t, ThetaHat_of_t = _gains(problem, assemble_hats(problem),
                                       P_of_t, Pi_of_t)
    return RiccatiPath(
        T=float(T), mesh=np.linspace(0.0, T, steps + 1), P_of_t=P_of_t,
        Pi_of_t=Pi_of_t, Theta_of_t=Theta_of_t, ThetaHat_of_t=ThetaHat_of_t,
        phiHat_of_t=np.zeros((steps + 1, problem.n)),
        thetaHat_of_t=np.zeros((steps + 1, problem.m)),
    )


def _stabilize(rhs, generator, M):
    """March dM/ds = rhs(M) with RK4, in blocks of 10 steps of MARCH_STEP,
    until generator(M), the Kronecker matrix of the closed loop at M, is
    Hurwitz; M itself when it already is.

    The march is bounded by MARCH_STEP_BUDGET steps and by |M| <= _BLOWUP.
    """
    for _ in range(MARCH_STEP_BUDGET // 10 + 1):
        if not np.max(np.abs(M)) <= _BLOWUP:
            break
        if np.max(np.linalg.eigvals(generator(M)).real) < 0:
            return M
        M = _rk4(lambda j, c, y: rhs(y), M, MARCH_STEP, 10)[-1]
    raise NumericalFailure("ARE divergence (check A2)")


def _newton(rhs, generator, M):
    """Newton-Kleinman iteration on rhs(M) = 0, whose derivative at M is
    the transpose of generator(M) acting on the row-major vec(M).

    Stops when max|rhs(M)| is below NEWTON_TOL or, once within
    RESIDUAL_TOL, a step stops reducing it (the rounding floor); raises
    after NEWTON_MAX_ITER steps.
    """
    F = rhs(M)
    r = np.max(np.abs(F))
    for _ in range(NEWTON_MAX_ITER):
        if r < NEWTON_TOL:
            return M
        step = np.linalg.solve(generator(M).T, -F.reshape(-1))
        M_next = _sym(M + step.reshape(M.shape))
        F_next = rhs(M_next)
        r_next = np.max(np.abs(F_next))
        if r <= RESIDUAL_TOL and not r_next < r:
            return M
        M, F, r = M_next, F_next, r_next
    raise NumericalFailure(
        f"ARE Newton iteration not converged after {NEWTON_MAX_ITER} steps "
        f"(residual {r:.3e})")


def solve_are(problem: ProblemData) -> ArePair:
    """Solve the stationary algebraic Riccati pair in bounded time.

    P is solved first, then Pi with P frozen, each from 0: a short RK4
    march of the Riccati ODE (within MARCH_STEP_BUDGET steps) runs only
    until the gain is stabilizing, mean-square for P and Hurwitz for Pi;
    Newton-Kleinman steps then converge.  Both use the closed loop's
    generator: the mean-square generator for P, the Lyapunov operator of
    Ahat + Bhat ThetaHat for Pi.  Residuals, positivity of both solutions
    and the stabilizing property of the gains are asserted before
    returning.
    """
    require_a1(problem)
    hats = assemble_hats(problem)
    cert = check_mean_system_stabilizability(hats)
    if not cert.stabilizable:
        raise NumericalFailure(
            f"ARE divergence (check A2): mean system not stabilizable, "
            f"eigenvalues {cert.violating_eigenvalues}")
    zero = np.zeros((problem.n, problem.n))

    def ms_generator(M):
        Theta = _gain(coefficient_maps(problem, M))
        return mean_square_generator(problem.A + problem.B @ Theta,
                                     problem.C + problem.D @ Theta)

    rhs_P = partial(_rhs_P, problem)
    P = _newton(rhs_P, ms_generator, _stabilize(rhs_P, ms_generator, zero))

    def mean_generator(M):
        ThetaHat = _gain(hat_coefficient_maps(hats, P, M))
        return mean_square_generator(hats.Ahat + hats.Bhat @ ThetaHat, zero)

    rhs_Pi = partial(_rhs_Pi, hats, P)
    Pi = _newton(rhs_Pi, mean_generator,
                 _stabilize(rhs_Pi, mean_generator, zero))

    residual_P = float(np.max(np.abs(_rhs_P(problem, P))))
    residual_Pi = float(np.max(np.abs(_rhs_Pi(hats, P, Pi))))
    if max(residual_P, residual_Pi) > RESIDUAL_TOL:
        raise NumericalFailure(
            f"ARE residual {max(residual_P, residual_Pi):.3e} above {RESIDUAL_TOL}")
    if (np.min(np.linalg.eigvalsh(P)) <= PD_TOL
            or np.min(np.linalg.eigvalsh(Pi)) <= PD_TOL):
        raise NumericalFailure("ARE solution not positive definite")
    Theta, ThetaHat = _gains(problem, hats, P, Pi)
    mean_abscissa = float(np.max(np.linalg.eigvals(
        hats.Ahat + hats.Bhat @ ThetaHat).real))
    if mean_abscissa >= 0:
        raise NumericalFailure(
            f"stationary mean gain not stabilizing (abscissa {mean_abscissa:.3e})")
    stable, abscissa = check_ms_stability(problem, Theta)
    if not stable:
        raise NumericalFailure(
            f"stationary gain not mean-square stabilizing (abscissa {abscissa:.3e})")
    return ArePair(P=P, Pi=Pi, Theta=Theta, ThetaHat=ThetaHat,
                   residual_P=residual_P, residual_Pi=residual_Pi)


def integrate_offsets(problem: ProblemData, are: ArePair, path: RiccatiPath,
                      lambda_star: np.ndarray,
                      sigma_star: np.ndarray) -> RiccatiPath:
    """Fill the mean offsets on the mesh of an existing RiccatiPath.

    phiHat solves, backward from phiHat(T) = -lambda*,

        dphiHat/dt + [Ahat + Bhat ThetaHat_T(t)]' phiHat
                   + [Chat + Dhat ThetaHat_T(t)]' [P_T(t) - P] sigma* = 0,

    with half-step P, Pi from cubic Hermite interpolation of the nodes;
    the control offset thetaHat is an algebraic function of the node.
    """
    lam = np.asarray(lambda_star, dtype=float).reshape(problem.n)
    sig = np.asarray(sigma_star, dtype=float).reshape(problem.n)
    hats = assemble_hats(problem)
    K = len(path.mesh) - 1
    h = path.T / K
    P_t, Pi_t = path.P_of_t, path.Pi_of_t
    F_t = _rhs_P(problem, P_t)
    Fh_t = _rhs_Pi(hats, P_t, Pi_t)
    P_half = _half_steps(
        P_t, _hermite_mid(P_t[:-1], P_t[1:], F_t[:-1], F_t[1:], -h))
    Pi_half = _half_steps(
        Pi_t, _hermite_mid(Pi_t[:-1], Pi_t[1:], Fh_t[:-1], Fh_t[1:], -h))

    # dphiHat/ds = Mhat phiHat + ghat with s = T - t: reverse the stacks
    ThetaHat = _gain(hat_coefficient_maps(hats, P_half, Pi_half))
    Mhat = (hats.Ahat + hats.Bhat @ ThetaHat).mT[::-1]
    ghat = np.einsum('kji,kj->ki', hats.Chat + hats.Dhat @ ThetaHat,
                     (P_half - are.P) @ sig)[::-1]
    phiHat = _rk4_linear(Mhat, ghat, -lam, h, K)[::-1].copy()

    RhatOf = hat_coefficient_maps(hats, P_t, Pi_t)[2]
    dP = (P_t - are.P) @ sig
    thetaHat = -np.linalg.solve(
        RhatOf, (phiHat @ hats.Bhat + dP @ hats.Dhat)[..., None])[..., 0]
    return replace(path, phiHat_of_t=phiHat, thetaHat_of_t=thetaHat)


def solve_feedback(problem: ProblemData, T: float,
                   steps: int | None = None) -> Feedback:
    """Solve everything the closed-loop feedback needs up to horizon T:
    solve_are, static_opt.solve_static at its P, integrate_finite_horizon
    over `steps` intervals and integrate_offsets on that path."""
    are = solve_are(problem)
    static = static_opt.solve_static(problem, are.P)
    path = integrate_finite_horizon(problem, T, steps=steps)
    march = integrate_offsets(problem, are, path, static.lambda_star,
                              static.sigma_star)
    return Feedback(problem=problem, are=are, static=static, march=march)


def convergence_profile(path: RiccatiPath, are: ArePair) -> np.ndarray:
    """Nodewise max-abs distance to the stationary pair.

    Returns an array of rows (t, |P_T(t) - P|_inf, |Pi_T(t) - Pi|_inf).
    """
    if path.P_of_t.shape[1:] != are.P.shape:
        raise ValueError("dimension mismatch between path and stationary pair")
    err_P = np.max(np.abs(path.P_of_t - are.P), axis=(1, 2))
    err_Pi = np.max(np.abs(path.Pi_of_t - are.Pi), axis=(1, 2))
    return np.column_stack([path.mesh, err_P, err_Pi])


def horizon_monotonicity_check(problem: ProblemData, horizons,
                               steps_per_unit: int = DEFAULT_STEPS_PER_UNIT):
    """Compute Pi_T(0) per horizon and test PSD-order monotonicity.

    One march to the longest horizon at steps_per_unit steps per unit
    time serves every horizon, each a node of it, as its tail.  Returns
    (list of Pi_T(0), verdict); the verdict is true iff each successive
    difference has minimum eigenvalue >= -1e-9.
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


def write_convergence_csv(profile: np.ndarray, fh) -> None:
    fh.write("t,err_P,err_Pi\n")
    for t, e1, e2 in profile:
        fh.write(f"{t!r},{e1!r},{e2!r}\n")
