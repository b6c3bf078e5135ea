"""Backward Riccati pair on a finite horizon, stationary limits, offsets.

The state-weight matrix P_T(t) solves the matrix Riccati ODE

    dP/dt + Q(P) - S(P)' R(P)^{-1} S(P) = 0,    P_T(T) = 0,

and the mean-weight matrix Pi_T(t) solves the analogous equation in the
hat coefficients, consuming P but not conversely.  Dropping the time
derivative gives the algebraic Riccati pair whose solutions (P, Pi) are
the infinite-horizon limits.  `integrate_finite_horizon` marches the
bare pair (a RiccatiPath); `integrate_offsets` adds the gains and the
mean offsets (phiHat, thetaHat) of the closed-loop feedback (a
FeedbackPath).  The finite-horizon data depend on T - t alone, so
`solve_feedback` solves them once per problem, up to the longest
horizon, and each shorter horizon reads the tail.  It marches the pair
on a mesh of its own, k times coarser than the feedback's, and reads it
back on the feedback's mesh by cubic Hermite interpolation with the
Riccati right-hand side as slope (`_march`, `integrate_offsets`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial

import numpy as np
from numpy.linalg import _umath_linalg

from . import static_opt
from .errors import NumericalFailure
from .model import (
    PD_TOL,
    ProblemData,
    check_mean_system_stabilizability,
    exact_shape,
    _maps,
    coefficient_maps,
    hat_coefficient_maps,
    mean_square_generator,
    require_a1,
)

__all__ = [
    "ArePair",
    "RiccatiPath",
    "FeedbackPath",
    "Feedback",
    "integrate_finite_horizon",
    "solve_are",
    "integrate_offsets",
    "solve_feedback",
    "convergence_profile",
]

RESIDUAL_TOL = 1e-10
INVERSION_TOL = 1e-12
NEWTON_TOL = 1e-13
NEWTON_MAX_ITER = 50
SHIFT_MAX_STEPS = 100
SHIFT_FLOOR = 1e-2
RK4_STEP_MARGIN = 0.02
# the march step H = k dt of solve_feedback: k dt rho <= MARCH_STEP_RHO
# for the largest |eigenvalue| rho of the certificate generators, and a
# step-doubling error estimate at most MARCH_TOL
MARCH_STEP_RHO = 0.08
MARCH_TOL = 1e-7


@dataclass(frozen=True)
class ArePair:
    """Stationary Riccati solutions with gains, residuals, and the n^2
    complex eigenvalues of each generator that certifies them
    (`solve_are`): the fluctuation and mean rates mu_f and mu_m are their
    abscissas, negated."""

    P: np.ndarray
    Pi: np.ndarray
    Theta: np.ndarray
    ThetaHat: np.ndarray
    residual_P: float
    residual_Pi: float
    spectrum_P: np.ndarray
    spectrum_Pi: np.ndarray

    @property
    def mu_f(self) -> float:
        """-max Re spectrum_P."""
        return -float(np.max(self.spectrum_P.real))

    @property
    def mu_m(self) -> float:
        """-max Re spectrum_Pi = -2 alpha(Ahat + Bhat ThetaHat)."""
        return -float(np.max(self.spectrum_Pi.real))


@dataclass(frozen=True)
class RiccatiPath:
    """The bare finite-horizon Riccati march on [0, T]: P_T and Pi_T at
    every mesh node (ascending t), each stored as (K+1, n, n)."""

    T: float
    mesh: np.ndarray
    P_of_t: np.ndarray
    Pi_of_t: np.ndarray

    def tail(self, T: float, dt: float | None = None) -> RiccatiPath:
        """The path of horizon T, of this type: the last K + 1 nodes
        (2K + 1 half steps), K = T / dt, on the mesh of [0, T].  dt is
        the path's step h (the default) or a step its caller has matched
        to h to rounding, as `simulate.closed_loop` does: a horizon that
        is a whole number of dt to rounding may be none of h.  The data
        depend on T - t alone, so this equals a fresh march to T with
        step h, and a fresh feedback path read at step h off a march with
        the same step H = k h (`solve_feedback`).  Raises ValueError
        unless T is a whole number of steps dt (`_whole_steps`) up to
        self.T.
        """
        h = self.T / (len(self.mesh) - 1)
        K = _whole_steps(T, h if dt is None else dt)
        if K is None or not K < len(self.mesh):
            raise ValueError(f"horizon T={T} is not a node of the path "
                             f"(step {h} up to T={self.T})")
        arrays = {f.name: getattr(self, f.name)[
                      -(K if f.name.endswith("_of_t") else 2 * K) - 1:]
                  for f in fields(self) if f.name not in ("T", "mesh")}
        return type(self)(T=float(T), mesh=np.linspace(0.0, T, K + 1),
                          **arrays)


@dataclass(frozen=True)
class FeedbackPath(RiccatiPath):
    """A Riccati march with its feedback (`integrate_offsets`): the gain
    Theta_T (K+1, m, n) and the mean offset phiHat_T (K+1, n) at the
    nodes, and the mean's gain ThetaHat_T (2K+1, m, n) and control offset
    thetaHat_T (2K+1, m) on the half steps, entry 2j node j and 2j + 1
    the midpoint of interval j: their node values are the even entries.
    """

    Theta_of_t: np.ndarray
    phiHat_of_t: np.ndarray
    ThetaHat_half: np.ndarray
    thetaHat_half: np.ndarray


@dataclass(frozen=True)
class Feedback:
    """The optimal closed loop of a problem at every horizon up to
    march.T: the stationary pair, the static solution and the feedback
    path, marched once to the longest horizon.  The path of a shorter
    horizon is the march's tail.  march_step is the step H of the
    Riccati march, a whole multiple of march's step, and
    march_error_estimate its step-doubling estimate (None where H is
    march's step)."""

    problem: ProblemData
    are: ArePair
    static: static_opt.StaticSolution
    march: FeedbackPath
    march_step: float
    march_error_estimate: float | None

    def path(self, T: float, dt: float | None = None) -> FeedbackPath:
        """The path of horizon T in steps dt, the march's tail
        (RiccatiPath.tail)."""
        return self.march.tail(T, dt)


def _whole_steps(T: float, h: float) -> int | None:
    """The number K >= 1 of steps h that make up T, to a relative 1e-12
    of T / h; None when T / h is no such whole number."""
    ratio = T / h
    K = round(ratio) if np.isfinite(ratio) else 0
    return K if K >= 1 and abs(ratio - K) <= 1e-12 * max(1.0, ratio) else None


def _sym(M):
    return 0.5 * (M + M.mT)


def _riccati_terms(maps):
    """(Q, S' R^{-1} S) from a (Q, S, R) triple: the two terms of the
    Riccati right-hand side.  The solve is LAPACK's gufunc, which
    np.linalg.solve wraps: a singular R gives inf or nan (and a
    floating-point invalid flag) rather than LinAlgError."""
    Qm, Sm, Rm = maps
    return Qm, Sm.mT @ _umath_linalg.solve(Rm, Sm)


def _riccati_rhs(maps):
    """Q - S' R^{-1} S from a (Q, S, R) triple; the Riccati ODE right-hand
    side in s = T - t (forward-in-s form of the backward ODE)."""
    Qm, quad = _riccati_terms(maps)
    return _sym(Qm - quad)


def _gain(maps):
    """Theta = -R^{-1} S from a (Q, S, R) triple, guarding the inversion."""
    _, Sm, Rm = maps
    if np.min(np.linalg.eigvalsh(_sym(Rm))) < INVERSION_TOL:
        raise NumericalFailure("Riccati inversion breakdown")
    return -np.linalg.solve(Rm, Sm)


def _hermite(y, f, h, k):
    """Cubic Hermite dense output of node values y with slopes f (both
    K + 1 long) on a mesh of step h, on the mesh of step h / (2k): entry
    2kj + i is at the fraction i / (2k) of interval j, so entry 2kj is
    node j.  At k = 1 the stack holds the nodes and the midpoints."""
    theta = np.arange(2 * k) / (2 * k)
    weights = np.stack([(1 + 2 * theta) * (1 - theta) ** 2,
                        h * theta * (1 - theta) ** 2,
                        theta ** 2 * (3 - 2 * theta),
                        -h * theta ** 2 * (1 - theta)])
    ends = np.stack([y[:-1], f[:-1], y[1:], f[1:]])
    out = np.empty((2 * k * (len(y) - 1) + 1,) + y.shape[1:])
    out[:-1] = np.tensordot(weights, ends, axes=(0, 0)).swapaxes(0, 1) \
        .reshape(out[:-1].shape)
    out[::2 * k] = y
    return out


def _rk4_step(f, j, y, h):
    """One classical RK4 step of dy/ds = f(j, c, y) across interval j.

    The stage time is s = (j + c) h: c in {0, 0.5, 1} places it inside
    interval j.  j may be an index array that batches intervals on y's
    leading axis.
    """
    k1 = f(j, 0.0, y)
    k2 = f(j, 0.5, y + 0.5 * h * k1)
    k3 = f(j, 0.5, y + 0.5 * h * k2)
    k4 = f(j, 1.0, y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rk4(f, y0, h, steps):
    """Classical RK4 (`_rk4_step`) from y(0) = y0.  Returns the
    (steps + 1, ...) stack of node values."""
    ys = np.empty((steps + 1,) + np.shape(y0))
    y = ys[0] = y0
    for j in range(steps):
        y = ys[j + 1] = _rk4_step(f, j, y, h)
    return ys


def _rk4_linear(M, g, y0, h, steps):
    """Classical RK4 for dy/ds = M(s) y + g(s) from y(0) = y0, M and g
    read from half-step stacks (entry 2j + 2c at s = (j + c) h).

    A step is affine, y -> Phi_j y + psi_j: [[Phi_j, psi_j], [0, 1]] is
    the `_rk4_step` of the homogeneous system with matrix [[M, g], [0, 0]]
    from the identity, all steps in one batch.  The march is then one
    matrix-vector product per step.  Returns the (steps + 1, n) stack of
    node values.
    """
    n = M.shape[-1]
    Ma = np.zeros((len(M), n + 1, n + 1))
    Ma[:, :n, :n], Ma[:, :n, n] = M, g
    maps = _rk4_step(lambda j, c, Y: Ma[2 * j + int(2 * c)] @ Y,
                     np.arange(steps), np.eye(n + 1), h)
    Phi, psi = maps[:, :n, :n], maps[:, :n, n]
    ys = np.empty((steps + 1,) + np.shape(y0))
    y = ys[0] = y0
    for j in range(steps):
        y = ys[j + 1] = Phi[j] @ y + psi[j]
    return ys


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
    hats = problem.hats
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
                             steps: int) -> RiccatiPath:
    """Integrate the Riccati pair backward from P_T(T) = Pi_T(T) = 0.

    Classical RK4 on a uniform mesh of `steps` intervals, marching the
    stacked pair (P, Pi) jointly in s = T - t: the Pi equation consumes
    the P stage values.  Each stage reads the coefficient maps of both
    equations off one affine map of (P, Pi) (`_pair_maps`).  Raises
    NumericalFailure naming h and T if the march is not finite, as when
    a stage R(P) is singular or h is far outside RK4's stability region
    (which `solve_feedback` refuses before a march).
    """
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    require_a1(problem)
    steps = int(steps)
    if steps < 1:
        raise ValueError(f"steps must be positive, got {steps}")
    h = T / steps
    maps = _pair_maps(problem)

    def rhs(j, c, y):
        return _riccati_rhs(maps(y))

    # node j in s = T - t is node steps - j in t
    with np.errstate(all="ignore"):
        pair = _rk4(rhs, np.zeros((2, problem.n, problem.n)), h, steps)
    if not np.all(np.isfinite(pair)):
        raise NumericalFailure(f"Riccati inversion breakdown: the march to "
                               f"T={T} at step h={h:.6g} is not finite")
    return RiccatiPath(T=float(T), mesh=np.linspace(0.0, T, steps + 1),
                       P_of_t=pair[::-1, 0].copy(),
                       Pi_of_t=pair[::-1, 1].copy())


def _closed_loops(problem):
    """The loops (A, B, C, D) of P, (Ahat, Bhat, 0, 0) of Pi's
    certificate, and (Ahat, Bhat, Chat, Dhat) of the mean."""
    h = problem.hats
    return ((problem.A, problem.B, problem.C, problem.D),
            (h.Ahat, h.Bhat, np.zeros_like(h.Ahat), np.zeros_like(h.Bhat)),
            (h.Ahat, h.Bhat, h.Chat, h.Dhat))


def _closed(loop, Theta):
    """(A + B Theta, C + D Theta): the loop (A, B, C, D) closed at Theta,
    or at each gain of a stack of them."""
    A, B, C, D = loop
    return A + B @ Theta, C + D @ Theta


def _continuation(maps, loop, M):
    """Newton-Kleinman on the Riccati equation of `maps` from M, continued
    in a shift of A, and certified: returns (M, Theta, residual, spectrum).

    The generator of M is that of `loop` closed at M's gain Theta =
    _gain(maps(M)), formed once per iterate (`_newton` hands it on).  A
    shift of A by -alpha I subtracts 2 alpha M from Q(M) and 2 alpha I
    from the generator.  While the generator has
    abscissa a >= -PD_TOL, the shifted equation is solved from M, alpha
    first max(a, SHIFT_FLOOR), then the midpoint of a/2 and alpha (M is
    stabilizing for alpha > a/2).  Raises ARE divergence (check A2) when a
    shifted solve fails, or after SHIFT_MAX_STEPS.  The unshifted solve's
    residual is its exit test (`_newton`); its generator must have
    abscissa below -PD_TOL and M its minimum eigenvalue above PD_TOL.
    spectrum is that generator's eigenvalues, complex even where all are
    real.
    """
    def generator(M):
        Theta = _gain(maps(M))
        return mean_square_generator(*_closed(loop, Theta)), Theta

    gen = generator(M)
    for k in range(SHIFT_MAX_STEPS):
        a = np.max(np.linalg.eigvals(gen[0]).real)
        if a < -PD_TOL:
            break
        alpha = 0.5 * (0.5 * a + alpha) if k else max(a, SHIFT_FLOOR)
        try:
            M, _, gen = _newton(maps, generator, M, gen, alpha)
        except NumericalFailure as exc:
            raise NumericalFailure(f"ARE divergence (check A2): {exc}") from exc
    else:
        raise NumericalFailure("ARE divergence (check A2)")
    M, residual, (L, Theta) = _newton(maps, generator, M, gen)
    spectrum = np.linalg.eigvals(L).astype(complex)
    a = np.max(spectrum.real)
    if a >= -PD_TOL:
        raise NumericalFailure(f"ARE gain not stabilizing (abscissa {a:.3e})")
    if np.min(np.linalg.eigvalsh(M)) <= PD_TOL:
        raise NumericalFailure("ARE solution not positive definite")
    return M, Theta, residual, spectrum


def _newton(maps, generator, M, gen, alpha=0.0):
    """Newton-Kleinman iteration on the Riccati equation of `maps` (M to
    its (Q, S, R) triple) with A shifted by -alpha I, whose derivative at
    M is the transpose of L - 2 alpha I acting on the row-major vec(M),
    (L, Theta) = generator(M): `gen` at the starting M, formed once per
    accepted iterate.  Returns (M, r, gen), r the max-abs residual at M.

    Stops when r is below NEWTON_TOL or, once within RESIDUAL_TOL, a step
    stops reducing it (the rounding floor), both in units of its scale at
    M, max(1, max|Q(M)|, max|S(M)' R(M)^{-1} S(M)|): the residual's
    rounding floor grows like eps times its terms.  So r is within
    RESIDUAL_TOL on every return.  Raises on a non-finite residual or
    scale, a singular Newton system, or after NEWTON_MAX_ITER steps.
    """
    def residual(X):
        Qm, quad = _riccati_terms(maps(X))
        Qm = Qm - 2 * alpha * X
        F = _sym(Qm - quad)
        return F, float(np.max(np.abs(F))), max(
            1.0, float(np.max(np.abs(Qm))), float(np.max(np.abs(quad))))

    F, r, scale = residual(M)
    for _ in range(NEWTON_MAX_ITER):
        if not np.isfinite(r + scale):
            raise NumericalFailure(f"ARE Newton residual not finite ({r:.3e})")
        if r < NEWTON_TOL * scale:
            return M, r, gen
        J = gen[0] - 2 * alpha * np.eye(M.size)
        try:
            step = np.linalg.solve(J.T, -F.reshape(-1))
        except np.linalg.LinAlgError as exc:
            raise NumericalFailure("singular Newton system") from exc
        M_next = _sym(M + step.reshape(M.shape))
        F_next, r_next, scale_next = residual(M_next)
        if r <= RESIDUAL_TOL * scale and not r_next < r:
            return M, r, gen
        M, F, r, scale = M_next, F_next, r_next, scale_next
        gen = generator(M)
    raise NumericalFailure(
        f"ARE Newton iteration not converged after {NEWTON_MAX_ITER} steps "
        f"(residual {r:.3e})")


def solve_are(problem: ProblemData) -> ArePair:
    """Solve the stationary algebraic Riccati pair in bounded time.

    P is solved first, then Pi with P frozen, each from 0 by at most
    SHIFT_MAX_STEPS Newton-Kleinman solves (`_continuation`), shifting A
    (or Ahat) where the zero gain is not stabilizing; no Riccati ODE is
    marched.  Each continuation certifies what it returns with the
    generator its Newton steps used: the mean-square generator of
    (A + B Theta, C + D Theta) for P, and for Pi that of
    (Ahat + Bhat ThetaHat, 0), the Lyapunov operator whose abscissa is
    twice that of Ahat + Bhat ThetaHat.  NEWTON_TOL and RESIDUAL_TOL are
    relative to the size of the residual's two terms at the solution they
    judge (`_newton`).  The pair carries both generators' spectra.
    """
    require_a1(problem)
    hats = problem.hats
    violating = check_mean_system_stabilizability(hats)
    if violating:
        raise NumericalFailure(
            f"ARE divergence (check A2): mean system not stabilizable, "
            f"eigenvalues {violating}")
    zero = np.zeros((problem.n, problem.n))
    loop_P, loop_Pi, _ = _closed_loops(problem)
    P, Theta, residual_P, spectrum_P = _continuation(
        partial(coefficient_maps, problem), loop_P, zero)
    Pi, ThetaHat, residual_Pi, spectrum_Pi = _continuation(
        partial(hat_coefficient_maps, hats, P), loop_Pi, zero)
    return ArePair(P=P, Pi=Pi, Theta=Theta, ThetaHat=ThetaHat,
                   residual_P=residual_P, residual_Pi=residual_Pi,
                   spectrum_P=spectrum_P, spectrum_Pi=spectrum_Pi)


def integrate_offsets(problem: ProblemData, are: ArePair, path: RiccatiPath,
                      lambda_star: np.ndarray, sigma_star: np.ndarray,
                      k: int = 1) -> FeedbackPath:
    """The feedback path of a Riccati march, on its mesh refined k times:
    its gains and mean offsets.

    P and Pi are read at the nodes and half steps of the refined mesh by
    cubic Hermite interpolation of the march's nodes, with the Riccati
    right-hand side as slope (`_hermite`).  phiHat solves, backward from
    phiHat(T) = -lambda*,

        dphiHat/dt + [Ahat + Bhat ThetaHat_T(t)]' phiHat
                   + [Chat + Dhat ThetaHat_T(t)]' [P_T(t) - P] sigma* = 0,

    on the refined mesh, with half-step phiHat from cubic Hermite
    interpolation of its nodes.  ThetaHat and the control offset thetaHat
    are algebraic in them, evaluated on every half step; Theta, algebraic
    in P, at the nodes.
    """
    lam = exact_shape("lambda_star", lambda_star, (problem.n,))
    sig = exact_shape("sigma_star", sigma_star, (problem.n,))
    hats = problem.hats
    K = k * (len(path.mesh) - 1)
    h = path.T / K
    P_c, Pi_c = path.P_of_t, path.Pi_of_t
    node_maps = coefficient_maps(problem, P_c)
    P_half = _hermite(P_c, _riccati_rhs(node_maps), -k * h, k)
    Pi_half = _hermite(
        Pi_c, _riccati_rhs(hat_coefficient_maps(hats, P_c, Pi_c)), -k * h, k)
    P_t, Pi_t = P_half[::2], Pi_half[::2]

    # dphiHat/ds = Mhat phiHat + ghat with s = T - t: reverse the stacks
    maps = hat_coefficient_maps(hats, P_half, Pi_half)
    ThetaHat = _gain(maps)
    AclHat, CclHat = _closed(_closed_loops(problem)[2], ThetaHat)
    Mhat = AclHat.mT
    dP = (P_half - are.P) @ sig
    ghat = np.einsum('kji,kj->ki', CclHat, dP)
    phiHat = _rk4_linear(Mhat[::-1], ghat[::-1], -lam, h, K)[::-1].copy()
    phi_half = _hermite(
        phiHat, (Mhat[::2] @ phiHat[..., None])[..., 0] + ghat[::2], -h, 1)

    thetaHat = -np.linalg.solve(
        maps[2], (phi_half @ hats.Bhat + dP @ hats.Dhat)[..., None])[..., 0]
    # at k = 1 the refined nodes are the march's, and so are their maps
    Theta = _gain(node_maps if k == 1 else coefficient_maps(problem, P_t))
    return FeedbackPath(
        T=path.T, mesh=np.linspace(0.0, path.T, K + 1), P_of_t=P_t,
        Pi_of_t=Pi_t, Theta_of_t=Theta,
        phiHat_of_t=phiHat, ThetaHat_half=ThetaHat, thetaHat_half=thetaHat)


def _march_factor(steps: int, step_rho: float) -> int:
    """The coarsening k of a march of `steps` steps h, h rho = step_rho:
    the largest divisor of steps with k h rho <= MARCH_STEP_RHO that
    leaves at least two coarse steps, or 1."""
    top = min(steps // 2, int(MARCH_STEP_RHO / step_rho))
    return max((d for d in range(1, top + 1) if steps % d == 0), default=1)


def _march(problem: ProblemData, T: float, steps: int, k: int):
    """The Riccati march of `solve_feedback` to T: returns (path, k,
    estimate).  For k > 1 it marches at H = k T / steps and at 2H from
    the same s = T - t = 0, and keeps H when the step-doubling estimate
    max|y_H - y_2H| / 15 of RK4's error at H, over P and Pi at the nodes
    the two share, is at most MARCH_TOL.  Otherwise it marches at
    T / steps (k = 1, estimate None)."""
    if k > 1:
        coarse = steps // k
        path = integrate_finite_horizon(problem, T, coarse)
        half = coarse // 2
        twin = integrate_finite_horizon(problem, 2 * half * T / coarse, half)
        # in s, node j of the twin is node 2j of the march
        estimate = max(
            np.max(np.abs(getattr(path, name)[::-1][:2 * half + 1:2]
                          - getattr(twin, name)[::-1]))
            for name in ("P_of_t", "Pi_of_t")) / 15.0
        if estimate <= MARCH_TOL:
            return path, k, float(estimate)
    return integrate_finite_horizon(problem, T, steps), 1, None


def solve_feedback(problem: ProblemData, T: float, steps: int) -> Feedback:
    """Solve everything the closed-loop feedback needs up to horizon T,
    on the mesh of `steps` intervals h: solve_are, static_opt.solve_static
    at its P, the Riccati march (`_march`) at H = k h, k from
    `_march_factor` at the largest modulus rho of the certified spectra
    (ArePair.spectrum_P, spectrum_Pi), and integrate_offsets on that
    march, read back at step h.  Raises ValueError before the march when
    h fails `_check_rk4_step`."""
    are = solve_are(problem)
    k = 1
    if T > 0 and steps >= 1:    # integrate_finite_horizon refuses the rest
        rho = np.max(np.abs(_check_rk4_step(are, T / steps)))
        k = _march_factor(int(steps), T / steps * rho)
    static = static_opt.solve_static(problem, are.P)
    path, k, estimate = _march(problem, T, steps, k)
    march = integrate_offsets(problem, are, path, static.lambda_star,
                              static.sigma_star, k)
    return Feedback(problem=problem, are=are, static=static, march=march,
                    march_step=path.T / (len(path.mesh) - 1),
                    march_error_estimate=estimate)


def _largest_stable_step(radius, h):
    """The largest step below h with radius(step) < 1, by bisection: the
    steps where a scheme's one-step map contracts form an interval."""
    lo, hi = 0.0, h
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if radius(mid) < 1.0 else (lo, mid)
    return lo


def _check_rk4_step(are: ArePair, h: float) -> np.ndarray:
    """Raise ValueError, naming h and the largest stable step, unless
    |R((1 + RK4_STEP_MARGIN) h lam)| < 1 for each eigenvalue lam of the
    certificate generators (are.spectrum_P and are.spectrum_Pi),
    R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 RK4's stability polynomial.
    Near saturation the march is linear in them: a larger step blows up
    or settles on a wrong fixed point.  Returns the eigenvalues, whose
    largest modulus also sizes the march step (`_march_factor`).
    """
    lams = np.concatenate([are.spectrum_P, are.spectrum_Pi])
    R = np.array([1 / 24, 1 / 6, 1 / 2, 1.0, 1.0])    # descending powers

    def radius(t):
        return np.max(np.abs(np.polyval(R, (1 + RK4_STEP_MARGIN) * t * lams)))

    if radius(h) < 1.0:
        return lams
    raise ValueError(
        f"Riccati march step h={h:.6g} is outside RK4's stability region "
        f"(margin {RK4_STEP_MARGIN}); the largest stable step is "
        f"{_largest_stable_step(radius, h):.6g}")


def _check_euler_step(problem: ProblemData, are: ArePair,
                      dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Raise ValueError, naming dt and the largest stable step, unless
    rho((I + dt A)⊗(I + dt A) + dt C⊗C) < 1 at the P loop closed at Theta,
    (A, C) = (A + B Theta, C + D Theta), which it returns: the Euler
    chain's one-step map, I + dt L + dt^2 A⊗A for the generator L whose
    eigenvalues are are.spectrum_P; the dt^2 term keeps its radius from
    being a function of them alone.  The mean loop Ahat + Bhat ThetaHat is
    exempt: the chain sees it only in forcing terms built from the mean,
    which `propagate_mean` marches by RK4."""
    A, C = _closed(_closed_loops(problem)[0], are.Theta)
    eye = np.eye(problem.n)

    def radius(t):
        return np.max(np.abs(np.linalg.eigvals(
            np.kron(eye + t * A, eye + t * A) + t * np.kron(C, C))))

    if (rho := radius(dt)) >= 1.0:
        raise ValueError(
            f"Euler step dt={dt:.6g} is outside the mean-square stability "
            f"region of the stationary closed loop (spectral radius "
            f"{rho:.6g}); the largest stable step is "
            f"{_largest_stable_step(radius, dt):.6g}")
    return A, C


def convergence_profile(path: RiccatiPath, are: ArePair) -> np.ndarray:
    """Nodewise max-abs distance to the stationary pair.

    Returns an array of rows (t, |P_T(t) - P|_inf, |Pi_T(t) - Pi|_inf).
    """
    if path.P_of_t.shape[1:] != are.P.shape:
        raise ValueError("dimension mismatch between path and stationary pair")
    err_P = np.max(np.abs(path.P_of_t - are.P), axis=(1, 2))
    err_Pi = np.max(np.abs(path.Pi_of_t - are.Pi), axis=(1, 2))
    return np.column_stack([path.mesh, err_P, err_Pi])
