"""Monte Carlo simulation of the finite-horizon closed loop and the
stationary turnpike processes, with common-random-number coupling.

The finite-horizon optimal pair is simulated through its closed-loop
representation: with Xt = X - x* and mean m(t) = E[Xt] from a
deterministic ODE,

    u = Theta_T (Xt - m) + ThetaHat_T m + thetaHat_T + u*,

and the state follows the corresponding Euler-Maruyama recursion.  The
turnpike comparison process solves dX* = (A + B Theta) X* dt +
[(C + D Theta) X* + sigma*] dW from zero.  Sharing Brownian increments
between the two ensembles makes the pathwise gaps directly estimable.

Brownian increments come from a counter-based generator: the Philox key
is (seed, stream) and the counter encodes (path-chunk, step), so every
increment has a fixed address independent of scheduling or worker
count.  Paths are processed in fixed-size chunks and all reductions are
combined in chunk order, which keeps results bit-identical for any
number of workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .model import ProblemData, assemble_hats
from .riccati import ArePair, RiccatiPath, _half_steps, _linear_rhs, _rk4
from .static_opt import StaticSolution

__all__ = [
    "SimulationConfig",
    "EnsembleStats",
    "RawPaths",
    "CoupledResult",
    "brownian_increments",
    "propagate_mean",
    "simulate_optimal_ensemble",
    "simulate_turnpike_ensemble",
    "run_coupled",
    "build_adjoint_paths",
    "estimate_cost",
    "write_ensemble_csv",
    "write_raw_paths",
    "read_raw_paths",
]

PATH_CHUNK = 8192
SNAPSHOT_TARGET = 200
FINITE_CHECK_EVERY = 50


@dataclass(frozen=True)
class SimulationConfig:
    T: float
    dt: float = 1e-3
    n_paths: int = 10_000
    seed: int = 42
    coupled: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.T <= 0 or self.dt <= 0:
            raise ValueError(f"T and dt must be positive, got T={self.T}, dt={self.dt}")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))


@dataclass(frozen=True)
class EnsembleStats:
    mesh: np.ndarray
    mean_X: np.ndarray
    mean_u: np.ndarray
    second_moment_X: np.ndarray
    second_moment_u: np.ndarray
    cost_estimate: float
    cost_stderr: float
    gap_X: np.ndarray | None = None
    gap_u: np.ndarray | None = None
    gap_Y: np.ndarray | None = None
    gap_Z: np.ndarray | None = None


@dataclass(frozen=True)
class RawPaths:
    """Per-path states/controls thinned to a snapshot sub-mesh."""

    kind: str
    mesh: np.ndarray
    indices: np.ndarray
    X: np.ndarray
    u: np.ndarray
    x0: np.ndarray | None
    config: SimulationConfig


@dataclass(frozen=True)
class CoupledResult:
    optimal: EnsembleStats
    turnpike: EnsembleStats
    raw_optimal: RawPaths
    raw_turnpike: RawPaths
    residual_series: np.ndarray
    residual_avg: float


def brownian_increments(seed: int, stream: int, chunk: int, step: int,
                        count: int, dt: float) -> np.ndarray:
    """Normal increments of variance dt at a fixed (seed, stream, chunk,
    step) address, independent of scheduling."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, stream], dtype=np.uint64)
    counter = np.array([0, 0, chunk, step], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return gen.standard_normal(count) * math.sqrt(dt)


def propagate_mean(problem: ProblemData, path: RiccatiPath,
                   x0: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """Mean of the shifted closed-loop state, m(t) = E[X_T(t) - x*].

    RK4 forward on the path mesh for
    dm/dt = [Ahat + Bhat ThetaHat_T(t)] m + Bhat thetaHat_T(t),
    with half-step coefficients averaged from the adjacent nodes.
    """
    hats = assemble_hats(problem)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    x_star = np.asarray(x_star, dtype=float).reshape(problem.n)
    K = len(path.mesh) - 1
    Acl = hats.Ahat + np.einsum("im,kmn->kin", hats.Bhat, path.ThetaHat_of_t)
    force = path.thetaHat_of_t @ hats.Bhat.T
    f = _linear_rhs(_half_steps(Acl, 0.5 * (Acl[:-1] + Acl[1:])),
                    _half_steps(force, 0.5 * (force[:-1] + force[1:])))
    return _rk4(f, x0 - x_star, path.T / K, K)


class _ClosedLoop:
    """Per-node coefficient stacks for the finite-horizon closed loop."""

    def __init__(self, problem, path, static, m_t):
        hats = assemble_hats(problem)
        A, B, C, D = problem.A, problem.B, problem.C, problem.D
        Th = path.Theta_of_t
        ThH = path.ThetaHat_of_t
        off = path.thetaHat_of_t                             # (K+1, m)
        self.Acl = A + np.einsum("im,kmn->kin", B, Th)       # (K+1, n, n)
        self.Ccl = C + np.einsum("im,kmn->kin", D, Th)
        AclHat = hats.Ahat + np.einsum("im,kmn->kin", hats.Bhat, ThH)
        CclHat = hats.Chat + np.einsum("im,kmn->kin", hats.Dhat, ThH)
        sig = static.sigma_star
        Boff = off @ hats.Bhat.T
        Doff = off @ hats.Dhat.T
        self.dconst = np.einsum("kij,kj->ki", AclHat - self.Acl, m_t) + Boff
        self.cconst = (np.einsum("kij,kj->ki", CclHat - self.Ccl, m_t)
                       + Doff + sig)
        self.Theta = Th
        self.uconst = np.einsum("kij,kj->ki", ThH - Th, m_t) + off
        self.m_t = m_t
        # analytic means of control and state in shifted variables
        self.Eu_t = np.einsum("kij,kj->ki", ThH, m_t) + off


def _turnpike_coeffs(problem, are):
    Atp = problem.A + problem.B @ are.Theta
    Ctp = problem.C + problem.D @ are.Theta
    return Atp, Ctp


def _adjoints(path, are, static, cl, Ctp, k, Xt, Xs):
    """Feedback-form adjoints at node k from shifted states Xt (optimal)
    and Xs (turnpike), each (n, L): Y, Z of the optimal pair and
    Y_tp = P X* + lambda*, Z_tp = P[(C + D Theta) X* + sigma*]."""
    lam = static.lambda_star
    mk = cl.m_t[k]
    Y = path.P_of_t[k] @ (Xt - mk[:, None]) + (path.Pi_of_t[k] @ mk
                                               + path.phiHat_of_t[k] + lam)[:, None]
    Z = path.P_of_t[k] @ (cl.Ccl[k] @ Xt + cl.cconst[k][:, None])
    Y_tp = are.P @ Xs + lam[:, None]
    Z_tp = are.P @ (Ctp @ Xs) + (are.P @ static.sigma_star)[:, None]
    return Y, Z, Y_tp, Z_tp


def _pathwise_cost(problem, X, u):
    """Per-path running-cost integrand (pathwise blocks only), (L,)."""
    Q, S, R, q, r = problem.Q, problem.S, problem.R, problem.q, problem.r
    return (np.einsum("ip,ij,jp->p", X, Q, X)
            + 2.0 * np.einsum("mp,mj,jp->p", u, S, X)
            + np.einsum("mp,mj,jp->p", u, R, u)
            + 2.0 * (q @ X) + 2.0 * (r @ u))


def _mean_cost_series(problem, mean_X, mean_u):
    """Nodewise cost contribution of the mean-interaction blocks."""
    return (np.einsum("ki,ij,kj->k", mean_X, problem.Qbar, mean_X)
            + 2.0 * np.einsum("km,mj,kj->k", mean_u, problem.Sbar, mean_X)
            + np.einsum("km,mj,kj->k", mean_u, problem.Rbar, mean_u))


class _ChunkAcc:
    """Accumulators for one chunk of paths."""

    def __init__(self, K, n, m, L, snap_count, want_tp, want_gaps):
        self.sum_X = np.zeros((K + 1, n))
        self.sum_u = np.zeros((K + 1, m))
        self.sum_sqX = np.zeros(K + 1)
        self.sum_squ = np.zeros(K + 1)
        self.cost = np.zeros(L)
        self.snap_X = np.empty((snap_count, n, L))
        self.snap_u = np.empty((snap_count, m, L))
        if want_tp:
            self.tp_sum_X = np.zeros((K + 1, n))
            self.tp_sum_u = np.zeros((K + 1, m))
            self.tp_sum_sqX = np.zeros(K + 1)
            self.tp_sum_squ = np.zeros(K + 1)
            self.tp_cost = np.zeros(L)
            self.tp_snap_X = np.empty((snap_count, n, L))
            self.tp_snap_u = np.empty((snap_count, m, L))
        if want_gaps:
            self.gap_X = np.zeros(K + 1)
            self.gap_u = np.zeros(K + 1)
            self.gap_Y = np.zeros(K + 1)
            self.gap_Z = np.zeros(K + 1)
            self.res_max = np.zeros(K + 1)


def _check_finite(X, chunk_lo, step):
    if not np.all(np.isfinite(X)):
        bad = np.argwhere(~np.isfinite(X))
        path_idx = chunk_lo + int(bad[0][-1])
        raise NumericalFailure(
            f"non-finite state at path {path_idx}, step {step}")


def _run_chunk(problem, path, are, static, cl, config, mode,
               chunk_idx, lo, hi, snap_idx, increments=None):
    """Simulate paths [lo, hi) through all steps; return accumulators.

    mode: 'optimal', 'turnpike', or 'coupled'.
    """
    n, m = problem.n, problem.m
    K = config.n_steps
    dt = config.dt
    L = hi - lo
    want_opt = mode in ("optimal", "coupled")
    want_tp = mode in ("turnpike", "coupled")
    want_gaps = mode == "coupled"
    acc = _ChunkAcc(K, n, m, L, len(snap_idx), want_tp, want_gaps)
    hats = assemble_hats(problem)

    x_star = static.x_star
    u_star = static.u_star
    lam = static.lambda_star
    sig = static.sigma_star
    if want_tp:
        Atp, Ctp = _turnpike_coeffs(problem, are)
    Xt = None
    Xs = None
    if want_opt:
        Xt = np.tile((cl.m_t[0])[:, None], (1, L))   # shifted state, starts at x0 - x*
    if want_tp:
        Xs = np.zeros((n, L))
    stream = 0 if (config.coupled or mode != "turnpike") else 1
    snap_pos = {k: i for i, k in enumerate(snap_idx)}

    for k in range(K + 1):
        if want_opt:
            u_sh = cl.Theta[k] @ Xt + cl.uconst[k][:, None]   # shifted control
            X_orig = Xt + x_star[:, None]
            u_orig = u_sh + u_star[:, None]
            acc.sum_X[k] = X_orig.sum(axis=1)
            acc.sum_u[k] = u_orig.sum(axis=1)
            acc.sum_sqX[k] = np.einsum("ip,ip->", X_orig, X_orig)
            acc.sum_squ[k] = np.einsum("ip,ip->", u_orig, u_orig)
            w = dt if 0 < k < K else 0.5 * dt
            acc.cost += w * _pathwise_cost(problem, X_orig, u_orig)
            if k in snap_pos:
                acc.snap_X[snap_pos[k]] = X_orig
                acc.snap_u[snap_pos[k]] = u_orig
        if want_tp:
            u_tp = are.Theta @ Xs + u_star[:, None]
            Xtp_orig = Xs + x_star[:, None]
            acc.tp_sum_X[k] = Xtp_orig.sum(axis=1)
            acc.tp_sum_u[k] = u_tp.sum(axis=1)
            acc.tp_sum_sqX[k] = np.einsum("ip,ip->", Xtp_orig, Xtp_orig)
            acc.tp_sum_squ[k] = np.einsum("ip,ip->", u_tp, u_tp)
            w = dt if 0 < k < K else 0.5 * dt
            acc.tp_cost += w * _pathwise_cost(problem, Xtp_orig, u_tp)
            if k in snap_pos:
                acc.tp_snap_X[snap_pos[k]] = Xtp_orig
                acc.tp_snap_u[snap_pos[k]] = u_tp
        if want_gaps:
            dX = Xt - Xs
            du = u_sh - (u_tp - u_star[:, None])
            acc.gap_X[k] = np.einsum("ip,ip->", dX, dX)
            acc.gap_u[k] = np.einsum("ip,ip->", du, du)
            Y, Z, Y_tp, Z_tp = _adjoints(path, are, static, cl, Ctp, k, Xt, Xs)
            dY = Y - Y_tp
            dZ = Z - Z_tp
            acc.gap_Y[k] = np.einsum("ip,ip->", dY, dY)
            acc.gap_Z[k] = np.einsum("ip,ip->", dZ, dZ)
            # stationarity block of the optimality system, analytic means
            EY = path.Pi_of_t[k] @ cl.m_t[k] + path.phiHat_of_t[k] + lam
            EZ = path.P_of_t[k] @ (hats.Chat @ cl.m_t[k]
                                   + hats.Dhat @ cl.Eu_t[k] + sig)
            EX = cl.m_t[k] + x_star
            Eu = cl.Eu_t[k] + u_star
            res = (problem.B.T @ Y + problem.D.T @ Z
                   + problem.S @ X_orig + problem.R @ u_orig
                   + (problem.Bbar.T @ EY + problem.Dbar.T @ EZ
                      + problem.Sbar @ EX + problem.Rbar @ Eu
                      + problem.r)[:, None])
            acc.res_max[k] = np.max(np.abs(res), initial=0.0)
        if k == K:
            break
        if increments is not None:
            dW = increments[k, lo:hi]
        else:
            dW = brownian_increments(config.seed, stream, chunk_idx, k, L, dt)
        if want_opt:
            Xt = (Xt + dt * (cl.Acl[k] @ Xt + cl.dconst[k][:, None])
                  + (cl.Ccl[k] @ Xt + cl.cconst[k][:, None]) * dW)
        if want_tp:
            Xs = Xs + dt * (Atp @ Xs) + (Ctp @ Xs + sig[:, None]) * dW
        if (k + 1) % FINITE_CHECK_EVERY == 0 or k + 1 == K:
            if want_opt:
                _check_finite(Xt, lo, k + 1)
            if want_tp:
                _check_finite(Xs, lo, k + 1)
    return acc


def _chunk_ranges(n_paths):
    return [(c, lo, min(lo + PATH_CHUNK, n_paths))
            for c, lo in enumerate(range(0, n_paths, PATH_CHUNK))]


def _snapshot_indices(K):
    stride = max(1, K // SNAPSHOT_TARGET)
    idx = list(range(0, K + 1, stride))
    if idx[-1] != K:
        idx.append(K)
    return np.array(idx, dtype=int)


def _mesh_of(config):
    return np.linspace(0.0, config.T, config.n_steps + 1)


def _check_path_mesh(path, config):
    if path is None:
        return
    if (len(path.mesh) - 1 != config.n_steps
            or abs(path.T - config.T) > 1e-12 * max(1.0, config.T)):
        raise ValueError(
            "Riccati path mesh does not match the simulation grid; "
            f"path has {len(path.mesh) - 1} steps over T={path.T}, "
            f"config wants {config.n_steps} over T={config.T}")


def _dispatch(problem, path, are, static, cl, config, mode, increments):
    K = config.n_steps
    snap_idx = _snapshot_indices(K)
    ranges = _chunk_ranges(config.n_paths)

    def work(args):
        c, lo, hi = args
        return _run_chunk(problem, path, are, static, cl, config, mode,
                          c, lo, hi, snap_idx, increments)
    if config.workers == 1 or len(ranges) == 1:
        accs = [work(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            accs = list(pool.map(work, ranges))
    return accs, snap_idx


def _combine_ensemble(problem, config, mesh, accs, snap_idx, prefix=""):
    N = config.n_paths

    def g(acc, name):
        return getattr(acc, prefix + name)
    mean_X = sum(g(a, "sum_X") for a in accs) / N
    mean_u = sum(g(a, "sum_u") for a in accs) / N
    m2X = sum(g(a, "sum_sqX") for a in accs) / N
    m2u = sum(g(a, "sum_squ") for a in accs) / N
    cost_paths = np.concatenate([g(a, "cost") for a in accs])
    mean_part = np.trapezoid(_mean_cost_series(problem, mean_X, mean_u), mesh)
    cost_paths = cost_paths + mean_part
    cost = float(np.mean(cost_paths))
    stderr = (float(np.std(cost_paths, ddof=1)) / math.sqrt(N)
              if N > 1 else 0.0)
    snap_X = np.concatenate([g(a, "snap_X") for a in accs], axis=2)
    snap_u = np.concatenate([g(a, "snap_u") for a in accs], axis=2)
    stats = EnsembleStats(mesh=mesh, mean_X=mean_X, mean_u=mean_u,
                          second_moment_X=m2X, second_moment_u=m2u,
                          cost_estimate=cost, cost_stderr=stderr)
    return stats, snap_X, snap_u


def simulate_optimal_ensemble(problem: ProblemData, path: RiccatiPath,
                              static: StaticSolution, x0,
                              config: SimulationConfig, increments=None):
    """Euler-Maruyama ensemble of the finite-horizon closed loop.

    The mean-interaction term inside the dynamics is the analytic mean
    from propagate_mean, so paths are mutually independent.  Returns
    (RawPaths, EnsembleStats).
    """
    _check_path_mesh(path, config)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    cl = _ClosedLoop(problem, path, static, m_t)
    accs, snap_idx = _dispatch(problem, path, None, static, cl, config,
                               "optimal", increments)
    mesh = _mesh_of(config)
    stats, snap_X, snap_u = _combine_ensemble(problem, config, mesh, accs,
                                              snap_idx)
    raw = RawPaths(kind="optimal", mesh=mesh[snap_idx], indices=snap_idx,
                   X=snap_X, u=snap_u, x0=x0, config=config)
    return raw, stats


def simulate_turnpike_ensemble(problem: ProblemData, are: ArePair,
                               static: StaticSolution,
                               config: SimulationConfig, increments=None):
    """Euler-Maruyama ensemble of the stationary turnpike process.

    When config.coupled, Brownian increments are bit-identical to those
    used by simulate_optimal_ensemble at the same addresses.
    """
    accs, snap_idx = _dispatch(problem, None, are, static, None, config,
                               "turnpike", increments)
    mesh = _mesh_of(config)
    stats, snap_X, snap_u = _combine_ensemble(problem, config, mesh, accs,
                                              snap_idx, prefix="tp_")
    raw = RawPaths(kind="turnpike", mesh=mesh[snap_idx], indices=snap_idx,
                   X=snap_X, u=snap_u, x0=None, config=config)
    return raw, stats


def run_coupled(problem: ProblemData, path: RiccatiPath, are: ArePair,
                static: StaticSolution, x0,
                config: SimulationConfig, increments=None) -> CoupledResult:
    """Lockstep simulation of both ensembles with shared increments.

    Gap series (state, control, and reconstructed adjoints) and the
    stationarity residual of the optimality system are accumulated
    online at full time resolution.
    """
    if not config.coupled:
        raise ValueError("run_coupled requires config.coupled = True")
    _check_path_mesh(path, config)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    cl = _ClosedLoop(problem, path, static, m_t)
    accs, snap_idx = _dispatch(problem, path, are, static, cl, config,
                               "coupled", increments)
    mesh = _mesh_of(config)
    N = config.n_paths
    opt_stats, oX, ou = _combine_ensemble(problem, config, mesh, accs, snap_idx)
    tp_stats, tX, tu = _combine_ensemble(problem, config, mesh, accs, snap_idx,
                                         prefix="tp_")
    gap_X = sum(a.gap_X for a in accs) / N
    gap_u = sum(a.gap_u for a in accs) / N
    gap_Y = sum(a.gap_Y for a in accs) / N
    gap_Z = sum(a.gap_Z for a in accs) / N
    res = np.maximum.reduce([a.res_max for a in accs])
    res_avg = float(np.trapezoid(res, mesh) / config.T)
    opt_stats = EnsembleStats(
        mesh=mesh, mean_X=opt_stats.mean_X, mean_u=opt_stats.mean_u,
        second_moment_X=opt_stats.second_moment_X,
        second_moment_u=opt_stats.second_moment_u,
        cost_estimate=opt_stats.cost_estimate,
        cost_stderr=opt_stats.cost_stderr,
        gap_X=gap_X, gap_u=gap_u, gap_Y=gap_Y, gap_Z=gap_Z)
    raw_opt = RawPaths(kind="optimal", mesh=mesh[snap_idx], indices=snap_idx,
                       X=oX, u=ou, x0=x0, config=config)
    raw_tp = RawPaths(kind="turnpike", mesh=mesh[snap_idx], indices=snap_idx,
                      X=tX, u=tu, x0=None, config=config)
    return CoupledResult(optimal=opt_stats, turnpike=tp_stats,
                         raw_optimal=raw_opt, raw_turnpike=raw_tp,
                         residual_series=res, residual_avg=res_avg)


def build_adjoint_paths(problem: ProblemData, path: RiccatiPath,
                        are: ArePair, static: StaticSolution,
                        raw_optimal: RawPaths, raw_turnpike: RawPaths):
    """Adjoint gap series E|Y-Y_tp|^2, E|Z-Z_tp|^2 on the snapshot mesh.

    Y and Z are reconstructed in feedback form from the Riccati data;
    the turnpike adjoints are Y_tp = P X* + lambda*, Z_tp = P[(C + D
    Theta) X* + sigma*].  Returns (mesh, gap_Y, gap_Z).
    """
    if raw_optimal.kind != "optimal" or raw_turnpike.kind != "turnpike":
        raise ValueError("expected one optimal and one turnpike ensemble")
    if raw_optimal.config != raw_turnpike.config or not raw_optimal.config.coupled:
        raise ValueError("ensembles are not a coupled pair (configs differ)")
    config = raw_optimal.config
    _check_path_mesh(path, config)
    m_t = propagate_mean(problem, path, raw_optimal.x0, static.x_star)
    cl = _ClosedLoop(problem, path, static, m_t)
    _, Ctp = _turnpike_coeffs(problem, are)
    S = len(raw_optimal.indices)
    gap_Y = np.empty(S)
    gap_Z = np.empty(S)
    for i, k in enumerate(raw_optimal.indices):
        Y, Z, Y_tp, Z_tp = _adjoints(path, are, static, cl, Ctp, k,
                                     raw_optimal.X[i] - static.x_star[:, None],
                                     raw_turnpike.X[i] - static.x_star[:, None])
        dY = Y - Y_tp
        dZ = Z - Z_tp
        gap_Y[i] = np.mean(np.einsum("ip,ip->p", dY, dY))
        gap_Z[i] = np.mean(np.einsum("ip,ip->p", dZ, dZ))
    return raw_optimal.mesh, gap_Y, gap_Z


def estimate_cost(problem: ProblemData, X: np.ndarray, u: np.ndarray,
                  mesh: np.ndarray):
    """Trapezoidal cost estimate over full-resolution path arrays.

    X has shape (K+1, n, N), u has shape (K+1, m, N); the mean-
    interaction blocks use the empirical ensemble means.  Returns
    (mean, standard error).
    """
    X = np.asarray(X, dtype=float)
    u = np.asarray(u, dtype=float)
    if X.shape[0] != len(mesh) or u.shape[0] != len(mesh):
        raise ValueError("paths and mesh have mismatched lengths")
    N = X.shape[2]
    per_node = np.array([_pathwise_cost(problem, X[k], u[k])
                         for k in range(len(mesh))])        # (K+1, N)
    cost_paths = np.trapezoid(per_node, mesh, axis=0)
    mean_X = X.mean(axis=2)
    mean_u = u.mean(axis=2)
    cost_paths = cost_paths + np.trapezoid(
        _mean_cost_series(problem, mean_X, mean_u), mesh)
    mean = float(np.mean(cost_paths))
    stderr = (float(np.std(cost_paths, ddof=1)) / math.sqrt(N)
              if N > 1 else 0.0)
    return mean, stderr


def write_raw_paths(raw: RawPaths, fh) -> None:
    """Stream stored path snapshots to a binary file.

    Layout: four little-endian int64 header words (n, m, number of
    stored time nodes, n_paths), followed by the state array
    (nodes, n, n_paths) and the control array (nodes, m, n_paths) as
    little-endian float64 in C order.
    """
    S, n, N = raw.X.shape
    m = raw.u.shape[1]
    fh.write(np.array([n, m, S, N], dtype="<i8").tobytes())
    fh.write(np.ascontiguousarray(raw.X, dtype="<f8").tobytes())
    fh.write(np.ascontiguousarray(raw.u, dtype="<f8").tobytes())


def read_raw_paths(fh):
    """Inverse of write_raw_paths; returns (X, u) arrays."""
    header = np.frombuffer(fh.read(32), dtype="<i8")
    if header.shape != (4,):
        raise ValueError("truncated raw-path header")
    n, m, S, N = (int(v) for v in header)
    X = np.frombuffer(fh.read(8 * S * n * N), dtype="<f8").reshape(S, n, N)
    u = np.frombuffer(fh.read(8 * S * m * N), dtype="<f8").reshape(S, m, N)
    return X.copy(), u.copy()


def write_ensemble_csv(stats: EnsembleStats, fh, header_comments=()) -> None:
    for line in header_comments:
        fh.write(f"# {line}\n")
    n = stats.mean_X.shape[1]
    cols = [f"meanX{i}" for i in range(n)]
    header = ["t"] + cols + ["m2X", "m2u"]
    series = [stats.mesh] + [stats.mean_X[:, i] for i in range(n)] \
        + [stats.second_moment_X, stats.second_moment_u]
    for name in ("gap_X", "gap_u", "gap_Y", "gap_Z"):
        val = getattr(stats, name)
        if val is not None:
            header.append(name.replace("_", ""))
            series.append(val)
    fh.write(",".join(header) + "\n")
    for row in zip(*series):
        fh.write(",".join(repr(float(v)) for v in row) + "\n")
