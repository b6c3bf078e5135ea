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
`run_coupled` steps both ensembles in lockstep and accumulates their
moments, costs, snapshots, the state, control and adjoint gaps and the
stationarity residual online.

Brownian increments come from a counter-based generator: every
increment has the fixed address (seed, path-chunk, step), independent
of scheduling or worker count.  Paths are processed in fixed-size
chunks and all reductions are combined in chunk order, which keeps
results bit-identical for any number of workers.
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
    "run_coupled",
    "write_ensemble_csv",
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
    """Nodewise moments and cost of one ensemble; the gap series of the
    coupled pair are set on the optimal ensemble only."""

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
    """Per-path states/controls thinned to a snapshot sub-mesh: X is
    (nodes, n, n_paths), u is (nodes, m, n_paths), and indices are the
    nodes' positions on the full mesh."""

    mesh: np.ndarray
    indices: np.ndarray
    X: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class CoupledResult:
    optimal: EnsembleStats
    turnpike: EnsembleStats
    raw_optimal: RawPaths
    raw_turnpike: RawPaths
    residual_series: np.ndarray
    residual_avg: float


def brownian_increments(seed: int, chunk: int, step: int,
                        count: int, dt: float) -> np.ndarray:
    """Normal increments of variance dt at a fixed (seed, chunk, step)
    address, independent of scheduling: Philox key [seed, 0], counter
    [0, 0, chunk, step]."""
    key = np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
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


class _EnsembleAcc:
    """Node sums, per-path costs and snapshots of one ensemble over one
    chunk of paths."""

    def __init__(self, K, n, m, L, snap_count):
        self.sum_X = np.zeros((K + 1, n))
        self.sum_u = np.zeros((K + 1, m))
        self.sum_sqX = np.zeros(K + 1)
        self.sum_squ = np.zeros(K + 1)
        self.cost = np.zeros(L)
        self.snap_X = np.empty((snap_count, n, L))
        self.snap_u = np.empty((snap_count, m, L))

    def add(self, problem, k, w, X, u, snap):
        """Record node k of states X and controls u (original variables),
        with trapezoid weight w and snapshot slot snap (or None)."""
        self.sum_X[k] = X.sum(axis=1)
        self.sum_u[k] = u.sum(axis=1)
        self.sum_sqX[k] = np.einsum("ip,ip->", X, X)
        self.sum_squ[k] = np.einsum("ip,ip->", u, u)
        self.cost += w * _pathwise_cost(problem, X, u)
        if snap is not None:
            self.snap_X[snap] = X
            self.snap_u[snap] = u


class _ChunkAcc:
    """Accumulators for one chunk of paths: both ensembles, the gap
    sums and the nodewise maximum stationarity residual."""

    def __init__(self, K, n, m, L, snap_count):
        self.opt = _EnsembleAcc(K, n, m, L, snap_count)
        self.tp = _EnsembleAcc(K, n, m, L, snap_count)
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


def _run_chunk(problem, path, are, static, cl, config,
               chunk_idx, lo, hi, snap_idx, increments=None):
    """Simulate paths [lo, hi) of both ensembles through all steps;
    return their accumulators."""
    n, m = problem.n, problem.m
    K = config.n_steps
    dt = config.dt
    L = hi - lo
    acc = _ChunkAcc(K, n, m, L, len(snap_idx))
    hats = assemble_hats(problem)

    x_star = static.x_star
    u_star = static.u_star
    lam = static.lambda_star
    sig = static.sigma_star
    Atp = problem.A + problem.B @ are.Theta
    Ctp = problem.C + problem.D @ are.Theta
    Xt = np.tile((cl.m_t[0])[:, None], (1, L))   # shifted state, starts at x0 - x*
    Xs = np.zeros((n, L))                         # shifted turnpike state
    snap_pos = {k: i for i, k in enumerate(snap_idx)}

    for k in range(K + 1):
        w = dt if 0 < k < K else 0.5 * dt
        snap = snap_pos.get(k)
        u_sh = cl.Theta[k] @ Xt + cl.uconst[k][:, None]   # shifted control
        X_orig = Xt + x_star[:, None]
        u_orig = u_sh + u_star[:, None]
        acc.opt.add(problem, k, w, X_orig, u_orig, snap)
        u_tp = are.Theta @ Xs + u_star[:, None]
        acc.tp.add(problem, k, w, Xs + x_star[:, None], u_tp, snap)

        dX = Xt - Xs
        du = u_sh - (u_tp - u_star[:, None])
        acc.gap_X[k] = np.einsum("ip,ip->", dX, dX)
        acc.gap_u[k] = np.einsum("ip,ip->", du, du)
        # feedback-form adjoints: Y, Z of the optimal pair against
        # Y_tp = P X* + lambda*, Z_tp = P[(C + D Theta) X* + sigma*]
        mk = cl.m_t[k]
        Y = path.P_of_t[k] @ (Xt - mk[:, None]) + (path.Pi_of_t[k] @ mk
                                                   + path.phiHat_of_t[k] + lam)[:, None]
        Z = path.P_of_t[k] @ (cl.Ccl[k] @ Xt + cl.cconst[k][:, None])
        dY = Y - (are.P @ Xs + lam[:, None])
        dZ = Z - (are.P @ (Ctp @ Xs) + (are.P @ sig)[:, None])
        acc.gap_Y[k] = np.einsum("ip,ip->", dY, dY)
        acc.gap_Z[k] = np.einsum("ip,ip->", dZ, dZ)
        # stationarity block of the optimality system, analytic means
        EY = path.Pi_of_t[k] @ mk + path.phiHat_of_t[k] + lam
        EZ = path.P_of_t[k] @ (hats.Chat @ mk + hats.Dhat @ cl.Eu_t[k] + sig)
        EX = mk + x_star
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
            dW = brownian_increments(config.seed, chunk_idx, k, L, dt)
        Xt = (Xt + dt * (cl.Acl[k] @ Xt + cl.dconst[k][:, None])
              + (cl.Ccl[k] @ Xt + cl.cconst[k][:, None]) * dW)
        Xs = Xs + dt * (Atp @ Xs) + (Ctp @ Xs + sig[:, None]) * dW
        if (k + 1) % FINITE_CHECK_EVERY == 0 or k + 1 == K:
            _check_finite(Xt, lo, k + 1)
            _check_finite(Xs, lo, k + 1)
    return acc


def _snapshot_indices(K):
    stride = max(1, K // SNAPSHOT_TARGET)
    idx = list(range(0, K + 1, stride))
    if idx[-1] != K:
        idx.append(K)
    return np.array(idx, dtype=int)


def _check_path_mesh(path, config):
    if (len(path.mesh) - 1 != config.n_steps
            or abs(path.T - config.T) > 1e-12 * max(1.0, config.T)):
        raise ValueError(
            "Riccati path mesh does not match the simulation grid; "
            f"path has {len(path.mesh) - 1} steps over T={path.T}, "
            f"config wants {config.n_steps} over T={config.T}")


def _combine_ensemble(problem, mesh, accs, snap_idx, **gaps):
    """EnsembleStats and RawPaths of one ensemble from its per-chunk
    accumulators, combined in chunk order."""
    cost_paths = np.concatenate([a.cost for a in accs])
    N = len(cost_paths)
    mean_X = sum(a.sum_X for a in accs) / N
    mean_u = sum(a.sum_u for a in accs) / N
    m2X = sum(a.sum_sqX for a in accs) / N
    m2u = sum(a.sum_squ for a in accs) / N
    mean_part = np.trapezoid(_mean_cost_series(problem, mean_X, mean_u), mesh)
    cost_paths = cost_paths + mean_part
    cost = float(np.mean(cost_paths))
    stderr = (float(np.std(cost_paths, ddof=1)) / math.sqrt(N)
              if N > 1 else 0.0)
    stats = EnsembleStats(mesh=mesh, mean_X=mean_X, mean_u=mean_u,
                          second_moment_X=m2X, second_moment_u=m2u,
                          cost_estimate=cost, cost_stderr=stderr, **gaps)
    raw = RawPaths(mesh=mesh[snap_idx], indices=snap_idx,
                   X=np.concatenate([a.snap_X for a in accs], axis=2),
                   u=np.concatenate([a.snap_u for a in accs], axis=2))
    return stats, raw


def run_coupled(problem: ProblemData, path: RiccatiPath, are: ArePair,
                static: StaticSolution, x0,
                config: SimulationConfig, increments=None) -> CoupledResult:
    """Lockstep simulation of both ensembles with shared increments.

    Gap series (state, control, and reconstructed adjoints) and the
    stationarity residual of the optimality system are accumulated
    online at full time resolution.  `increments`, when given, is a
    (n_steps, n_paths) array of Brownian increments used in place of
    the generated ones.
    """
    _check_path_mesh(path, config)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    cl = _ClosedLoop(problem, path, static, m_t)
    K = config.n_steps
    N = config.n_paths
    snap_idx = _snapshot_indices(K)
    ranges = [(c, lo, min(lo + PATH_CHUNK, N))
              for c, lo in enumerate(range(0, N, PATH_CHUNK))]

    def work(args):
        c, lo, hi = args
        return _run_chunk(problem, path, are, static, cl, config,
                          c, lo, hi, snap_idx, increments)
    if config.workers == 1 or len(ranges) == 1:
        accs = [work(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            accs = list(pool.map(work, ranges))

    mesh = np.linspace(0.0, config.T, K + 1)
    opt_stats, raw_opt = _combine_ensemble(
        problem, mesh, [a.opt for a in accs], snap_idx,
        gap_X=sum(a.gap_X for a in accs) / N,
        gap_u=sum(a.gap_u for a in accs) / N,
        gap_Y=sum(a.gap_Y for a in accs) / N,
        gap_Z=sum(a.gap_Z for a in accs) / N)
    tp_stats, raw_tp = _combine_ensemble(problem, mesh, [a.tp for a in accs],
                                         snap_idx)
    res = np.maximum.reduce([a.res_max for a in accs])
    res_avg = float(np.trapezoid(res, mesh) / config.T)
    return CoupledResult(optimal=opt_stats, turnpike=tp_stats,
                         raw_optimal=raw_opt, raw_turnpike=raw_tp,
                         residual_series=res, residual_avg=res_avg)


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
