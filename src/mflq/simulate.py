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

`run_coupled` steps both ensembles in lockstep.  A chunk of L paths is
one stacked state Z = (Xt, Xs) of shape (2n, L), advanced by one
Euler-Maruyama update per step,

    Z <- Z + dt (A2_k Z + d2_k) + (C2_k Z + c2_k) dW_k,

with block-diagonal per-node coefficients A2_k = diag(Acl_k, A + B Theta)
and C2_k = diag(Ccl_k, C + D Theta).  Every observable of the run (the
states and controls of both ensembles, the state, control and adjoint
gaps) is an affine map G_k v + h_k of v = (Xt - Xs, Xs), and one table
of these maps is built per run.  At each node only the path sums
s1_k = sum_p v_p and s2_k = sum_p v_p v_p' are kept; after the loop
every node series comes from the moment identity

    sum_p |G v_p + h|^2 = tr(G s2 G') + 2 h' G s1 + L |h|^2

in one vectorized pass over the nodes.  The gaps read the difference
block Xt - Xs directly, never E|Xt|^2 - 2 E[Xt.Xs] + E|Xs|^2, so they
stay accurate where they fall to 1e-17.  What stays per path is the
running cost, one quadratic form v' W_k v + 2 g_k' v per ensemble and
node (its standard error needs the per-path totals), and the snapshot
sub-mesh.

Memory is allocated once.  The run holds one snapshot buffer of shape
(nodes, 2(n + m), n_paths); each chunk writes its columns in place, and
`RawPaths.X` and `.u` are views of it.  Each chunk allocates its (., L)
work buffers (v, the cost forms, the drift and diffusion terms) before
the step loop, and every step writes into them, so the Brownian draw
is the only per-step allocation of paths' size.

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


def _affine(K1, Gd, Gs, h):
    """The map v = (Xt - Xs, Xs) -> Gd (Xt - Xs) + Gs Xs + h at every
    node, as stacks G of shape (K+1, r, 2n) and h of shape (K+1, r).
    Blocks may be per-node stacks or constant."""
    G = np.concatenate(np.broadcast_arrays(Gd, Gs), axis=-1)
    r = G.shape[-2]
    return (np.broadcast_to(G, (K1, r, G.shape[-1])),
            np.broadcast_to(h, (K1, r)))


class _ClosedLoop:
    """Per-node coefficients of the coupled pair, built once per run.

    The Euler step acts on Z = (Xt, Xs) of shape (2n, L) through the
    block-diagonal stacks A2, C2 and the offsets d2, c2 ((K+1, 2n, 1)),
    so both ensembles advance in one update.  The observables act on
    v = T2 Z = (Xt - Xs, Xs): `maps` is the table of affine maps
    (G_k, h_k) of v for the states and controls of both ensembles
    (original variables) and the four gaps.  The snapshot stacks and the
    per-path cost coefficients are read off that table: each ensemble's
    trapezoid-weighted running cost at node k is v' W_k v + 2 g_k' v + c_k,
    with W_k = G' M G, g_k = G'(M h + l), c_k = h' M h + 2 l' h for the
    (X, u) rows (G, h) of the table, M = [[Q, S'], [S, R]] and
    l = (q, r).
    """

    def __init__(self, problem, path, are, static, m_t, dt):
        n, m = problem.n, problem.m
        K1 = len(m_t)
        hats = assemble_hats(problem)
        A, B, C, D = problem.A, problem.B, problem.C, problem.D
        Th = path.Theta_of_t
        ThH = path.ThetaHat_of_t
        off = path.thetaHat_of_t                             # (K+1, m)
        P_t, Pi_t = path.P_of_t, path.Pi_of_t
        x_star, u_star = static.x_star, static.u_star
        sig = static.sigma_star
        Acl = A + np.einsum("im,kmn->kin", B, Th)            # (K+1, n, n)
        Ccl = C + np.einsum("im,kmn->kin", D, Th)
        AclHat = hats.Ahat + np.einsum("im,kmn->kin", hats.Bhat, ThH)
        CclHat = hats.Chat + np.einsum("im,kmn->kin", hats.Dhat, ThH)
        dconst = np.einsum("kij,kj->ki", AclHat - Acl, m_t) + off @ hats.Bhat.T
        c0 = np.einsum("kij,kj->ki", CclHat - Ccl, m_t) + off @ hats.Dhat.T
        cconst = c0 + sig
        uconst = np.einsum("kij,kj->ki", ThH - Th, m_t) + off
        Atp = A + B @ are.Theta
        Ctp = C + D @ are.Theta

        self.m0 = m_t[0]
        self.A2 = np.zeros((K1, 2 * n, 2 * n))
        self.A2[:, :n, :n], self.A2[:, n:, n:] = Acl, Atp
        self.C2 = np.zeros((K1, 2 * n, 2 * n))
        self.C2[:, :n, :n], self.C2[:, n:, n:] = Ccl, Ctp
        self.d2 = np.zeros((K1, 2 * n, 1))
        self.d2[:, :n, 0] = dconst
        self.c2 = np.zeros((K1, 2 * n, 1))
        self.c2[:, :n, 0], self.c2[:, n:, 0] = cconst, sig
        I, O = np.eye(n), np.zeros((n, n))
        self.T2 = np.block([[I, -I], [O, I]])

        # feedback-form adjoints: Y = P_T (Xt - m) + Pi_T m + phiHat + lam,
        # Z = P_T (Ccl Xt + cconst), against Y* = P Xs + lam and
        # Z* = P (Ctp Xs + sigma*); the Xs and constant parts of the
        # differences are formed from P_T - P and Theta_T - Theta, which
        # vanish mid-horizon, so they carry no cancellation error
        PC = P_t @ Ccl
        dP = P_t - are.P
        Yc = np.einsum("kij,kj->ki", Pi_t - P_t, m_t) + path.phiHat_of_t
        self.maps = {
            "X_opt": _affine(K1, I, I, x_star),
            "u_opt": _affine(K1, Th, Th, uconst + u_star),
            "X_tp": _affine(K1, O, I, x_star),
            "u_tp": _affine(K1, np.zeros((m, n)), are.Theta, u_star),
            "gap_X": _affine(K1, I, O, np.zeros(n)),
            "gap_u": _affine(K1, Th, Th - are.Theta, uconst),
            "gap_Y": _affine(K1, P_t, dP, Yc),
            "gap_Z": _affine(K1, PC, dP @ Ccl + are.P @ D @ (Th - are.Theta),
                             np.einsum("kij,kj->ki", P_t, c0) + dP @ sig),
        }
        snap = [self.maps[name] for name in ("X_opt", "u_opt", "X_tp", "u_tp")]
        self.snap_G = np.concatenate([G for G, _ in snap], axis=1)
        self.snap_h = np.concatenate([h for _, h in snap], axis=1)[..., None]

        w = np.full(K1, dt)
        w[0] = w[-1] = 0.5 * dt
        Mq = np.block([[problem.Q, problem.S.T], [problem.S, problem.R]])
        lq = np.concatenate([problem.q, problem.r])
        W, g, c = [], [], []
        for side in ("opt", "tp"):
            G = np.concatenate([self.maps["X_" + side][0],
                                self.maps["u_" + side][0]], axis=1)
            h = np.concatenate([self.maps["X_" + side][1],
                                self.maps["u_" + side][1]], axis=1)
            W.append(G.mT @ Mq @ G)
            g.append(np.einsum("kji,kj->ki", G, h @ Mq + lq))
            c.append(np.einsum("ki,ij,kj->k", h, Mq, h) + 2.0 * (h @ lq))
        # (K+1, 2, ...): one block per ensemble, trapezoid weights folded in
        self.cost_W = w[:, None, None, None] * np.stack(W, axis=1)
        self.cost_g = 2.0 * (w[:, None, None] * np.stack(g, axis=1))[..., None]
        self.cost_c = (w[:, None] * np.stack(c, axis=1)).sum(axis=0)


def _node_series(G, h, s1, s2, N):
    """Path sums of G v + h and of |G v + h|^2 at every node from the
    path sums s1 = sum_p v_p and s2 = sum_p v_p v_p' of N paths:
    sum_p |G v_p + h|^2 = tr(G s2 G') + 2 h' G s1 + N |h|^2."""
    Gs1 = np.einsum("kij,kj->ki", G, s1)
    sq = ((G @ s2 * G).sum(axis=(1, 2)) + 2.0 * np.einsum("ki,ki->k", h, Gs1)
          + N * np.einsum("ki,ki->k", h, h))
    return Gs1 + N * h, sq


def _mean_cost_series(problem, mean_X, mean_u):
    """Nodewise cost contribution of the mean-interaction blocks."""
    return (np.einsum("ki,ij,kj->k", mean_X, problem.Qbar, mean_X)
            + 2.0 * np.einsum("km,mj,kj->k", mean_u, problem.Sbar, mean_X)
            + np.einsum("km,mj,kj->k", mean_u, problem.Rbar, mean_u))


class _ChunkAcc:
    """Accumulators for one chunk of L paths: the per-node path sums s1
    (K+1, 2n) and s2 (K+1, 2n, 2n) of v and the per-path costs of both
    ensembles (2, L)."""

    def __init__(self, K, n2, L):
        self.s1 = np.empty((K + 1, n2))
        self.s2 = np.empty((K + 1, n2, n2))
        self.cost = np.zeros((2, L))


def _check_finite(X, finite, chunk_lo, step):
    """Raise on the first non-finite entry of X, naming its path;
    `finite` is a boolean work buffer of X's shape."""
    if not np.isfinite(X, out=finite).all():
        bad = np.argwhere(~finite)
        path_idx = chunk_lo + int(bad[0][-1])
        raise NumericalFailure(
            f"non-finite state at path {path_idx}, step {step}")


def _run_chunk(cl, config, chunk_idx, lo, hi, snaps, snap_idx,
               increments=None):
    """Simulate paths [lo, hi) of both ensembles through all steps,
    writing their snapshots into the columns lo:hi of `snaps`.

    Per node: v = T2 Z, its path sums s1 and s2, one quadratic form per
    ensemble for the cost and, on the snapshot nodes, the snapshot rows;
    then one stacked Euler update of Z.  Every (., L) buffer is
    allocated once, before the loop, and written in place.  Returns the
    chunk's accumulators.
    """
    K = config.n_steps
    dt = config.dt
    L = hi - lo
    n2 = cl.T2.shape[0]
    acc = _ChunkAcc(K, n2, L)
    own_snaps = snaps[:, :, lo:hi]
    Z = np.zeros((n2, L))
    Z[:n2 // 2] = cl.m0[:, None]       # Xt starts at x0 - x*, Xs at 0
    v = np.empty((n2, L))
    q = np.empty((2, n2, L))
    q_sum = np.empty((2, L))
    drift = np.empty((n2, L))
    diff = np.empty((n2, L))
    finite = np.empty((n2, L), dtype=bool)
    snap_pos = {k: i for i, k in enumerate(snap_idx)}

    for k in range(K + 1):
        np.matmul(cl.T2, Z, out=v)
        np.sum(v, axis=1, out=acc.s1[k])
        np.matmul(v, v.T, out=acc.s2[k])
        np.matmul(cl.cost_W[k], v, out=q)
        q += cl.cost_g[k]
        q *= v
        acc.cost += np.sum(q, axis=1, out=q_sum)
        snap = snap_pos.get(k)
        if snap is not None:
            np.matmul(cl.snap_G[k], v, out=own_snaps[snap])
            own_snaps[snap] += cl.snap_h[k]
        if k == K:
            break
        if increments is not None:
            dW = increments[k, lo:hi]
        else:
            dW = brownian_increments(config.seed, chunk_idx, k, L, dt)
        # Z += dt (A2 Z + d2) + (C2 Z + c2) dW, both terms from the old Z
        np.matmul(cl.A2[k], Z, out=drift)
        drift += cl.d2[k]
        drift *= dt
        np.matmul(cl.C2[k], Z, out=diff)
        diff += cl.c2[k]
        diff *= dW
        Z += drift
        Z += diff
        if (k + 1) % FINITE_CHECK_EVERY == 0 or k + 1 == K:
            _check_finite(Z, finite, lo, k + 1)
    acc.cost += cl.cost_c[:, None]
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


def _ensemble(problem, cl, mesh, side, s1, s2, cost_paths, **gaps):
    """EnsembleStats of one ensemble from the combined path sums and its
    per-path costs."""
    N = len(cost_paths)
    sum_X, sq_X = _node_series(*cl.maps["X_" + side], s1, s2, N)
    sum_u, sq_u = _node_series(*cl.maps["u_" + side], s1, s2, N)
    mean_X, mean_u = sum_X / N, sum_u / N
    mean_part = np.trapezoid(_mean_cost_series(problem, mean_X, mean_u), mesh)
    cost_paths = cost_paths + mean_part
    cost = float(np.mean(cost_paths))
    stderr = (float(np.std(cost_paths, ddof=1)) / math.sqrt(N)
              if N > 1 else 0.0)
    return EnsembleStats(mesh=mesh, mean_X=mean_X, mean_u=mean_u,
                         second_moment_X=sq_X / N, second_moment_u=sq_u / N,
                         cost_estimate=cost, cost_stderr=stderr, **gaps)


def run_coupled(problem: ProblemData, path: RiccatiPath, are: ArePair,
                static: StaticSolution, x0,
                config: SimulationConfig, increments=None) -> CoupledResult:
    """Lockstep simulation of both ensembles with shared increments.

    Gap series (state, control, and reconstructed adjoints) are computed
    at full time resolution: the chunks' path sums of v = (Xt - Xs, Xs)
    are added in chunk order and every node series follows from them
    (see the module docstring).  `increments`, when given, is a
    (n_steps, n_paths) array of Brownian increments used in place of the
    generated ones.
    """
    _check_path_mesh(path, config)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    cl = _ClosedLoop(problem, path, are, static, m_t, config.dt)
    K = config.n_steps
    N = config.n_paths
    snap_idx = _snapshot_indices(K)
    ranges = [(c, lo, min(lo + PATH_CHUNK, N))
              for c, lo in enumerate(range(0, N, PATH_CHUNK))]
    # one buffer for the whole run; each chunk fills its own columns
    snaps = np.empty((len(snap_idx), cl.snap_G.shape[1], N))

    def work(args):
        c, lo, hi = args
        return _run_chunk(cl, config, c, lo, hi, snaps, snap_idx, increments)
    if config.workers == 1 or len(ranges) == 1:
        accs = [work(r) for r in ranges]
    else:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            accs = list(pool.map(work, ranges))

    mesh = np.linspace(0.0, config.T, K + 1)
    s1 = sum(a.s1 for a in accs)
    s2 = sum(a.s2 for a in accs)
    cost = np.concatenate([a.cost for a in accs], axis=1)
    gaps = {name: _node_series(*cl.maps[name], s1, s2, N)[1] / N
            for name in ("gap_X", "gap_u", "gap_Y", "gap_Z")}
    opt_stats = _ensemble(problem, cl, mesh, "opt", s1, s2, cost[0], **gaps)
    tp_stats = _ensemble(problem, cl, mesh, "tp", s1, s2, cost[1])
    n, m = problem.n, problem.m
    raw_opt, raw_tp = (
        RawPaths(mesh=mesh[snap_idx], indices=snap_idx,
                 X=snaps[:, lo:lo + n], u=snaps[:, lo + n:lo + n + m])
        for lo in (0, n + m))
    return CoupledResult(optimal=opt_stats, turnpike=tp_stats,
                         raw_optimal=raw_opt, raw_turnpike=raw_tp)


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
