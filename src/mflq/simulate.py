"""Monte Carlo simulation of the finite-horizon closed loop against the
stationary turnpike process, with common-random-number coupling.

The finite-horizon optimal pair is simulated through its closed-loop
representation: with Xt = X - x* and mean m(t) = E[Xt] from a
deterministic ODE,

    u = Theta_T (Xt - m) + ThetaHat_T m + thetaHat_T + u*,

and the state follows the corresponding Euler-Maruyama recursion.  The
turnpike comparison process solves dX* = (A + B Theta) X* dt +
[(C + D Theta) X* + sigma*] dW from zero.  It is only the gaps'
reference: sharing Brownian increments with it makes them directly
estimable, and none of its own statistics is reported.

`closed_loop` builds the per-node coefficients of the coupled pair once
per run, and `run_coupled` steps both ensembles in lockstep with them.
A chunk of L paths is one homogeneous state v = (Xt - Xs, Xs, 1) of
shape (2n + 1, L).  Every affine map of (Xt - Xs, Xs) is then one matrix
[G | h] acting on v, so each map of the run is one matrix per node.  One
Euler-Maruyama step of both ensembles is

    v <- F_k v + (G_k v) dW_k,

where F_k = I + dt T2 A2_k T2^-1 (plus the drift offsets in its last
column) and G_k = T2 C2_k T2^-1 (plus the noise offsets) are the
block-diagonal coefficients A2_k = diag(Acl_k, A + B Theta) and
C2_k = diag(Ccl_k, C + D Theta) of the stacked state Z = (Xt, Xs),
moved to v = T2 Z by T2 = [[I, -I], [0, I]].  The last row of F_k is
(0, ..., 0, 1) and that of G_k is zero, so the constant row stays 1.
The gap block Xt - Xs is stepped itself, its coefficients read off
Theta_T - Theta; it is never formed by subtracting Xs from Xt.

Every observable of the run (the states and controls of both
ensembles, the state, control and adjoint gaps) is such a map.  At each
node only the path sum S_k = sum_p v_p v_p' is kept: its last column
holds the path sums of v and its corner the path count.  After the
loop every node series comes from

    sum_p [G | h] v_p = [G | h] S_k e_last,
    sum_p |[G | h] v_p|^2 = tr([G | h] S_k [G | h]'),

in one vectorized pass over the nodes.  The gaps read the difference
block directly, never E|Xt|^2 - 2 E[Xt.Xs] + E|Xs|^2, so they stay
accurate where they fall to 1e-17.  What stays per path is the optimal
running cost, one quadratic form v' W_k v per node with the linear and
constant terms in the last row and column of W_k (its standard error
needs the per-path totals), and the snapshot sub-mesh, one product
with the stacked maps per snapshot node.

Memory is allocated once.  The run holds one snapshot buffer of shape
(nodes, 2(n + m), n_paths); each chunk writes its columns in place, and
`RawPaths.X` and `.u` are views of it.  Each chunk allocates its (., L)
work buffers (v, the cost form, the noise term) before the step loop,
and every step writes into them, so the Brownian draw is the only
per-step allocation of paths' size.

Brownian increments come from a counter-based generator: every
increment has the fixed address (seed, path-chunk, step), independent
of scheduling or worker count.  The chunk length depends on the
problem's (n, m) alone: PATH_CHUNK = 8192 paths, fewer where a
per-step product would pass BLAS's threading threshold
(`_chunk_length`; every problem with n <= 4 and m <= 2 keeps 8192).
So the addresses, and the increments a path receives, depend on
(seed, n, m), never on the worker count.  Every run maps its chunks
through one pool of min(workers, chunks) threads, and all reductions
are combined in chunk order, which keeps results bit-identical for any
number of workers.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailure
from .model import ProblemData
from .riccati import Feedback, FeedbackPath, _rk4_linear, _whole_steps

__all__ = [
    "SimulationConfig",
    "EnsembleStats",
    "RawPaths",
    "CoupledResult",
    "ClosedLoop",
    "brownian_increments",
    "propagate_mean",
    "closed_loop",
    "run_coupled",
    "write_ensemble_csv",
]

PATH_CHUNK = 8192
# OpenBLAS runs a matrix product on more than one thread once m * n * k
# exceeds 10^6 (timed with OpenBLAS 0.3.31); `_chunk_length` keeps every
# per-step product of `_run_chunk` at or under it
BLAS_SERIAL_MNK = 1_000_000
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
        if not math.isfinite(self.T / self.dt):
            raise ValueError(
                f"T/dt must be finite, got T={self.T}, dt={self.dt}")
        if _whole_steps(self.T, self.dt) is None:
            raise ValueError(f"dt={self.dt} does not divide T={self.T}")
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def n_steps(self) -> int:
        return _whole_steps(self.T, self.dt)


@dataclass(frozen=True)
class EnsembleStats:
    """Nodewise moments and cost of the optimal ensemble, and the gap
    series of the coupled pair."""

    mesh: np.ndarray
    mean_X: np.ndarray
    mean_u: np.ndarray
    second_moment_X: np.ndarray
    second_moment_u: np.ndarray
    cost_estimate: float
    cost_stderr: float
    gap_X: np.ndarray
    gap_u: np.ndarray
    gap_Y: np.ndarray
    gap_Z: np.ndarray


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
    raw_optimal: RawPaths
    raw_turnpike: RawPaths


_philox = threading.local()


def brownian_increments(seed: int, chunk: int, step: int,
                        count: int, dt: float) -> np.ndarray:
    """Normal increments of variance dt at a fixed (seed, chunk, step)
    address, independent of scheduling: Philox key [seed, 0], counter
    [0, 0, chunk, step].

    Each thread keeps one generator and resets its whole state to the
    address on every call, so the draws equal those of a generator
    freshly built there."""
    try:
        bitgen, gen = _philox.pair
    except AttributeError:
        bitgen = np.random.Philox(0)
        gen = np.random.Generator(bitgen)
        _philox.pair = bitgen, gen
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, chunk, step],
                  "key": [seed & 0xFFFFFFFFFFFFFFFF, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    return gen.standard_normal(count) * math.sqrt(dt)


def propagate_mean(problem: ProblemData, path: FeedbackPath,
                   x0: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """Mean of the shifted closed-loop state, m(t) = E[X_T(t) - x*].

    RK4 forward on the path mesh for
    dm/dt = [Ahat + Bhat ThetaHat_T(t)] m + Bhat thetaHat_T(t), with the
    gains read from the feedback path's half-step stacks.
    """
    hats = problem.hats
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    x_star = np.asarray(x_star, dtype=float).reshape(problem.n)
    K = len(path.mesh) - 1
    Acl = hats.Ahat + np.einsum("im,kmn->kin", hats.Bhat, path.ThetaHat_half)
    return _rk4_linear(Acl, path.thetaHat_half @ hats.Bhat.T,
                       x0 - x_star, path.T / K, K)


def _affine(K1, Gd, Gs, h):
    """The map (Xt - Xs, Xs) -> Gd (Xt - Xs) + Gs Xs + h at every node,
    as one stack [Gd | Gs | h] of shape (K+1, r, 2n + 1) acting on
    (Xt - Xs, Xs, 1).  Blocks may be per-node stacks or constant."""
    n = np.shape(Gd)[-1]
    G = np.empty((K1, np.shape(h)[-1], 2 * n + 1))
    G[..., :n], G[..., n:-1], G[..., -1] = Gd, Gs, h
    return G


@dataclass(frozen=True)
class ClosedLoop:
    """Per-node coefficients of the coupled pair on one horizon, built
    by `closed_loop`; every matrix acts on v = (Xt - Xs, Xs, 1)."""

    m_t: np.ndarray
    F: np.ndarray
    G: np.ndarray
    maps: dict
    snap: np.ndarray
    cost_W: np.ndarray


def closed_loop(feedback: Feedback, x0, T: float, dt: float) -> ClosedLoop:
    """The coupled pair's coefficients on the horizon T cut from the
    feedback's march, from X(0) = x0: the mean m_t of `propagate_mean`
    and the per-node matrices below.  Raises ValueError unless dt is the
    march's step and T a whole number of them in it (`_whole_steps`).

    The Euler step of v = (Xt - Xs, Xs, 1) is v <- F_k v + (G_k v) dW with

        F_k = [[I + dt Acl_k, dt B dTheta_k, dt dconst_k],
               [0,            I + dt Atp,    0          ],
               [0,            0,             1          ]],
        G_k = [[Ccl_k, D dTheta_k, c0_k  ],
               [0,     Ctp,        sigma*],
               [0,     0,          0     ]],

    with dTheta_k = Theta_T(t_k) - Theta, so Acl_k - Atp and Ccl_k - Ctp
    carry no cancellation error where the gain has converged.  `maps`
    holds each observable as one [G | h] of `_affine`: the states and
    controls of both ensembles (original variables) and the four gaps;
    `snap` stacks the four state and control maps.  The optimal
    trapezoid-weighted running cost at node k is v' W_k v (`cost_W`),
    with W_k = G'M G plus G'l on the last row and column for the optimal
    (X, u) rows G, M = [[Q, S'], [S, R]] and l = (q, r).
    """
    problem, are, static = feedback.problem, feedback.are, feedback.static
    march = feedback.march
    h = march.T / (len(march.mesh) - 1)
    if _whole_steps(dt, h) != 1:
        raise ValueError(f"simulation step dt={dt} does not match "
                         f"the Riccati march step {h}")
    K = _whole_steps(T, dt)
    path = march._tail(T, K)
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    n, m = problem.n, problem.m
    K1 = K + 1
    hats = problem.hats
    A, B, C, D = problem.A, problem.B, problem.C, problem.D
    Th, ThH = path.Theta_of_t, path.ThetaHat_half[::2]
    off = path.thetaHat_half[::2]                        # (K+1, m)
    P_t, Pi_t = path.P_of_t, path.Pi_of_t
    x_star, u_star = static.x_star, static.u_star
    sig = static.sigma_star
    Acl = A + np.einsum("im,kmn->kin", B, Th)            # (K+1, n, n)
    Ccl = C + np.einsum("im,kmn->kin", D, Th)
    AclHat = hats.Ahat + np.einsum("im,kmn->kin", hats.Bhat, ThH)
    CclHat = hats.Chat + np.einsum("im,kmn->kin", hats.Dhat, ThH)
    dconst = np.einsum("kij,kj->ki", AclHat - Acl, m_t) + off @ hats.Bhat.T
    c0 = np.einsum("kij,kj->ki", CclHat - Ccl, m_t) + off @ hats.Dhat.T
    uconst = np.einsum("kij,kj->ki", ThH - Th, m_t) + off
    dTh = Th - are.Theta
    Atp, Ctp = A + B @ are.Theta, C + D @ are.Theta
    I, O = np.eye(n), np.zeros((n, n))

    F = np.zeros((K1, 2 * n + 1, 2 * n + 1))
    F[:, :n] = _affine(K1, I + dt * Acl, dt * (B @ dTh), dt * dconst)
    F[:, n:-1] = _affine(K1, O, I + dt * Atp, np.zeros(n))
    F[:, -1, -1] = 1.0
    G = np.zeros_like(F)
    G[:, :n] = _affine(K1, Ccl, D @ dTh, c0)
    G[:, n:-1] = _affine(K1, O, Ctp, sig)

    # feedback-form adjoints: Y = P_T (Xt - m) + Pi_T m + phiHat + lam,
    # Z = P_T (Ccl Xt + c0 + sigma*), against Y* = P Xs + lam and
    # Z* = P (Ctp Xs + sigma*); the Xs and constant parts of the
    # differences are formed from P_T - P and Theta_T - Theta, which
    # vanish mid-horizon, so they carry no cancellation error
    PC = P_t @ Ccl
    dP = P_t - are.P
    Yc = np.einsum("kij,kj->ki", Pi_t - P_t, m_t) + path.phiHat_of_t
    maps = {
        "X_opt": _affine(K1, I, I, x_star),
        "u_opt": _affine(K1, Th, Th, uconst + u_star),
        "X_tp": _affine(K1, O, I, x_star),
        "u_tp": _affine(K1, np.zeros((m, n)), are.Theta, u_star),
        "gap_X": _affine(K1, I, O, np.zeros(n)),
        "gap_u": _affine(K1, Th, dTh, uconst),
        "gap_Y": _affine(K1, P_t, dP, Yc),
        "gap_Z": _affine(K1, PC, dP @ Ccl + are.P @ D @ dTh,
                         np.einsum("kij,kj->ki", P_t, c0) + dP @ sig),
    }
    snap = np.concatenate(
        [maps[name] for name in ("X_opt", "u_opt", "X_tp", "u_tp")], axis=1)

    w = np.full(K1, dt)
    w[0] = w[-1] = 0.5 * dt
    Mq = np.block([[problem.Q, problem.S.T], [problem.S, problem.R]])
    lq = np.concatenate([problem.q, problem.r])
    Gc = snap[:, :n + m]                                 # optimal (X, u) rows
    W = Gc.mT @ Mq @ Gc
    lin = lq @ Gc
    W[:, -1, :] += lin
    W[:, :, -1] += lin
    return ClosedLoop(m_t=m_t, F=F, G=G, maps=maps, snap=snap,
                      cost_W=w[:, None, None] * W)


def _node_series(G, S):
    """Path sums of G v and of |G v|^2 at every node from the path sums
    S = sum_p v_p v_p' of the homogeneous states v = (Xt - Xs, Xs, 1),
    whose last column holds the sums of v: sum_p |G v_p|^2 = tr(G S G')."""
    return (np.einsum("kij,kj->ki", G, S[..., -1]),
            (G @ S * G).sum(axis=(1, 2)))


def _mean_cost_series(problem, mean_X, mean_u):
    """Nodewise cost contribution of the mean-interaction blocks."""
    return (np.einsum("ki,ij,kj->k", mean_X, problem.Qbar, mean_X)
            + 2.0 * np.einsum("km,mj,kj->k", mean_u, problem.Sbar, mean_X)
            + np.einsum("km,mj,kj->k", mean_u, problem.Rbar, mean_u))


def _check_finite(X, finite, chunk_lo, step):
    """Raise on the first non-finite entry of X, naming its path;
    `finite` is a boolean work buffer of X's shape."""
    if not np.isfinite(X, out=finite).all():
        bad = np.argwhere(~finite)
        path_idx = chunk_lo + int(bad[0][-1])
        raise NumericalFailure(
            f"non-finite state at path {path_idx}, step {step}")


def _run_chunk(cl, config, chunk_idx, lo, hi, snaps, snap_idx):
    """Simulate paths [lo, hi) of both ensembles through all steps,
    writing their snapshots into the columns lo:hi of `snaps`.

    Per node: the path sums S of v v', one quadratic form for the
    optimal cost and, on the snapshot nodes, the snapshot rows; then one
    Euler step v <- F v + (G v) dW.  Every (., L) buffer is allocated
    once, before the loop, and written in place.  Returns the per-node
    path sums S, of shape (K+1, r, r) for the r = 2n + 1 rows of v, and
    the per-path optimal costs, of shape (L,).
    """
    K = config.n_steps
    dt = config.dt
    L = hi - lo
    r = cl.F.shape[-1]
    S = np.empty((K + 1, r, r))
    cost = np.zeros(L)
    own_snaps = snaps[:, :, lo:hi]
    v = np.zeros((r, L))
    v[:r // 2] = cl.m_t[0][:, None]    # Xt - Xs starts at x0 - x*, Xs at 0
    v[-1] = 1.0
    v_next = np.empty((r, L))
    # numpy sends v @ v.T to BLAS syrk, which OpenBLAS runs three to six
    # times slower than gemm when r is small against L; between steps the
    # noise buffer holds a copy of v, and v times that copy is a gemm
    noise = v.copy()
    q = np.empty((r, L))
    q_sum = np.empty(L)
    finite = np.empty((r, L), dtype=bool)
    snap_pos = {k: i for i, k in enumerate(snap_idx)}

    for k in range(K + 1):
        np.matmul(v, noise.T, out=S[k])
        np.matmul(cl.cost_W[k], v, out=q)
        q *= v
        cost += np.sum(q, axis=0, out=q_sum)
        snap = snap_pos.get(k)
        if snap is not None:
            np.matmul(cl.snap[k], v, out=own_snaps[snap])
        if k == K:
            break
        dW = brownian_increments(config.seed, chunk_idx, k, L, dt)
        np.matmul(cl.G[k], v, out=noise)
        noise *= dW
        np.matmul(cl.F[k], v, out=v_next)
        v_next += noise
        v, v_next = v_next, v
        np.copyto(noise, v)
        if (k + 1) % FINITE_CHECK_EVERY == 0 or k + 1 == K:
            _check_finite(v, finite, lo, k + 1)
    return S, cost


def _snapshot_indices(K):
    stride = max(1, K // SNAPSHOT_TARGET)
    idx = list(range(0, K + 1, stride))
    if idx[-1] != K:
        idx.append(K)
    return np.array(idx, dtype=int)


def _chunk_length(n, m):
    """Paths per chunk: PATH_CHUNK, or fewer where a per-step product of
    `_run_chunk` would pass BLAS_SERIAL_MNK.  With r = 2n + 1 rows of the
    state, the largest products are (r x r) @ (r x L) and the
    (2(n + m) x r) @ (r x L) snapshot rows."""
    r = 2 * n + 1
    return max(1, min(PATH_CHUNK,
                      BLAS_SERIAL_MNK // max(r * r, 2 * (n + m) * r)))


def run_coupled(feedback: Feedback, x0,
                config: SimulationConfig) -> CoupledResult:
    """Lockstep simulation of both ensembles with shared increments, on
    the closed loop of horizon config.T (`closed_loop`).

    Gap series (state, control, and reconstructed adjoints) are computed
    at full time resolution: the chunks' path sums of v = (Xt - Xs, Xs)
    are added in chunk order and every node series follows from them
    (see the module docstring).  Raises ValueError unless config.T is a
    node of the march and config.dt its step.
    """
    problem = feedback.problem
    cl = closed_loop(feedback, x0, config.T, config.dt)
    K = config.n_steps
    N = config.n_paths
    snap_idx = _snapshot_indices(K)
    chunk = _chunk_length(problem.n, problem.m)
    ranges = [(c, lo, min(lo + chunk, N))
              for c, lo in enumerate(range(0, N, chunk))]
    # one buffer for the whole run; each chunk fills its own columns
    snaps = np.empty((len(snap_idx), cl.snap.shape[1], N))

    with ThreadPoolExecutor(min(config.workers, len(ranges))) as pool:
        sums, costs = zip(*pool.map(
            lambda r: _run_chunk(cl, config, *r, snaps, snap_idx), ranges))

    mesh = np.linspace(0.0, config.T, K + 1)
    S = sum(sums)
    sum_X, sq_X = _node_series(cl.maps["X_opt"], S)
    sum_u, sq_u = _node_series(cl.maps["u_opt"], S)
    mean_X, mean_u = sum_X / N, sum_u / N
    cost = (np.concatenate(costs)
            + np.trapezoid(_mean_cost_series(problem, mean_X, mean_u), mesh))
    stderr = float(np.std(cost, ddof=1)) / math.sqrt(N) if N > 1 else 0.0
    optimal = EnsembleStats(
        mesh=mesh, mean_X=mean_X, mean_u=mean_u,
        second_moment_X=sq_X / N, second_moment_u=sq_u / N,
        cost_estimate=float(np.mean(cost)), cost_stderr=stderr,
        **{name: _node_series(cl.maps[name], S)[1] / N
           for name in ("gap_X", "gap_u", "gap_Y", "gap_Z")})
    n, m = problem.n, problem.m
    raw_opt, raw_tp = (
        RawPaths(mesh=mesh[snap_idx], indices=snap_idx,
                 X=snaps[:, lo:lo + n], u=snaps[:, lo + n:lo + n + m])
        for lo in (0, n + m))
    return CoupledResult(optimal=optimal, raw_optimal=raw_opt,
                         raw_turnpike=raw_tp)


def write_ensemble_csv(stats: EnsembleStats, fh, header_comments=()) -> None:
    for line in header_comments:
        fh.write(f"# {line}\n")
    n = stats.mean_X.shape[1]
    cols = [f"meanX{i}" for i in range(n)]
    header = ["t"] + cols + ["m2X", "m2u"]
    series = [stats.mesh] + [stats.mean_X[:, i] for i in range(n)] \
        + [stats.second_moment_X, stats.second_moment_u]
    for name in ("gap_X", "gap_u", "gap_Y", "gap_Z"):
        header.append(name.replace("_", ""))
        series.append(getattr(stats, name))
    fh.write(",".join(header) + "\n")
    for row in np.column_stack(series).tolist():
        fh.write(",".join(map(repr, row)) + "\n")
