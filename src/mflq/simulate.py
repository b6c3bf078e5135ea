"""Monte Carlo simulation of the finite-horizon closed loop against the
stationary turnpike process, with common-random-number coupling.

The finite-horizon optimal pair is simulated through its closed-loop
representation: with Xt = X - x* and mean m(t) = E[Xt] from a
deterministic ODE,

    u = Theta_T (Xt - m) + ThetaHat_T m + thetaHat_T + u*,

and the state follows the corresponding weak Euler recursion.  The
turnpike comparison process solves dX* = (A + B Theta) X* dt +
[(C + D Theta) X* + sigma*] dW from zero.  It is only the gaps'
reference: sharing the noise increments with it makes them directly
estimable, and none of its own statistics is reported.

`closed_loop` builds the per-node coefficients of the coupled pair once
per run, and `run_coupled` steps both ensembles in lockstep with them.
A chunk of L paths is one homogeneous state v = (Xt - Xs, Xs, 1) of
shape (2n + 1, L).  Every affine map of (Xt - Xs, Xs) is then one matrix
[G | h] acting on v, so each map of the run is one matrix per node.  One
Euler step of both ensembles is

    v <- F_k v + (G_k v) dW_k,

one matrix product with the stack [F_k; G_k] per step, where
F_k = I + dt T2 A2_k T2^-1 (plus the drift offsets in its last column)
and G_k = T2 C2_k T2^-1 (plus the noise offsets) are the
block-diagonal coefficients A2_k = diag(Acl_k, A + B Theta) and
C2_k = diag(Ccl_k, C + D Theta) of the stacked state Z = (Xt, Xs),
moved to v = T2 Z by T2 = [[I, -I], [0, I]].  The last row of F_k is
(0, ..., 0, 1) and that of G_k is zero, so the constant row stays 1
(and the product leaves G_k's last row out).
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
needs the per-path totals, summed over the rows of v once after the
loop), and the terminal record, one product with the stacked maps at
t = T after the loop.

Memory is allocated once.  The run holds one terminal record of shape
(1, 2(n + m), n_paths), the states and controls of both ensembles at
t = T; each chunk writes its columns in place, and `RawPaths.X` and
`.u` are views of it.  Each chunk allocates its (., L) work buffers
(v, the stacked product, the cost terms) before the step loop, and
every step writes into them, so the increments' draw is the only
per-step allocation of paths' size.

The increments dW_k are two-point, +-sqrt(dt) with equal odds: the
simplified weak Euler scheme of Kloeden and Platen (Numerical Solution
of SDEs, 1992, 14.1).  Every estimated series and the cost are
expectations linear in the chain's second moment, and for any increment
independent of v_k with E dW = 0 and E dW^2 = dt that moment follows

    S_{k+1} = F_k S_k F_k' + dt G_k S_k G_k',

so the expectations, and the weak order 1, are those of Gaussian
increments.  The per-path terminal states (`RawPaths`) are samples of
this weak scheme, not Brownian paths.  Each sign is one bit of a
counter-based generator: every increment has the fixed address (seed,
path-chunk, step), independent of scheduling or worker count.  The
chunk length depends on the problem's (n, m) alone: PATH_CHUNK = 8192
paths, fewer where a per-step product would pass BLAS's threading
threshold (`_chunk_length`; every problem with n <= 5 keeps 8192).
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
from .model import ProblemData, exact_shape
from .riccati import (Feedback, FeedbackPath, _check_euler_step, _closed,
                      _closed_loops, _rk4_linear, _whole_steps)

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
# the law and address of `brownian_increments`, as the reports name it
INCREMENTS = ("two-point +-sqrt(dt), Philox key [seed, 0], "
              "counter [0, 0, chunk, step]")
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
    """Per-path states and controls at the horizon's end: X is
    (1, n, n_paths) and u is (1, m, n_paths).  The leading axis is the
    one node t = T; it stays so that X.shape[2] is the path count, which
    perfbench/trace_child.py reads."""

    X: np.ndarray
    u: np.ndarray


@dataclass(frozen=True)
class CoupledResult:
    optimal: EnsembleStats
    raw_optimal: RawPaths
    raw_turnpike: RawPaths


_per_thread = threading.local()
# bit j of byte b, for every byte b: row b of the sign table
_BYTE_BITS = (np.arange(256, dtype=np.uint8)[:, None]
              >> np.arange(8, dtype=np.uint8)) & 1


def brownian_increments(seed: int, chunk: int, step: int,
                        count: int, dt: float) -> np.ndarray:
    """Two-point increments +-sqrt(dt), each sign one random bit, at a
    fixed (seed, chunk, step) address independent of scheduling: Philox
    key [seed, 0], counter [0, 0, chunk, step].  Bit i of the draw
    (little-endian through the 64-bit words of `random_raw`) gives
    increment i: +sqrt(dt) where it is set, -sqrt(dt) where it is not.

    The increments have mean 0 and variance dt, so every expectation of
    the Euler chain, which is linear in its second moment, is that of
    Gaussian increments: this is the simplified weak Euler scheme
    (Kloeden and Platen, Numerical Solution of SDEs, 1992, 14.1), of weak
    order 1.  Each thread keeps one generator and resets its whole state
    to the address on every call, so the draws equal those of a
    generator freshly built there.  It also keeps the 256 x 8 table of
    the signs each byte holds at its last dt, so each byte of the draw
    is read as 8 increments by one lookup."""
    try:
        bitgen = _per_thread.bitgen
    except AttributeError:
        bitgen = _per_thread.bitgen = np.random.Philox(0)
    bitgen.state = {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, chunk, step],
                  "key": [seed & 0xFFFFFFFFFFFFFFFF, 0]},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4,
        "has_uint32": 0, "uinteger": 0}
    words = bitgen.random_raw(-(-count // 64)).astype("<u8", copy=False)
    if getattr(_per_thread, "dt", None) != dt:
        s = math.sqrt(dt)
        _per_thread.signs = np.array([-s, s]).take(_BYTE_BITS)
        _per_thread.dt = dt
    signs = _per_thread.signs.take(words.view(np.uint8)[:-(-count // 8)],
                                   axis=0)
    return signs.reshape(-1)[:count]


def propagate_mean(problem: ProblemData, path: FeedbackPath,
                   x0: np.ndarray, x_star: np.ndarray) -> np.ndarray:
    """Mean of the shifted closed-loop state, m(t) = E[X_T(t) - x*].

    RK4 forward on the path mesh for
    dm/dt = [Ahat + Bhat ThetaHat_T(t)] m + Bhat thetaHat_T(t), with the
    gains read from the feedback path's half-step stacks.
    """
    x0 = exact_shape("x0", x0, (problem.n,))
    x_star = exact_shape("x_star", x_star, (problem.n,))
    K = len(path.mesh) - 1
    Acl = _closed(_closed_loops(problem)[2], path.ThetaHat_half)[0]
    return _rk4_linear(Acl, path.thetaHat_half @ problem.hats.Bhat.T,
                       x0 - x_star, path.T / K, K)


def _affine(K1, Gd, Gs, h):
    """The map (Xt - Xs, Xs) -> Gd (Xt - Xs) + Gs Xs + h at every node,
    as one stack [Gd | Gs | h] of shape (K+1, r, 2n + 1) acting on
    (Xt - Xs, Xs, 1).  Blocks may be per-node stacks or constant; a map
    whose blocks are all constant is one matrix, broadcast to the nodes
    as a read-only view."""
    n = np.shape(Gd)[-1]
    per_node = np.ndim(Gd) == 3 or np.ndim(Gs) == 3 or np.ndim(h) == 2
    G = np.empty((K1 if per_node else 1, np.shape(h)[-1], 2 * n + 1))
    G[..., :n], G[..., n:-1], G[..., -1] = Gd, Gs, h
    return np.broadcast_to(G, (K1, *G.shape[1:]))


@dataclass(frozen=True)
class ClosedLoop:
    """Per-node coefficients of the coupled pair on one horizon, built
    by `closed_loop`; every matrix acts on v = (Xt - Xs, Xs, 1).  FG is
    the per-node stack [F_k; G_k] of shape (K+1, 2r, r), and F and G are
    views of its halves."""

    m_t: np.ndarray
    FG: np.ndarray
    maps: dict
    snap: np.ndarray
    cost_W: np.ndarray

    @property
    def F(self) -> np.ndarray:
        return self.FG[:, :self.FG.shape[-1]]

    @property
    def G(self) -> np.ndarray:
        return self.FG[:, self.FG.shape[-1]:]


def closed_loop(feedback: Feedback, x0, T: float, dt: float) -> ClosedLoop:
    """The coupled pair's coefficients on the horizon T cut from the
    feedback's march in steps dt (`Feedback.path`), from X(0) = x0: the
    mean m_t of `propagate_mean` and the per-node matrices below.  Raises
    ValueError unless dt is the march's step and T a whole number of them
    in it (`_whole_steps`), and unless the Euler chain is stable at dt
    (`_check_euler_step`).

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
    `snap` stacks the four state and control maps at the terminal node,
    shape (2(n + m), r).  The optimal
    trapezoid-weighted running cost at node k is v' W_k v (`cost_W`),
    with W_k = G'M G plus G'l on the last row and column for the optimal
    (X, u) rows G, M = [[Q, S'], [S, R]] and l = (q, r).
    """
    problem, are, static = feedback.problem, feedback.are, feedback.static
    march = feedback.march
    h = march.T / (len(march.mesh) - 1)
    if _whole_steps(dt, h) != 1:
        raise ValueError(f"simulation step dt={dt} does not match "
                         f"the feedback path's step {h}")
    Atp, Ctp = _check_euler_step(problem, are, dt)
    path = feedback.path(T, dt)
    m_t = propagate_mean(problem, path, x0, static.x_star)
    n, m = problem.n, problem.m
    K1 = len(path.mesh)
    hats = problem.hats
    B, D = problem.B, problem.D
    loop_P, _, loop_mean = _closed_loops(problem)
    Th, ThH = path.Theta_of_t, path.ThetaHat_half[::2]
    off = path.thetaHat_half[::2]                        # (K+1, m)
    P_t, Pi_t = path.P_of_t, path.Pi_of_t
    x_star, u_star = static.x_star, static.u_star
    sig = static.sigma_star
    Acl, Ccl = _closed(loop_P, Th)                       # (K+1, n, n)
    AclHat, CclHat = _closed(loop_mean, ThH)
    dconst = np.einsum("kij,kj->ki", AclHat - Acl, m_t) + off @ hats.Bhat.T
    c0 = np.einsum("kij,kj->ki", CclHat - Ccl, m_t) + off @ hats.Dhat.T
    uconst = np.einsum("kij,kj->ki", ThH - Th, m_t) + off
    dTh = Th - are.Theta
    I, O = np.eye(n), np.zeros((n, n))

    r = 2 * n + 1
    FG = np.zeros((K1, 2 * r, r))
    F, G = FG[:, :r], FG[:, r:]
    F[:, :n] = _affine(K1, I + dt * Acl, dt * (B @ dTh), dt * dconst)
    F[:, n:-1] = _affine(K1, O, I + dt * Atp, np.zeros(n))
    F[:, -1, -1] = 1.0
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
        [maps[name][-1] for name in ("X_opt", "u_opt", "X_tp", "u_tp")])

    w = np.full(K1, dt)
    w[0] = w[-1] = 0.5 * dt
    Mq = np.block([[problem.Q, problem.S.T], [problem.S, problem.R]])
    lq = np.concatenate([problem.q, problem.r])
    Gc = np.concatenate([maps["X_opt"], maps["u_opt"]], axis=1)
    W = Gc.mT @ Mq @ Gc
    lin = lq @ Gc
    W[:, -1, :] += lin
    W[:, :, -1] += lin
    return ClosedLoop(m_t=m_t, FG=FG, maps=maps, snap=snap,
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


def _run_chunk(cl, config, chunk_idx, lo, hi, record):
    """Simulate paths [lo, hi) of both ensembles through all steps,
    writing their states and controls at t = T into the columns lo:hi
    of `record`, shape (2(n + m), n_paths).

    Per node: the path sums S of v v' and the terms of one quadratic
    form for the optimal cost; then one Euler step v <- F v + (G v) dW
    from one product with the stack [F; G] (G's zero last row left
    out).  After the loop, one product with `cl.snap` writes the
    terminal record.  Every (., L) buffer is allocated once, before the
    loop, and written in place.  Returns the per-node path sums S, of
    shape (K+1, r, r) for the r = 2n + 1 rows of v, and the per-path
    optimal costs, of shape (L,).
    """
    K = config.n_steps
    dt = config.dt
    L = hi - lo
    r = cl.FG.shape[-1]
    rows = 2 * r - 1
    FG = cl.FG[:, :rows]
    # the stacked product runs in its F and G halves where it would pass
    # BLAS's threading threshold, as from n = 4 in full chunks; there the
    # halves are also the faster path on one thread (README, Numerics)
    blocks = ((slice(0, rows),) if rows * r * L <= BLAS_SERIAL_MNK
              else (slice(0, r), slice(r, rows)))
    S = np.empty((K + 1, r, r))
    v = np.zeros((r, L))
    v[:r // 2] = cl.m_t[0][:, None]    # Xt - Xs starts at x0 - x*, Xs at 0
    v[-1] = 1.0
    # fg holds the stacked product of a step, whose first r rows are the
    # next v.  At the top of a step they hold a copy of v, since numpy
    # sends v @ v.T to BLAS syrk, which OpenBLAS runs three to six times
    # slower than gemm when r is small against L (v times a copy of v is
    # a gemm), and then the cost terms
    fg = np.empty((rows, L))
    head = fg[:r]
    head[:] = v
    cost = np.zeros((r, L))
    finite = np.empty((r, L), dtype=bool)

    for k in range(K + 1):
        np.matmul(v, head.T, out=S[k])
        np.matmul(cl.cost_W[k], v, out=head)
        head *= v
        cost += head
        if k == K:
            break
        dW = brownian_increments(config.seed, chunk_idx, k, L, dt)
        for b in blocks:
            np.matmul(FG[k, b], v, out=fg[b])
        # the head's last row is 1: F's last row is (0, ..., 0, 1)
        fg[r:] *= dW
        fg[:r - 1] += fg[r:]
        np.copyto(v, head)
        if (k + 1) % FINITE_CHECK_EVERY == 0 or k + 1 == K:
            _check_finite(v, finite, lo, k + 1)
    np.matmul(cl.snap, v, out=record[:, lo:hi])
    return S, cost.sum(axis=0)


def _chunk_length(n, m):
    """Paths per chunk: PATH_CHUNK, or fewer where a per-step product of
    `_run_chunk` would pass BLAS_SERIAL_MNK.  With r = 2n + 1 rows of the
    state, the largest per-step products are r x r x L: the path sums
    v v', the cost terms and the F half of the step product where the
    whole stack would pass it.  The terminal record's product runs once
    per chunk and does not size it, so m does not enter.  The length is
    part of every increment's address, so it stays a function of the
    problem's size alone."""
    r = 2 * n + 1
    return max(1, min(PATH_CHUNK, BLAS_SERIAL_MNK // (r * r)))


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
    chunk = _chunk_length(problem.n, problem.m)
    ranges = [(c, lo, min(lo + chunk, N))
              for c, lo in enumerate(range(0, N, chunk))]
    # one terminal record for the whole run; each chunk fills its columns
    record = np.empty((1, cl.snap.shape[0], N))

    with ThreadPoolExecutor(min(config.workers, len(ranges))) as pool:
        sums, costs = zip(*pool.map(
            lambda r: _run_chunk(cl, config, *r, record[0]), ranges))

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
        RawPaths(X=record[:, lo:lo + n], u=record[:, lo + n:lo + n + m])
        for lo in (0, n + m))
    return CoupledResult(optimal=optimal, raw_optimal=raw_opt,
                         raw_turnpike=raw_tp)


def _write_table(fh, header, rows, comments=()) -> None:
    """Write a CSV table to fh: one `# ` line per comment, the column
    names, then one line per row of Python floats, each as its repr."""
    for line in comments:
        fh.write(f"# {line}\n")
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(map(repr, row)) + "\n")


def write_ensemble_csv(stats: EnsembleStats, fh, header_comments=()) -> None:
    """Write the node series of `stats` as a CSV table (`_write_table`):
    t, the mean state, the second moments and the four gaps."""
    n = stats.mean_X.shape[1]
    header = ["t"] + [f"meanX{i}" for i in range(n)] + ["m2X", "m2u"]
    series = [stats.mesh, *stats.mean_X.T,
              stats.second_moment_X, stats.second_moment_u]
    for name in ("gap_X", "gap_u", "gap_Y", "gap_Z"):
        header.append(name.replace("_", ""))
        series.append(getattr(stats, name))
    _write_table(fh, header, np.column_stack(series).tolist(),
                 header_comments)
