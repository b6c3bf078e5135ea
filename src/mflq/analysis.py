"""Post-processing: exponential decay fits, turnpike averages, value
convergence, matrix-inequality spot checks, and composite reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import model, riccati, simulate, static_opt
from .model import HatCoefficients, ProblemData, assemble_hats

__all__ = [
    "DecayFit",
    "ValueRow",
    "fit_turnpike_decay",
    "integral_turnpike",
    "value_convergence",
    "matrix_contraction_check",
    "block_psd_check",
    "lemma_suite",
    "turnpike_pipeline",
]

LOG_FLOOR = 1e-14
PSD_CHECK_TOL = 1e-10
MIN_WINDOW_NODES = 5

TOLERANCES = {
    "symmetry": model.SYMMETRY_TOL,
    "positive_definite": riccati.PD_TOL,
    "are_residual": riccati.RESIDUAL_TOL,
    "are_stationarity": riccati.NEWTON_TOL,
    "psd_order": riccati.PSD_ORDER_TOL,
    "kkt_residual": static_opt.KKT_RESIDUAL_TOL,
    "kkt_rcond": static_opt.KKT_RCOND_TOL,
    "log_floor": LOG_FLOOR,
}


@dataclass(frozen=True)
class DecayFit:
    K: float
    lam: float
    r_squared: float
    window: tuple


@dataclass(frozen=True)
class ValueRow:
    T: float
    estimate_over_T: float
    stderr_over_T: float
    V: float
    difference: float
    avg_gap: float


def _log_linear(x, g, window):
    """Least squares of log g against x on the window; returns a DecayFit
    with amplitude exp(intercept) and rate -slope."""
    lo, hi = window
    mask = (x >= lo - 1e-12) & (x <= hi + 1e-12)
    if np.count_nonzero(mask) < MIN_WINDOW_NODES:
        raise ValueError("window too sparse")
    xs = x[mask]
    gs = np.asarray(g, dtype=float)[mask]
    floored = gs < LOG_FLOOR
    ys = np.log(np.maximum(gs, LOG_FLOOR))
    slope, intercept = np.polyfit(xs, ys, 1)
    # R^2 over the non-floored nodes only
    keep = ~floored
    if np.count_nonzero(keep) >= 2:
        resid = ys[keep] - (slope * xs[keep] + intercept)
        total = ys[keep] - np.mean(ys[keep])
        sst = float(total @ total)
        r2 = 1.0 - float(resid @ resid) / sst if sst > 0 else 0.0
    else:
        r2 = 0.0
    r2 = min(1.0, max(0.0, r2))
    return DecayFit(K=float(math.exp(intercept)), lam=float(-slope),
                    r_squared=r2, window=(float(lo), float(hi)))


def fit_turnpike_decay(series, T: float, mesh=None):
    """Two-sided exponential fit of a nonnegative gap series.

    The left fit regresses log g(t) on t over [0.05T, 0.45T]; the right
    fit regresses log g(t) on (T - t) over [0.55T, 0.95T].  Values
    below 1e-14 are floored before the log and excluded from R^2.
    Returns (left, right) DecayFits.
    """
    series = np.asarray(series, dtype=float)
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    if np.any(series < 0):
        raise ValueError("gap series must be nonnegative")
    if mesh is None:
        mesh = np.linspace(0.0, T, len(series))
    else:
        mesh = np.asarray(mesh, dtype=float)
    left = _log_linear(mesh, series, (0.05 * T, 0.45 * T))
    right_mask = (mesh >= 0.55 * T - 1e-12) & (mesh <= 0.95 * T + 1e-12)
    if np.count_nonzero(right_mask) < MIN_WINDOW_NODES:
        raise ValueError("window too sparse")
    right = _log_linear(T - mesh[right_mask], series[right_mask],
                        (0.05 * T, 0.45 * T))
    return left, right


def integral_turnpike(series, T: float, mesh=None) -> float:
    """Time average (1/T) integral of the series by trapezoid."""
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
    series = np.asarray(series, dtype=float)
    if mesh is None:
        mesh = np.linspace(0.0, T, len(series))
    return float(np.trapezoid(series, mesh) / T)


def value_convergence(problem: ProblemData, x0, horizons,
                      config: simulate.SimulationConfig):
    """Long-run average cost against the static value V, plus the
    time-averaged coupled gap, per horizon: one Feedback, marched to the
    longest horizon, serves them all.  Returns a list of ValueRow in the
    order of `horizons`.
    """
    horizons = [float(T) for T in horizons]
    longest = dc_replace(config, T=max(horizons))
    feedback = riccati.solve_feedback(problem, longest.T, longest.n_steps)
    V = feedback.static.V
    rows = []
    for T in horizons:
        res = simulate.run_coupled(feedback, x0, dc_replace(config, T=T))
        gap = res.optimal.gap_X + res.optimal.gap_u
        rows.append(ValueRow(
            T=T,
            estimate_over_T=res.optimal.cost_estimate / T,
            stderr_over_T=res.optimal.cost_stderr / T,
            V=V,
            difference=res.optimal.cost_estimate / T - V,
            avg_gap=integral_turnpike(gap, T, res.optimal.mesh),
        ))
        # release this horizon's ensembles before the next run
        del res
    return rows


def matrix_contraction_check(M: np.ndarray, K: np.ndarray):
    """Check M (K + M'M)^{-1} M' <= I for positive definite K.

    Returns (holds, max eigenvalue of the product).
    """
    M = np.atleast_2d(np.asarray(M, dtype=float))
    K = np.atleast_2d(np.asarray(K, dtype=float))
    if np.min(np.linalg.eigvalsh(0.5 * (K + K.T))) <= 0:
        raise ValueError("K must be positive definite")
    G = M @ np.linalg.solve(K + M.T @ M, M.T)
    top = float(np.max(np.linalg.eigvalsh(0.5 * (G + G.T))))
    return top <= 1.0 + PSD_CHECK_TOL, top


def block_psd_check(hats: HatCoefficients, Delta: np.ndarray):
    """Check positive semidefiniteness of the weighting block

        [[Chat' Delta Chat + Qhat,  Chat' Delta Dhat],
         [Dhat' Delta Chat,         Rhat + Dhat' Delta Dhat]]

    for a PSD Delta, together with its Schur-complement form.  Returns
    (holds, min eigenvalue of the block matrix).
    """
    Delta = np.atleast_2d(np.asarray(Delta, dtype=float))
    Delta = 0.5 * (Delta + Delta.T)
    if np.min(np.linalg.eigvalsh(Delta)) < -1e-12:
        raise ValueError("Delta must be positive semidefinite")
    top_left = hats.Chat.T @ Delta @ hats.Chat + hats.Qhat
    off = hats.Chat.T @ Delta @ hats.Dhat
    bottom = hats.Rhat + hats.Dhat.T @ Delta @ hats.Dhat
    block = np.block([[top_left, off], [off.T, bottom]])
    low = float(np.min(np.linalg.eigvalsh(0.5 * (block + block.T))))
    schur = top_left - off @ np.linalg.solve(bottom, off.T)
    schur_low = float(np.min(np.linalg.eigvalsh(0.5 * (schur + schur.T))))
    holds = low >= -PSD_CHECK_TOL and schur_low >= -PSD_CHECK_TOL
    return holds, low


def lemma_suite(trials: int = 1000, seed: int = 42, max_size: int = 6):
    """Randomized trials of both matrix lemmas; returns pass counts."""
    rng = np.random.default_rng(seed)
    contraction_pass = 0
    block_pass = 0
    for _ in range(trials):
        n = int(rng.integers(1, max_size + 1))
        m = int(rng.integers(1, max_size + 1))
        M = rng.standard_normal((n, m))
        L = rng.standard_normal((m, m))
        K = L.T @ L + 1e-6 * np.eye(m)
        ok, _ = matrix_contraction_check(M, K)
        contraction_pass += ok
    for _ in range(trials):
        n = int(rng.integers(1, max_size + 1))
        m = int(rng.integers(1, max_size + 1))
        GQ = rng.standard_normal((n, n))
        GR = rng.standard_normal((m, m))
        hats = HatCoefficients(
            Ahat=rng.standard_normal((n, n)),
            Bhat=rng.standard_normal((n, m)),
            Chat=rng.standard_normal((n, n)),
            Dhat=rng.standard_normal((n, m)),
            Qhat=GQ.T @ GQ + 0.1 * np.eye(n),
            Shat=np.zeros((m, n)),
            Rhat=GR.T @ GR + 0.1 * np.eye(m),
        )
        GD = rng.standard_normal((n, n))
        Delta = GD.T @ GD
        ok, _ = block_psd_check(hats, Delta)
        block_pass += ok
    return {"trials": trials, "contraction_pass": int(contraction_pass),
            "block_psd_pass": int(block_pass)}


def _thin(series, indices):
    return np.asarray(series)[indices].tolist()


def turnpike_pipeline(problem: ProblemData, x0, T: float,
                      config: simulate.SimulationConfig):
    """Run the full pipeline at one horizon.

    Returns (report, coupled_result): the JSON-ready composite report
    (Riccati convergence, static solution, gap series with decay fits,
    adjoint gaps, value row) and the full-resolution ensemble statistics.
    """
    x0 = np.asarray(x0, dtype=float).reshape(problem.n)
    cfg = dc_replace(config, T=float(T))
    feedback = riccati.solve_feedback(problem, T, cfg.n_steps)
    are, static = feedback.are, feedback.static
    profile = riccati.convergence_profile(feedback.path(T), are)
    res = simulate.run_coupled(feedback, x0, cfg)
    stats = res.optimal
    gap = stats.gap_X + stats.gap_u
    adjoint_gap = stats.gap_Y + stats.gap_Z
    trivial = max(
        np.max(np.abs(problem.b), initial=0.0),
        np.max(np.abs(problem.sigma), initial=0.0),
        np.max(np.abs(problem.q), initial=0.0),
        np.max(np.abs(problem.r), initial=0.0),
        np.max(np.abs(x0), initial=0.0),
    ) == 0.0
    fits = {}
    if not trivial:
        left, right = fit_turnpike_decay(gap, T, stats.mesh)
        fits = {
            "left": {"K": left.K, "lambda": left.lam,
                     "r_squared": left.r_squared, "window": left.window},
            "right": {"K": right.K, "lambda": right.lam,
                      "r_squared": right.r_squared, "window": right.window},
        }
    idx = res.raw_optimal.indices
    mid = len(stats.mesh) // 2
    report = {
        "schema": 3,
        "horizon": float(T),
        "trivial_problem": bool(trivial),
        "tolerances": dict(TOLERANCES),
        "config": {"T": cfg.T, "dt": cfg.dt, "n_paths": cfg.n_paths,
                   "seed": cfg.seed},
        "riccati": {
            "residual_P": are.residual_P,
            "residual_Pi": are.residual_Pi,
            "P": are.P.tolist(),
            "Pi": are.Pi.tolist(),
            "Theta": are.Theta.tolist(),
            "ThetaHat": are.ThetaHat.tolist(),
            "profile_t": _thin(profile[:, 0], idx),
            "profile_err_P": _thin(profile[:, 1], idx),
            "profile_err_Pi": _thin(profile[:, 2], idx),
        },
        "static": {
            "x_star": static.x_star.tolist(),
            "u_star": static.u_star.tolist(),
            "lambda_star": static.lambda_star.tolist(),
            "sigma_star": static.sigma_star.tolist(),
            "V": static.V,
        },
        "gaps": {
            "t": _thin(stats.mesh, idx),
            "gap_X": _thin(stats.gap_X, idx),
            "gap_u": _thin(stats.gap_u, idx),
            "gap_Y": _thin(stats.gap_Y, idx),
            "gap_Z": _thin(stats.gap_Z, idx),
            "midpoint_gap": float(gap[mid]),
            "midpoint_adjoint_gap": float(adjoint_gap[mid]),
            "avg_gap": integral_turnpike(gap, T, stats.mesh),
            "decay_fits": fits,
        },
        "value": {
            "estimate_over_T": stats.cost_estimate / T,
            "stderr_over_T": stats.cost_stderr / T,
            "V": static.V,
            "difference": stats.cost_estimate / T - static.V,
        },
    }
    return report, res
