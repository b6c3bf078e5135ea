"""Post-processing: exponential decay fits, turnpike averages, value
convergence, matrix-inequality spot checks, and composite reports."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace as dc_replace

import numpy as np

from . import model, riccati, simulate, static_opt
from .model import HatCoefficients, ProblemData

__all__ = [
    "DecayFit",
    "ValueRow",
    "fit_turnpike_decay",
    "integral_turnpike",
    "value_convergence",
    "record",
    "matrix_contraction_check",
    "block_psd_check",
    "lemma_suite",
    "turnpike_pipeline",
]

LOG_FLOOR = 1e-14
MIN_WINDOW_NODES = 5
LEMMA_MAX_SIZE = 6
# the turnpike report's series are thinned to about this many nodes
REPORT_NODES = 200

TOLERANCES = {
    "symmetry": model.SYMMETRY_TOL,
    "positive_definite": model.PD_TOL,
    "inversion": riccati.INVERSION_TOL,
    "are_residual": riccati.RESIDUAL_TOL,
    "are_stationarity": riccati.NEWTON_TOL,
    "rk4_step_margin": riccati.RK4_STEP_MARGIN,
    "march_step_rho": riccati.MARCH_STEP_RHO,
    "march_tol": riccati.MARCH_TOL,
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


def record(obj) -> dict:
    """A result record (ArePair, StaticSolution, ValueRow) as its JSON
    object: one entry per field, arrays as nested lists, a complex array
    (ArePair's spectra) as a list of [re, im] pairs."""
    def plain(v):
        if np.iscomplexobj(v):
            v = np.stack([v.real, v.imag], axis=-1)
        return v.tolist() if isinstance(v, np.ndarray) else v
    return {f.name: plain(getattr(obj, f.name)) for f in fields(obj)}


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


def fit_turnpike_decay(series, T: float, mesh):
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
    mesh = np.asarray(mesh, dtype=float)
    window = (0.05 * T, 0.45 * T)
    return (_log_linear(mesh, series, window),
            _log_linear(T - mesh, series, window))


def integral_turnpike(series, T: float, mesh) -> float:
    """Time average (1/T) integral of the series by trapezoid."""
    if T <= 0:
        raise ValueError(f"T must be positive, got {T}")
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
    rows = []
    for T in horizons:
        res = simulate.run_coupled(feedback, x0, dc_replace(config, T=T))
        rows.append(_value_row(T, res.optimal, feedback.static.V))
        # release this horizon's ensembles before the next run
        del res
    return rows


def _value_row(T, stats: simulate.EnsembleStats, V: float) -> ValueRow:
    """The optimal ensemble's average cost over [0, T] against the
    static value V, and its time-averaged gap to the turnpike."""
    return ValueRow(
        T=T,
        estimate_over_T=stats.cost_estimate / T,
        stderr_over_T=stats.cost_stderr / T,
        V=V,
        difference=stats.cost_estimate / T - V,
        avg_gap=integral_turnpike(stats.gap_X + stats.gap_u, T, stats.mesh),
    )


def matrix_contraction_check(M: np.ndarray, K: np.ndarray):
    """Check M (K + M'M)^{-1} M' <= I for positive definite K.

    Returns (holds, max eigenvalue of the product).
    """
    M = model.exact_shape("M", M, (None, None))
    K = model.exact_shape("K", K, (M.shape[1],) * 2)
    if np.min(np.linalg.eigvalsh(0.5 * (K + K.T))) <= 0:
        raise ValueError("K must be positive definite")
    G = M @ np.linalg.solve(K + M.T @ M, M.T)
    top = float(np.max(np.linalg.eigvalsh(0.5 * (G + G.T))))
    return top <= 1.0 + model.PD_TOL, top


def block_psd_check(hats: HatCoefficients, Delta: np.ndarray):
    """Check positive semidefiniteness of the weighting block

        [[Chat' Delta Chat + Qhat,  Chat' Delta Dhat],
         [Dhat' Delta Chat,         Rhat + Dhat' Delta Dhat]]

    for a PSD Delta, together with its Schur-complement form.  Returns
    (holds, min eigenvalue of the block matrix).
    """
    Delta = model.exact_shape("Delta", Delta, (len(hats.Chat),) * 2)
    Delta = 0.5 * (Delta + Delta.T)
    if np.min(np.linalg.eigvalsh(Delta)) < -model.PD_TOL:
        raise ValueError("Delta must be positive semidefinite")
    top_left = hats.Chat.T @ Delta @ hats.Chat + hats.Qhat
    off = hats.Chat.T @ Delta @ hats.Dhat
    bottom = hats.Rhat + hats.Dhat.T @ Delta @ hats.Dhat
    block = np.block([[top_left, off], [off.T, bottom]])
    low = float(np.min(np.linalg.eigvalsh(0.5 * (block + block.T))))
    schur = top_left - off @ np.linalg.solve(bottom, off.T)
    schur_low = float(np.min(np.linalg.eigvalsh(0.5 * (schur + schur.T))))
    holds = low >= -model.PD_TOL and schur_low >= -model.PD_TOL
    return holds, low


def lemma_suite(trials: int = 1000, seed: int = 42):
    """Randomized trials of both matrix lemmas, on blocks of 1 to
    LEMMA_MAX_SIZE rows and columns; returns pass counts."""
    rng = np.random.default_rng(seed)
    contraction_pass = 0
    block_pass = 0
    for _ in range(trials):
        n = int(rng.integers(1, LEMMA_MAX_SIZE + 1))
        m = int(rng.integers(1, LEMMA_MAX_SIZE + 1))
        M = rng.standard_normal((n, m))
        L = rng.standard_normal((m, m))
        K = L.T @ L + 1e-6 * np.eye(m)
        ok, _ = matrix_contraction_check(M, K)
        contraction_pass += ok
    for _ in range(trials):
        n = int(rng.integers(1, LEMMA_MAX_SIZE + 1))
        m = int(rng.integers(1, LEMMA_MAX_SIZE + 1))
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


def _report_indices(K):
    """The nodes of a K-step mesh that the turnpike report keeps: every
    (K // REPORT_NODES)-th node, and the last."""
    stride = max(1, K // REPORT_NODES)
    idx = list(range(0, K + 1, stride))
    if idx[-1] != K:
        idx.append(K)
    return np.array(idx, dtype=int)


def _thin(series, indices):
    return np.asarray(series)[indices].tolist()


def turnpike_pipeline(problem: ProblemData, x0,
                      config: simulate.SimulationConfig):
    """Run the full pipeline at the horizon config.T.

    Returns (report, coupled_result): the JSON-ready composite report
    (Riccati convergence, static solution, gap series with decay fits,
    adjoint gaps, value row) and the full-resolution ensemble statistics.
    """
    x0 = model.exact_shape("x0", x0, (problem.n,))
    T = float(config.T)
    feedback = riccati.solve_feedback(problem, T, config.n_steps)
    are, static = feedback.are, feedback.static
    profile = riccati.convergence_profile(feedback.path(T), are)
    res = simulate.run_coupled(feedback, x0, config)
    stats = res.optimal
    gap = stats.gap_X + stats.gap_u
    adjoint_gap = stats.gap_Y + stats.gap_Z
    # no offset, noise or linear cost, from x0 = 0: every gap is zero
    trivial = not any(np.any(v) for v in (problem.b, problem.sigma,
                                          problem.q, problem.r, x0))
    fits = {} if trivial else {
        side: {"K": fit.K, "lambda": fit.lam, "r_squared": fit.r_squared,
               "window": fit.window}
        for side, fit in zip(("left", "right"),
                             fit_turnpike_decay(gap, T, stats.mesh))}
    idx = _report_indices(len(stats.mesh) - 1)
    mid = len(stats.mesh) // 2
    value = record(_value_row(T, stats, static.V))
    del value["T"]
    avg_gap = value.pop("avg_gap")
    report = {
        "schema": 6,
        "horizon": T,
        "trivial_problem": bool(trivial),
        "tolerances": dict(TOLERANCES),
        "config": {"T": T, "dt": config.dt, "n_paths": config.n_paths,
                   "seed": config.seed, "increments": simulate.INCREMENTS},
        "riccati": {
            **record(are),
            "march_step": feedback.march_step,
            "march_steps": round(T / feedback.march_step),
            "march_error_estimate": feedback.march_error_estimate,
            "profile_t": _thin(profile[:, 0], idx),
            "profile_err_P": _thin(profile[:, 1], idx),
            "profile_err_Pi": _thin(profile[:, 2], idx),
        },
        "static": record(static),
        "gaps": {
            "t": _thin(stats.mesh, idx),
            "gap_X": _thin(stats.gap_X, idx),
            "gap_u": _thin(stats.gap_u, idx),
            "gap_Y": _thin(stats.gap_Y, idx),
            "gap_Z": _thin(stats.gap_Z, idx),
            "midpoint_gap": float(gap[mid]),
            "midpoint_adjoint_gap": float(adjoint_gap[mid]),
            "avg_gap": avg_gap,
            "decay_fits": fits,
        },
        "value": value,
    }
    return report, res
