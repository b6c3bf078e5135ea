"""Inputs of the three benchmark workloads.

Each workload is one `mflq` CLI command on a config file that this
module writes.  The benchmark seed only changes what the program must
compute, never how much: it is the Monte Carlo seed for the two
simulation workloads, and it picks a signed permutation of the state
coordinates for `are_slow`, which leaves every norm the solver tests,
and so its step count, unchanged.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np
from scipy.linalg import solve_continuous_are

import oracles
from oracles import SP2, SQRT2

# value_mimo_w2 problem: drawn once from this seed by mimo_problem()
MIMO_PROBLEM_SEED = 20220923


def _signed_permutation(n: int, seed: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    rng = np.random.default_rng(seed)
    perm = perms[int(rng.integers(len(perms)))]
    signs = rng.choice([-1.0, 1.0], size=n)
    U = np.zeros((n, n))
    for i, j in enumerate(perm):
        U[i, j] = signs[i]
    return U


def are_slow_problem(seed: int) -> dict:
    """n=2, m=1, C=D=0 problem with a mean coupling and a slow closed loop.

    In the base coordinates A is upper triangular with modes -0.05 and
    -0.08 and Q is small, so the stationary closed loops A + B Theta and
    Ahat + Bhat ThetaHat have their slowest modes near -0.17 and -0.15,
    and the march to stationarity in `solve_are` takes about 17,000 RK4
    steps.  The seed applies a signed permutation U of the state
    coordinates (A -> U A U', B -> U B, Q -> U Q U').
    """
    A = np.array([[-0.05, 0.2], [0.0, -0.08]])
    Abar = np.array([[0.02, 0.0], [0.01, 0.03]])
    B = np.array([[0.0], [1.0]])
    Bbar = np.array([[0.1], [0.0]])
    Q = np.diag([0.02, 0.04])
    Qbar = np.diag([0.01, 0.0])
    R = np.array([[1.0]])
    Rbar = np.array([[0.5]])
    U = _signed_permutation(2, seed)
    return {"n": 2, "m": 1,
            "A": (U @ A @ U.T).tolist(), "Abar": (U @ Abar @ U.T).tolist(),
            "B": (U @ B).tolist(), "Bbar": (U @ Bbar).tolist(),
            "Q": (U @ Q @ U.T).tolist(), "Qbar": (U @ Qbar @ U.T).tolist(),
            "R": R.tolist(), "Rbar": Rbar.tolist()}


def mimo_problem(seed: int = MIMO_PROBLEM_SEED) -> dict:
    """Random n=4, m=2 mean-field problem with every block nonzero.

    Recipe: with rng = numpy.random.default_rng(seed) and G(shape) a
    standard normal draw, in this order,
      A = -1.5 I + 0.3 G(4,4),   Abar = 0.2 G(4,4),
      B = G(4,2),                Bbar = 0.1 G(4,2),
      C = 0.15 G(4,4),           Cbar = 0.05 G(4,4),
      D = 0.1 G(4,2),            Dbar = 0.05 G(4,2),
      Q = I + M'M/4 (M = G(4,4)), Qbar = 0.1 N'N (N = G(4,4)),
      S = 0.1 G(2,4),            Sbar = 0.05 G(2,4),
      R = I + K'K/10 (K = G(2,2)), Rbar = 0.1 L'L (L = G(2,2)),
      b = 0.5 G(4), sigma = 0.3 G(4), q = 0.1 G(4), r = 0.1 G(2).
    The draw is used as is; `oracles.admissible` checks that it passes
    A1 and mean-system stabilizability.
    """
    rng = np.random.default_rng(seed)

    def G(*shape):
        return rng.standard_normal(shape)
    A = -1.5 * np.eye(4) + 0.3 * G(4, 4)
    Abar = 0.2 * G(4, 4)
    B = G(4, 2)
    Bbar = 0.1 * G(4, 2)
    C = 0.15 * G(4, 4)
    Cbar = 0.05 * G(4, 4)
    D = 0.1 * G(4, 2)
    Dbar = 0.05 * G(4, 2)
    M = G(4, 4)
    Q = np.eye(4) + M.T @ M / 4.0
    N = G(4, 4)
    Qbar = 0.1 * N.T @ N
    S = 0.1 * G(2, 4)
    Sbar = 0.05 * G(2, 4)
    K = G(2, 2)
    R = np.eye(2) + K.T @ K / 10.0
    L = G(2, 2)
    Rbar = 0.1 * L.T @ L
    doc = {"n": 4, "m": 2, "A": A, "Abar": Abar, "B": B, "Bbar": Bbar,
           "C": C, "Cbar": Cbar, "D": D, "Dbar": Dbar, "Q": Q, "Qbar": Qbar,
           "S": S, "Sbar": Sbar, "R": R, "Rbar": Rbar,
           "b": 0.5 * G(4), "sigma": 0.3 * G(4), "q": 0.1 * G(4),
           "r": 0.1 * G(2)}
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in doc.items()}


def _read_csv(path) -> dict:
    """Column name -> float array of a CSV artifact ('#' lines skipped)."""
    with open(path) as fh:
        lines = [ln.rstrip("\n").split(",") for ln in fh
                 if not ln.startswith("#")]
    columns = np.array(lines[1:], dtype=float).T
    return dict(zip(lines[0], columns))


def _close(got, want, tol) -> bool:
    return np.allclose(np.asarray(got, dtype=float), want, rtol=tol, atol=tol)


class TurnpikeSp2:
    """`mflq turnpike` on sp2 (T=10, x0=1.5, dt=5e-3, 4000 paths in one
    chunk, workers=1); the benchmark seed is the Monte Carlo seed."""

    command = "turnpike"
    # mflq adds both control offsets, theta + thetaHat, to the mean
    # control, so E[X] leaves the optimal mean path in the right boundary
    # layer (E[X](T) = 0.914 against 0.707 on every seed).  This check is
    # counted as a failed operation of its own, apart from the launch.
    known_faults = ("mean_path",)
    LAMBDA_RTOL = 0.01   # decay-fit rate against 2*sqrt(2)
    MEAN_Z = 5.0         # standard errors allowed on E[X](t)
    MEAN_DT_FACTOR = 1.0  # O(dt) allowance on E[X](t), in units of dt

    def config(self, seed):
        return {"problem": SP2, "T": 10.0, "x0": [1.5], "dt": 0.005,
                "n_paths": 4000, "seed": seed, "workers": 1}

    def prepare(self, doc):
        p = oracles.blocks(doc["problem"])
        t = np.linspace(0.0, doc["T"], int(round(doc["T"] / doc["dt"])) + 1)
        return {"t": t, "mean": oracles.mean_path(p, doc["x0"], doc["T"], t)}

    def check(self, outdir, doc, expect):
        misses = []
        with open(outdir / "turnpike_report.json") as fh:
            report = json.load(fh)
        for side, fit in sorted(report["gaps"]["decay_fits"].items()):
            if abs(fit["lambda"] / (2.0 * SQRT2) - 1.0) > self.LAMBDA_RTOL:
                misses.append(("decay_rate", f"{side} rate {fit['lambda']}"
                               f" is not 2*sqrt(2) within {self.LAMBDA_RTOL:%}"))
        golden = SQRT2 - 1.0
        closed = {("riccati", "P"): golden, ("riccati", "Pi"): golden,
                  ("static", "x_star"): 0.5, ("static", "u_star"): -0.5,
                  ("static", "lambda_star"): 0.5,
                  ("static", "V"): 0.5 + golden / 4.0}
        for (block, key), want in closed.items():
            if not _close(report[block][key], want, 1e-9):
                misses.append(("closed_forms", f"{block}.{key} = "
                               f"{report[block][key]}, closed form {want}"))
        cols = _read_csv(outdir / "ensemble.csv")
        t, mean, m2 = cols["t"], cols["meanX0"], cols["m2X"]
        if t.shape != expect["t"].shape or not np.allclose(t, expect["t"]):
            return misses + [("mean_path", "ensemble.csv mesh is not T/dt")]
        se = np.sqrt(np.maximum(m2 - mean ** 2, 0.0) / doc["n_paths"])
        allowed = self.MEAN_Z * se + self.MEAN_DT_FACTOR * doc["dt"]
        excess = np.abs(mean - expect["mean"][:, 0]) - allowed
        if np.max(excess) > 0:
            k = int(np.argmax(excess))
            misses.append(("mean_path", f"meanX at t={t[k]} is {mean[k]}, "
                           f"LQ oracle {expect['mean'][k, 0]} "
                           f"(allowed {allowed[k]:.3g})"))
        return misses


class AreSlow:
    """`mflq are` on a C = D = 0, n=2 problem whose stationary closed
    loops are slow, so `solve_are` marches for seconds; the seed picks
    the signed permutation of the coordinates."""

    command = "are"
    known_faults = ()
    RTOL = 1e-8

    def config(self, seed):
        return {"problem": are_slow_problem(seed)}

    def prepare(self, doc):
        p = oracles.blocks(doc["problem"])
        return {"p": p,
                "P": solve_continuous_are(p["A"], p["B"], p["Q"], p["R"]),
                "Pi": solve_continuous_are(p["Ahat"], p["Bhat"], p["Qhat"],
                                           p["Rhat"])}

    def check(self, outdir, doc, expect):
        misses = []
        with open(outdir / "are.json") as fh:
            are = json.load(fh)
        p = expect["p"]
        for key in ("P", "Pi"):
            if not _close(are[key], expect[key], self.RTOL):
                misses.append(("care", f"{key} = {are[key]}, scipy CARE "
                               f"{expect[key].tolist()}"))
        loops = {"A + B Theta": p["A"] + p["B"] @ np.array(are["Theta"]),
                 "Ahat + Bhat ThetaHat":
                     p["Ahat"] + p["Bhat"] @ np.array(are["ThetaHat"])}
        for name, M in loops.items():
            top = float(np.max(np.linalg.eigvals(M).real))
            if top >= 0:
                misses.append(("stabilizing",
                               f"{name} is not stable (abscissa {top})"))
        return misses


class ValueMimoW2:
    """`mflq value-convergence` on the seeded n=4, m=2 problem with every
    block nonzero, horizons 2, 4, 8, dt=0.04, two full path chunks and
    two workers; the benchmark seed is the Monte Carlo seed."""

    command = "value-convergence"
    known_faults = ()
    GAP_RTOL = 0.005    # T * avg_gap across the two longest horizons
    VALUE_Z = 3.0       # combined standard errors on T * difference
    V_RTOL = 1e-8

    def config(self, seed):
        return {"problem": mimo_problem(), "horizons": [2.0, 4.0, 8.0],
                "x0": [1.0, -1.0, 0.5, 0.0], "dt": 0.04, "n_paths": 16384,
                "seed": seed, "workers": 2}

    def prepare(self, doc):
        p = oracles.blocks(doc["problem"])
        if not oracles.admissible(p):
            raise RuntimeError("value_mimo_w2 problem fails A1 or "
                               "mean-system stabilizability")
        P = oracles.stationary_P(p)
        return {"V": oracles.static_optimum(p, P)["V"],
                "shift": oracles.euler_value_shift(p, P, doc["dt"])}

    def check(self, outdir, doc, expect):
        misses = []
        with open(outdir / "value_convergence.json") as fh:
            rows = json.load(fh)["rows"]
        for r in rows:
            if not _close(r["V"], expect["V"], self.V_RTOL):
                misses.append(("static_value", f"V = {r['V']} at "
                               f"T={r['T']}, oracle {expect['V']}"))
        a, b = rows[-2], rows[-1]
        ga, gb = a["T"] * a["avg_gap"], b["T"] * b["avg_gap"]
        if abs(gb / ga - 1.0) > self.GAP_RTOL:
            misses.append(("integral_turnpike", f"T*avg_gap {ga} at "
                           f"T={a['T']} and {gb} at T={b['T']} differ by "
                           f"more than {self.GAP_RTOL:%}"))
        # J_T - V T converges to a constant, up to the Euler chain's
        # known drift of `shift` per unit time
        drift = (b["T"] - a["T"]) * expect["shift"]
        step = b["T"] * b["difference"] - a["T"] * a["difference"] - drift
        se = math.hypot(a["T"] * a["stderr_over_T"], b["T"] * b["stderr_over_T"])
        if abs(step) > self.VALUE_Z * se:
            misses.append(("value_convergence", f"T*difference moves by "
                           f"{step} beyond the Euler drift between "
                           f"T={a['T']} and T={b['T']} "
                           f"(allowed {self.VALUE_Z} x {se})"))
        return misses


WORKLOADS = {"turnpike_sp2": TurnpikeSp2(), "are_slow": AreSlow(),
             "value_mimo_w2": ValueMimoW2()}


def write_config(path, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
