"""Reference solutions computed without mflq, and their self-test.

Besides scipy's CARE solver, which workloads.py calls directly, every
number the benchmark checks mflq against comes from here: `solve_ivp` of
the stochastic Riccati ODE run to stationarity, a null-space solve of
the static problem, `solve_bvp` of the deterministic LQ problem that the
mean solves when C = D = 0, and the exact stationary moments of the
Euler-Maruyama chain.  Problems are
plain dicts in the CLI's config schema.

Run `python3 perfbench/oracles.py` to check these oracles against the
scalar closed forms (sp1, sp2); `run.py` runs the same self-test before
it measures anything.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, linalg

SQRT2 = math.sqrt(2.0)

_SHAPES = {"A": "nn", "Abar": "nn", "C": "nn", "Cbar": "nn", "Q": "nn",
           "Qbar": "nn", "B": "nm", "Bbar": "nm", "D": "nm", "Dbar": "nm",
           "S": "mn", "Sbar": "mn", "R": "mm", "Rbar": "mm",
           "b": "n", "sigma": "n", "q": "n", "r": "m"}


def blocks(doc: dict) -> dict:
    """Config problem dict -> dict of float arrays, zeros where omitted,
    plus the hat sums (`Ahat` = A + Abar, ...)."""
    size = {"n": int(doc["n"]), "m": int(doc["m"])}
    out = {}
    for name, code in _SHAPES.items():
        shape = tuple(size[c] for c in code)
        out[name] = (np.asarray(doc[name], dtype=float).reshape(shape)
                     if name in doc else np.zeros(shape))
    for name in ("A", "B", "C", "D", "Q", "S", "R"):
        out[name + "hat"] = out[name] + out[name + "bar"]
    out["n"], out["m"] = size["n"], size["m"]
    return out


def admissible(p: dict) -> bool:
    """A1 (R, Rhat and both Schur complements positive definite) and
    stabilizability of (Ahat, Bhat) by the Hautus test."""
    for R, Q, S in ((p["R"], p["Q"], p["S"]),
                    (p["Rhat"], p["Qhat"], p["Shat"])):
        if np.min(np.linalg.eigvalsh(R)) <= 0:
            return False
        schur = Q - S.T @ np.linalg.solve(R, S)
        if np.min(np.linalg.eigvalsh(0.5 * (schur + schur.T))) <= 0:
            return False
    n = p["n"]
    for lam in np.linalg.eigvals(p["Ahat"]):
        if lam.real >= 0:
            pbh = np.hstack([lam * np.eye(n) - p["Ahat"], p["Bhat"]])
            if np.linalg.matrix_rank(pbh) < n:
                return False
    return True


def gain(p: dict, P: np.ndarray) -> np.ndarray:
    """Theta = -(R + D'PD)^{-1} (B'P + D'PC + S)."""
    return -np.linalg.solve(p["R"] + p["D"].T @ P @ p["D"],
                            p["B"].T @ P + p["D"].T @ P @ p["C"] + p["S"])


def _riccati_rhs(p: dict, P: np.ndarray) -> np.ndarray:
    S = p["B"].T @ P + p["D"].T @ P @ p["C"] + p["S"]
    F = (P @ p["A"] + p["A"].T @ P + p["C"].T @ P @ p["C"] + p["Q"]
         - S.T @ np.linalg.solve(p["R"] + p["D"].T @ P @ p["D"], S))
    return 0.5 * (F + F.T)


def stationary_P(p: dict, tol: float = 1e-10, horizon: float = 20.0,
                 max_horizon: float = 2000.0) -> np.ndarray:
    """Stationary state weight of the stochastic Riccati ODE, by
    integrating dP/ds = Q(P) - S(P)'R(P)^{-1}S(P) from P = 0 with
    `solve_ivp` (DOP853) until the right-hand side is below `tol`."""
    n = p["n"]

    def rhs(_s, y):
        return _riccati_rhs(p, y.reshape(n, n)).ravel()
    y = np.zeros(n * n)
    s = 0.0
    while s < max_horizon:
        sol = integrate.solve_ivp(rhs, (s, s + horizon), y, method="DOP853",
                                  rtol=1e-12, atol=1e-14)
        if not sol.success:
            raise RuntimeError(f"solve_ivp failed: {sol.message}")
        y = sol.y[:, -1]
        s += horizon
        if np.max(np.abs(rhs(s, y))) < tol:
            P = y.reshape(n, n)
            return 0.5 * (P + P.T)
    raise RuntimeError(f"Riccati ODE not stationary by s = {max_horizon}")


def static_optimum(p: dict, P: np.ndarray) -> dict:
    """Minimize the static cost over {Ahat x + Bhat u + b = 0}.

    The constraint set is parametrized as z0 + N w with N a basis of the
    null space of [Ahat Bhat], and the reduced quadratic is minimized
    in w; the multiplier is not needed.  Returns x_star, u_star,
    sigma_star and V.
    """
    n, m = p["n"], p["m"]
    Ch, Dh, sig = p["Chat"], p["Dhat"], p["sigma"]
    H = np.block([[p["Qhat"] + Ch.T @ P @ Ch, (p["Shat"] + Dh.T @ P @ Ch).T],
                  [p["Shat"] + Dh.T @ P @ Ch, p["Rhat"] + Dh.T @ P @ Dh]])
    g = np.concatenate([p["q"] + Ch.T @ P @ sig, p["r"] + Dh.T @ P @ sig])
    E = np.hstack([p["Ahat"], p["Bhat"]])
    z0 = np.linalg.lstsq(E, -p["b"], rcond=None)[0]
    N = linalg.null_space(E)
    w = np.linalg.solve(N.T @ H @ N, -N.T @ (H @ z0 + g))
    z = z0 + N @ w
    x, u = z[:n], z[n:n + m]
    sigma_star = Ch @ x + Dh @ u + sig
    return {"x_star": x, "u_star": u, "sigma_star": sigma_star,
            "V": float(z @ H @ z + 2.0 * g @ z + sig @ P @ sig)}


def mean_path(p: dict, x0, T: float, t) -> np.ndarray:
    """E[X(t)] of the optimal finite-horizon control when C = D = 0 and
    S = 0, as the solution of the deterministic LQ problem in the hat
    coefficients: x' = Ahat x + Bhat u + b, u = -Rhat^{-1}(Bhat'y + r),
    y' = -(Qhat x + q + Ahat'y), x(0) = x0, y(T) = 0 (`solve_bvp`).
    Returns an array of shape (len(t), n)."""
    for name in ("C", "Cbar", "D", "Dbar", "S", "Sbar"):
        if np.any(p[name]):
            raise ValueError(f"mean_path needs {name} = 0")
    n = p["n"]
    A, B, Q = p["Ahat"], p["Bhat"], p["Qhat"]
    BRinv = B @ np.linalg.inv(p["Rhat"])
    x0 = np.asarray(x0, dtype=float)

    def rhs(_t, z):
        x, y = z[:n], z[n:]
        dx = A @ x - BRinv @ (B.T @ y + p["r"][:, None]) + p["b"][:, None]
        dy = -(Q @ x + p["q"][:, None] + A.T @ y)
        return np.vstack([dx, dy])

    def bc(za, zb):
        return np.concatenate([za[:n] - x0, zb[n:]])
    mesh = np.linspace(0.0, T, 401)
    sol = integrate.solve_bvp(rhs, bc, mesh, np.zeros((2 * n, mesh.size)),
                              tol=1e-10, max_nodes=100_000)
    if not sol.success:
        raise RuntimeError(f"solve_bvp failed: {sol.message}")
    return sol.sol(np.asarray(t, dtype=float))[:n].T


def _stationary_cov(Acl, Ccl, sig, dt=None):
    """Stationary covariance of the fluctuation Y of the closed loop,
    dY = Acl Y dt + (Ccl Y + sig) dW, exact (dt=None) or for its
    Euler-Maruyama chain with step dt."""
    n = Acl.shape[0]
    I = np.eye(n)
    SS = np.outer(sig, sig).ravel()
    if dt is None:
        L = np.kron(Acl, I) + np.kron(I, Acl) + np.kron(Ccl, Ccl)
        return np.linalg.solve(L, -SS).reshape(n, n)
    F = I + dt * Acl
    L = np.eye(n * n) - np.kron(F, F) - dt * np.kron(Ccl, Ccl)
    return np.linalg.solve(L, dt * SS).reshape(n, n)


def euler_value_shift(p: dict, P: np.ndarray, dt: float) -> float:
    """Long-run cost per unit time of the Euler-Maruyama chain at step dt
    minus that of the SDE (which is V), both under the stationary
    feedback.  The mean sits at x* in both, so only the fluctuation
    covariance differs: the shift is tr[W (Sigma_dt - Sigma)] with
    W = Q + Theta'S + S'Theta + Theta'R Theta."""
    Th = gain(p, P)
    st = static_optimum(p, P)
    Acl = p["A"] + p["B"] @ Th
    Ccl = p["C"] + p["D"] @ Th
    W = p["Q"] + Th.T @ p["S"] + p["S"].T @ Th + Th.T @ p["R"] @ Th
    diff = (_stationary_cov(Acl, Ccl, st["sigma_star"], dt)
            - _stationary_cov(Acl, Ccl, st["sigma_star"]))
    return float(np.trace(W @ diff))


# sp1: A=-1, B=Q=R=1; sp2 adds b=1, sigma=0.5 (the shipped demo problem)
SP1 = {"n": 1, "m": 1, "A": [[-1.0]], "B": [[1.0]], "Q": [[1.0]],
       "R": [[1.0]]}
SP2 = dict(SP1, b=[1.0], sigma=[0.5])


def self_test() -> None:
    """Check each oracle against the scalar closed forms; raise
    AssertionError on a miss."""
    golden = SQRT2 - 1.0
    for doc in (SP1, SP2):
        p = blocks(doc)
        P_care = linalg.solve_continuous_are(p["A"], p["B"], p["Q"],
                                             p["R"])[0, 0]
        P_ivp = stationary_P(p)[0, 0]
        assert abs(P_care - golden) < 1e-12, P_care
        assert abs(P_ivp - golden) < 1e-9, P_ivp
    p = blocks(SP2)
    st = static_optimum(p, np.array([[golden]]))
    assert abs(st["x_star"][0] - 0.5) < 1e-12
    assert abs(st["u_star"][0] + 0.5) < 1e-12
    assert abs(st["V"] - (0.5 + golden / 4.0)) < 1e-12
    # the stationary covariance reproduces V = static part + sigma'P sigma
    assert abs(euler_value_shift(p, np.array([[golden]]), 1e-7)) < 1e-6
    # sp1 mean path: x'' = 2x, x(0) = x0, x'(T) + x(T) = 0
    T, x0 = 3.0, 1.5
    t = np.linspace(0.0, T, 31)
    ch, sh = math.cosh(SQRT2 * T), math.sinh(SQRT2 * T)
    beta = -x0 * (SQRT2 * sh + ch) / (SQRT2 * ch + sh)
    exact = x0 * np.cosh(SQRT2 * t) + beta * np.sinh(SQRT2 * t)
    got = mean_path(blocks(SP1), [x0], T, t)[:, 0]
    assert np.max(np.abs(got - exact)) < 1e-7, np.max(np.abs(got - exact))


if __name__ == "__main__":
    self_test()
    print("oracle self-test passed")
