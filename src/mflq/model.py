"""Problem data, standing-assumption checks, and coefficient maps.

The controlled dynamics are

    dX = {A X + Abar E[X] + B u + Bbar E[u] + b} dt
       + {C X + Cbar E[X] + D u + Dbar E[u] + sigma} dW,

with a quadratic running cost weighted by (Q, S, R), the barred blocks
acting on the expectations, and linear terms (q, r).  Everything here is
constant-coefficient with a one-dimensional Brownian motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AssumptionViolation

SYMMETRY_TOL = 1e-12
PD_TOL = 1e-10    # the one definiteness tolerance, of every check

# every block's shape, one letter per axis
_SHAPES = {
    "A": "nn", "Abar": "nn", "C": "nn", "Cbar": "nn", "Q": "nn", "Qbar": "nn",
    "B": "nm", "Bbar": "nm", "D": "nm", "Dbar": "nm",
    "S": "mn", "Sbar": "mn",
    "R": "mm", "Rbar": "mm",
    "b": "n", "sigma": "n", "q": "n", "r": "m",
}
_SYMMETRIC_BLOCKS = ("Q", "Qbar", "R", "Rbar")


@dataclass(frozen=True)
class HatCoefficients:
    """Sums of unbarred and barred blocks; these drive the mean dynamics."""

    Ahat: np.ndarray
    Bhat: np.ndarray
    Chat: np.ndarray
    Dhat: np.ndarray
    Qhat: np.ndarray
    Shat: np.ndarray
    Rhat: np.ndarray


def _check_dimensions(n, m):
    if n < 1 or m < 1:
        raise ValueError(f"dimensions must be >= 1, got n={n}, m={m}")


def exact_shape(name, value, shape):
    """value as a float array of exactly `shape`, a tuple whose None
    entries take any length, never flattened or broadcast; ValueError
    naming the field `name` otherwise."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: expected numbers, got {value!r}") from exc
    if len(arr.shape) != len(shape) or any(
            want not in (None, got) for want, got in zip(shape, arr.shape)):
        raise ValueError(f"{name} must be of shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ProblemData:
    """All constant coefficients of the state equation and cost, and
    their hat blocks (computed once, not an init argument)."""

    n: int
    m: int
    A: np.ndarray
    Abar: np.ndarray
    B: np.ndarray
    Bbar: np.ndarray
    C: np.ndarray
    Cbar: np.ndarray
    D: np.ndarray
    Dbar: np.ndarray
    Q: np.ndarray
    Qbar: np.ndarray
    S: np.ndarray
    Sbar: np.ndarray
    R: np.ndarray
    Rbar: np.ndarray
    b: np.ndarray
    sigma: np.ndarray
    q: np.ndarray
    r: np.ndarray
    hats: HatCoefficients = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_dimensions(self.n, self.m)
        for name, code in _SHAPES.items():
            arr = exact_shape(name, getattr(self, name),
                              tuple(getattr(self, axis) for axis in code))
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} must be finite, got NaN or inf")
            object.__setattr__(self, name, arr)
        for name in _SYMMETRIC_BLOCKS:
            arr = getattr(self, name)
            if np.max(np.abs(arr - arr.T), initial=0.0) > SYMMETRY_TOL:
                raise ValueError(f"{name} must be symmetric to {SYMMETRY_TOL}")
        object.__setattr__(self, "hats", HatCoefficients(
            *(getattr(self, k) + getattr(self, k + "bar") for k in "ABCDQSR")))


def make_problem(n: int, m: int, **blocks) -> ProblemData:
    """Build a ProblemData, defaulting every omitted block to zero."""
    _check_dimensions(n, m)
    data, dims = {}, {"n": n, "m": m}
    for name, code in _SHAPES.items():
        val = blocks.pop(name, None)
        data[name] = np.zeros([dims[a] for a in code]) if val is None else val
    if blocks:
        raise ValueError(f"unknown problem blocks: {sorted(blocks)}")
    return ProblemData(n=n, m=m, **data)


def json_number(name, value, finite=True):
    """value as a float; ValueError naming the field `name` unless it is
    a JSON number (not a bool), finite unless `finite` is false."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or finite and not math.isfinite(value)):
        kind = "a finite number" if finite else "a number"
        raise ValueError(f"{name}: expected {kind}, got {value!r}")
    return float(value)


def json_integer(name, value):
    """value as an int; ValueError naming the field `name` unless it is
    an integral JSON number."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def problem_from_dict(doc: dict) -> ProblemData:
    """Ingest problem data from a plain dict (the JSON document schema).

    Required fields: ``n``, ``m``, integral numbers.  Coefficient blocks
    are row-major nested lists of numbers named exactly ``A, Abar, B,
    Bbar, C, Cbar, D, Dbar, Q, Qbar, S, Sbar, R, Rbar, b, sigma, q, r``;
    omitted blocks default to zero.  Raises ValueError naming the field
    for anything else.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {doc!r}")
    if "n" not in doc or "m" not in doc:
        raise ValueError("problem document must contain 'n' and 'm'")
    unknown = set(doc) - {*_SHAPES, "n", "m"}
    if unknown:
        raise ValueError(f"unknown problem fields: {sorted(unknown)}")
    n, m = json_integer("n", doc["n"]), json_integer("m", doc["m"])
    blocks = {k: doc[k] for k in _SHAPES if k in doc}
    for name, value in blocks.items():
        # non-finite entries are left to ProblemData, which names them
        for entry in np.asarray(value, dtype=object).flat:
            json_number(name, entry, finite=False)
    return make_problem(n, m, **blocks)


def _maps(A, B, C, D, Q, S, R, P, M):
    """Riccati maps of one system at (P, M), broadcasting over leading
    axes of the coefficient blocks as well as of P and M."""
    DtP = D.mT @ P
    return (M @ A + A.mT @ M + C.mT @ P @ C + Q, B.mT @ M + DtP @ C + S,
            R + DtP @ D)


def coefficient_maps(problem: ProblemData, P: np.ndarray):
    """(Q(P), S(P), R(P)) for P of shape (n, n) or a (k, n, n) stack."""
    return _maps(problem.A, problem.B, problem.C, problem.D,
                 problem.Q, problem.S, problem.R, P, P)


def hat_coefficient_maps(hats: HatCoefficients, P: np.ndarray, Pi: np.ndarray):
    """(Qhat(P, Pi), Shat(P, Pi), Rhat(P)), broadcasting like coefficient_maps."""
    return _maps(hats.Ahat, hats.Bhat, hats.Chat, hats.Dhat,
                 hats.Qhat, hats.Shat, hats.Rhat, P, Pi)


def validate_assumption_a1(problem: ProblemData) -> list[str]:
    """Check positive definiteness of R, Rhat and the Schur-reduced weights.

    Returns the failed conditions among R > 0, Rhat > 0,
    Q - S' R^{-1} S > 0 and Qhat - Shat' Rhat^{-1} Shat > 0, each judged
    by its minimum eigenvalue against PD_TOL; empty when A1 holds.
    Failures are reported, never raised.
    """
    h = problem.hats
    conditions = [("R ≻ 0", problem.R), ("R̂ ≻ 0", h.Rhat)]
    failures = []
    for name, M in conditions:
        if np.min(np.linalg.eigvalsh(M)) <= PD_TOL:
            failures.append(name)
    # Schur complements need invertible R blocks
    if not failures:
        schur = problem.Q - problem.S.T @ np.linalg.solve(problem.R, problem.S)
        schur_hat = h.Qhat - h.Shat.T @ np.linalg.solve(h.Rhat, h.Shat)
        for name, M in (
            ("Q − SᵀR⁻¹S ≻ 0", schur),
            ("Q̂ − ŜᵀR̂⁻¹Ŝ ≻ 0", schur_hat),
        ):
            if np.min(np.linalg.eigvalsh(0.5 * (M + M.T))) <= PD_TOL:
                failures.append(name)
    return failures


def require_a1(problem: ProblemData) -> None:
    failures = validate_assumption_a1(problem)
    if failures:
        raise AssumptionViolation(f"A1 violated: {', '.join(failures)}")


def check_mean_system_stabilizability(hats: HatCoefficients) -> list[complex]:
    """PBH-style eigenvector test for stabilizability of (Ahat, Bhat).

    For every eigenvalue of Ahat with nonnegative real part and left
    eigenvector v, the mode is controllable iff ||Bhat' v|| > PD_TOL.
    Returns the eigenvalues of the uncontrollable such modes; empty when
    (Ahat, Bhat) is stabilizable.
    """
    eigvals, left = np.linalg.eig(hats.Ahat.T)
    return [complex(lam) for lam, v in zip(eigvals, left.T)
            if lam.real >= 0 and np.linalg.norm(hats.Bhat.T @ v) <= PD_TOL]


def mean_square_generator(A_cl: np.ndarray, C_cl: np.ndarray) -> np.ndarray:
    """Second-moment generator (I kron A_cl) + (A_cl kron I) + (C_cl kron C_cl)."""
    n = A_cl.shape[0]
    eye = np.eye(n)
    return np.kron(eye, A_cl) + np.kron(A_cl, eye) + np.kron(C_cl, C_cl)
