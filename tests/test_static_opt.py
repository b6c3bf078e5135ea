import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import null_space

from mflq import (
    MflqError,
    NumericalFailure,
    evaluate_F,
    make_problem,
    solve_are,
    solve_static,
    validate_assumption_a1,
)
from mflq import static_opt

from conftest import random_problem
from paper_checks import kkt_residual

SQRT2 = math.sqrt(2.0)


def test_static_scalar_with_drift(sp2):
    are = solve_are(sp2)
    sol = solve_static(sp2, are.P)
    assert sol.x_star[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.u_star[0] == pytest.approx(-0.5, abs=1e-12)
    assert sol.lambda_star[0] == pytest.approx(0.5, abs=1e-12)
    assert sol.V == pytest.approx(0.5 + 0.25 * (SQRT2 - 1.0), abs=1e-12)
    assert sol.sigma_star[0] == pytest.approx(0.5, abs=1e-12)


def test_static_mean_coupled_with_drift(spmf_b):
    are = solve_are(spmf_b)
    sol = solve_static(spmf_b, are.P)
    assert sol.x_star[0] == pytest.approx(0.4, abs=1e-12)
    assert sol.u_star[0] == pytest.approx(-0.8, abs=1e-12)
    assert sol.lambda_star[0] == pytest.approx(0.8, abs=1e-12)
    assert sol.V == pytest.approx(0.8, abs=1e-12)


def test_zero_data_gives_zero_solution(sp1):
    are = solve_are(sp1)
    sol = solve_static(sp1, are.P)
    assert sol.x_star[0] == pytest.approx(0.0, abs=1e-14)
    assert sol.u_star[0] == pytest.approx(0.0, abs=1e-14)
    assert sol.V == pytest.approx(0.0, abs=1e-14)


def test_kkt_residual_small(sp2, spmf_b, random_2x2):
    for p in (sp2, spmf_b, random_2x2):
        are = solve_are(p)
        sol = solve_static(p, are.P)
        assert max(kkt_residual(p, are.P, sol)) <= 1e-10


def test_feasible_perturbations_never_beat_V(sp2):
    are = solve_are(sp2)
    sol = solve_static(sp2, are.P)
    # feasible directions solve Ahat dx + Bhat du = 0; here du = dx
    rng = np.random.default_rng(3)
    for _ in range(200):
        t = rng.uniform(-2.0, 2.0)
        val = evaluate_F(sp2, are.P, sol.x_star + t, sol.u_star + t)
        assert val >= sol.V - 1e-12


# entries bounded away from zero, so every block of random_problem is
# nonzero
_NONZERO = st.floats(-1.0, -0.01) | st.floats(0.01, 1.0)


@st.composite
def _problems_and_directions(draw):
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def G(shape):
        return draw(hnp.arrays(np.float64, shape, elements=_NONZERO))
    coeffs = draw(hnp.arrays(np.float64, (20, n + m),
                             elements=st.floats(-3.0, 3.0)))
    return random_problem(n, m, G), coeffs


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(_problems_and_directions())
def test_feasible_perturbations_never_beat_V_on_random_problems(drawn):
    # (x* + dx, u* + du) with Ahat dx + Bhat du = 0 stays feasible, and
    # the static cost is convex on the feasible set
    p, coeffs = drawn
    assume(not validate_assumption_a1(p))
    try:
        are = solve_are(p)
        sol = solve_static(p, are.P)
    except MflqError:
        assume(False)
    h = p.hats
    basis = null_space(np.hstack([h.Ahat, h.Bhat]))      # (n + m, >= m)
    tol = 1e-10 * max(1.0, abs(sol.V))
    for c in coeffs[:, :basis.shape[1]]:
        d = basis @ c
        val = evaluate_F(p, are.P, sol.x_star + d[:p.n], sol.u_star + d[p.n:])
        assert val >= sol.V - tol


@pytest.mark.parametrize("A, Q, R, b", [
    (-1.0, 1e6, 1.0, 1e3), (10.0, 1e8, 1.0, 1e3),
    (0.1, 1e4, 1e4, 1e5), (-1.0, 1e4, 1e6, 1e5)])
def test_kkt_certificate_holds_on_stiff_scalar_problems(A, Q, R, b):
    # large weights make max|M| large; on the last two problems the
    # rounding residual of the solve is about 1e-7, above KKT_RESIDUAL_TOL
    # in absolute terms, so the certificate must be relative
    p = make_problem(1, 1, A=[[A]], B=[[1.0]], Q=[[Q]], R=[[R]],
                     b=[b], sigma=[0.5])
    sol = solve_static(p, solve_are(p).P)
    assert A * sol.x_star[0] + sol.u_star[0] + b == pytest.approx(
        0.0, abs=1e-12 * b)


def test_kkt_certificate_rejects_a_perturbed_solve(sp2, monkeypatch):
    are = solve_are(sp2)
    solve = np.linalg.solve
    monkeypatch.setattr(static_opt.np.linalg, "solve",
                        lambda M, rhs: solve(M, rhs) + 1e-6)
    with pytest.raises(NumericalFailure, match="KKT residual"):
        solve_static(sp2, are.P)


def test_degenerate_problem_raises():
    # no control authority on the mean system and b != 0
    p = make_problem(1, 1, Q=[[1.0]], R=[[1.0]], b=[1.0])
    with pytest.raises(NumericalFailure, match="static problem degenerate"):
        solve_static(p, np.array([[1.0]]))


def test_solve_static_checks_P_shape(sp2):
    with pytest.raises(ValueError, match="P must be"):
        solve_static(sp2, np.eye(2))


def test_evaluate_F_matches_quadratic(sp2):
    # at x = u = 0 only the diffusion term survives
    P = np.array([[2.0]])
    assert evaluate_F(sp2, P, [0.0], [0.0]) == pytest.approx(
        2.0 * 0.25)
    assert evaluate_F(sp2, P, [1.0], [2.0]) == pytest.approx(
        1.0 + 4.0 + 2.0 * 0.25)
