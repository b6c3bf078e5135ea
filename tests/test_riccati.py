import dataclasses
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import solve_ivp
from scipy.linalg import expm, solve_continuous_are

from mflq import (
    MflqError,
    NumericalFailure,
    convergence_profile,
    integrate_finite_horizon,
    make_problem,
    propagate_mean,
    solve_are,
    solve_feedback,
    validate_assumption_a1,
)
from mflq import riccati
from mflq.model import _maps, coefficient_maps, hat_coefficient_maps

from conftest import small_problems
from paper_checks import horizon_monotonicity_check, normalize_cross_terms

SQRT2 = math.sqrt(2.0)


def test_are_scalar_root(sp1):
    are = solve_are(sp1)
    # R P^2 + 2P - Q = 0 with A=-1: P = sqrt(2) - 1
    assert are.P[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    assert are.Pi[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)
    assert are.Theta[0, 0] == pytest.approx(1.0 - SQRT2, abs=1e-12)
    assert max(are.residual_P, are.residual_Pi) <= 1e-10


def test_are_mean_coupled_root(spmf):
    are = solve_are(spmf)
    # Pi^2 + Pi - 1 = 0 (Ahat = -1/2): Pi = (sqrt(5)-1)/2
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    assert are.Pi[0, 0] == pytest.approx(golden, abs=1e-12)
    assert are.ThetaHat[0, 0] == pytest.approx(-golden, abs=1e-12)
    # P is unaffected by the mean coupling
    assert are.P[0, 0] == pytest.approx(SQRT2 - 1.0, abs=1e-12)


def test_are_multiplicative_noise_root():
    # A = -2, C = 0.5: P solves P^2/(1) ... scalar oracle
    # -(B P)^2 / R + 2 A P + C^2 P + Q = 0 -> -P^2 - 3.75 P + 1 = 0
    p = make_problem(1, 1, A=[[-2.0]], B=[[1.0]], C=[[0.5]],
                     Q=[[1.0]], R=[[1.0]])
    are = solve_are(p)
    golden = (-3.75 + math.sqrt(3.75 ** 2 + 4.0)) / 2.0
    assert are.P[0, 0] == pytest.approx(golden, abs=1e-10)


def test_are_random_2x2_residual_and_pd(random_2x2):
    are = solve_are(random_2x2)
    assert max(are.residual_P, are.residual_Pi) <= 1e-10
    assert np.min(np.linalg.eigvalsh(are.P)) > 0
    assert np.min(np.linalg.eigvalsh(are.Pi)) > 0


def test_are_unstabilizable_raises():
    p = make_problem(1, 1, A=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(NumericalFailure, match="ARE divergence"):
        solve_are(p)


def _are_slow_style():
    """n=2, C = D = 0 problem with slow stationary closed loops."""
    return make_problem(
        2, 1, A=[[-0.05, 0.2], [0.0, -0.08]], Abar=[[0.02, 0.0], [0.01, 0.03]],
        B=[[0.0], [1.0]], Bbar=[[0.1], [0.0]], Q=np.diag([0.02, 0.04]),
        Qbar=np.diag([0.01, 0.0]), R=[[1.0]], Rbar=[[0.5]])


def test_are_matches_scipy_care_without_multiplicative_noise(random_2x2):
    # C = D = 0, with the noise moved to the mean blocks so that the Pi
    # equation carries the P-dependent weights of a CARE in (Ahat, Bhat)
    noisy_mean = dataclasses.replace(
        random_2x2, C=np.zeros((2, 2)), D=np.zeros((2, 2)),
        Cbar=random_2x2.C, Dbar=random_2x2.D)
    # the double integrator: the zero gain's abscissa is exactly 0
    double_integrator = make_problem(2, 1, A=[[0.0, 1.0], [0.0, 0.0]],
                                     B=[[0.0], [1.0]], Q=np.eye(2), R=[[1.0]])
    for p in (_are_slow_style(), noisy_mean, double_integrator):
        are = solve_are(p)
        P = solve_continuous_are(p.A, p.B, p.Q, p.R, s=p.S.T)
        Ah, Bh, Ch, Dh = p.A + p.Abar, p.B + p.Bbar, p.C + p.Cbar, p.D + p.Dbar
        Pi = solve_continuous_are(
            Ah, Bh, p.Q + p.Qbar + Ch.T @ P @ Ch, p.R + p.Rbar + Dh.T @ P @ Dh,
            s=(p.S + p.Sbar + Dh.T @ P @ Ch).T)
        assert np.max(np.abs(are.P - P)) <= 1e-10
        assert np.max(np.abs(are.Pi - Pi)) <= 1e-10


def test_are_slow_closed_loop_is_fast():
    # closed-loop pole near -0.014: the Riccati ODE reaches stationarity
    # only over a horizon of thousands of time units
    p = make_problem(1, 1, A=[[-0.01]], B=[[1.0]], Q=[[1e-4]], R=[[1.0]])
    start = time.perf_counter()
    are = solve_are(p)
    assert time.perf_counter() - start < 1.0
    # P^2 + 0.02 P - 1e-4 = 0
    assert are.P[0, 0] == pytest.approx(-0.01 + math.sqrt(2e-4), abs=1e-12)


def test_are_open_loop_unstable_root():
    # A = +1: the zero gain is not stabilizing, so the shift must run
    p = make_problem(1, 1, A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    are = solve_are(p)
    assert are.P[0, 0] == pytest.approx(1.0 + SQRT2, abs=1e-12)
    assert are.Pi[0, 0] == pytest.approx(1.0 + SQRT2, abs=1e-12)


def test_are_marches_no_riccati_ode(monkeypatch):
    # every march, nonlinear or linear, takes its steps in _rk4_step
    calls, step = [], riccati._rk4_step

    def counted(*args):
        calls.append(args)
        return step(*args)
    monkeypatch.setattr(riccati, "_rk4_step", counted)
    p = make_problem(1, 1, A=[[1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    solve_are(p)
    assert calls == []


def _assert_scalar_closed_form(A, Q):
    # B = R = 1 and no mean coupling: P = Pi = A + sqrt(A^2 + Q), scaled
    # by the closed loop's rate sqrt(A^2 + Q)
    p = make_problem(1, 1, A=[[A]], B=[[1.0]], Q=[[Q]], R=[[1.0]])
    are = solve_are(p)
    root, rate = A + math.sqrt(A * A + Q), math.sqrt(A * A + Q)
    assert abs(are.P[0, 0] - root) * 2.0 * rate <= 1e-12
    assert abs(are.Pi[0, 0] - root) * 2.0 * rate <= 1e-12


def test_are_slow_open_loop_unstable_root_in_bounded_time():
    # A = 0.001, Q = 1e-6: the finite-horizon gain first stabilizes at
    # s = T - t of about 623, so no short Riccati march reaches it
    start = time.perf_counter()
    _assert_scalar_closed_form(0.001, 1e-6)
    assert time.perf_counter() - start < 1.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.floats(-1e-3, 1e-3), st.floats(-8.0, -3.0))
def test_are_slow_scalar_family_matches_closed_form(A, log10_Q):
    _assert_scalar_closed_form(A, 10.0 ** log10_Q)


@pytest.mark.parametrize("A", [-1e-3, 1e-3, 0.1, 1.0, 10.0])
@pytest.mark.parametrize("Q", [1e6, 1e8])
def test_are_large_weight_scalar_matches_closed_form(A, Q):
    # |P| near 10^3 to 10^4: a residual's rounding floor is eps |P|^2,
    # far above an absolute 1e-10, so the Newton tolerances are relative
    p = make_problem(1, 1, A=[[A]], B=[[1.0]], Q=[[Q]], R=[[1.0]])
    are = solve_are(p)
    root = A + math.sqrt(A * A + Q)
    assert abs(are.P[0, 0] - root) <= 1e-12 * root
    assert abs(are.Pi[0, 0] - root) <= 1e-12 * root


@pytest.mark.parametrize("A, B, R", [
    (1.0, 1.0, 1e6), (1.0, 1e-3, 1.0), (10.0, 1.0, 1e6),
    (1.0, 1.0, 1e8), (10.0, 1.0, 1e7), (10.0, 1.0, 1e8)])
def test_are_large_solution_scalar_matches_closed_form(A, B, R):
    # |P| from 2e6 to 2e9 with Q = 1: the residual's terms 2AP + 1 and
    # (BP)^2 / R are far below |P|^2, so tolerances in units of |P|^2
    # certify a P off by 3e-8; and the shifted solutions approach P as
    # the shift goes to 0, so no absolute bound on them may stop the
    # continuation
    p = make_problem(1, 1, A=[[A]], B=[[B]], Q=[[1.0]], R=[[R]])
    are = solve_are(p)
    root = R * (A + math.sqrt(A * A + B * B / R)) / (B * B)
    assert abs(are.P[0, 0] - root) <= 1e-12 * root
    assert abs(are.Pi[0, 0] - root) <= 1e-12 * root


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("B, Q", [(1.0, 1e200), (1e200, 1.0)])
def test_are_nonfinite_residual_is_never_certified(B, Q):
    # the first Newton step overshoots, S'R^{-1}S overflows, and the
    # residual and its scale are both inf: an inf residual within
    # RESIDUAL_TOL * inf must not pass as converged (Q = 1e200 returned
    # P = 5e199, off the closed form -1 + sqrt(1 + 1e200) ~ 1e100)
    p = make_problem(1, 1, A=[[-1.0]], B=[[B]], Q=[[Q]], R=[[1.0]])
    with pytest.raises(NumericalFailure, match="residual not finite"):
        solve_are(p)


@pytest.mark.parametrize("a", [1.0, 0.0])
def test_are_unstabilizable_state_equation_diverges_in_bounded_time(a):
    # (Ahat, Bhat) = (a, 1) is stabilizable, (A, B) = (a, 0) is not: the
    # shift cannot reach 0, and P blows up as it nears a
    p = make_problem(1, 1, A=[[a]], Bbar=[[1.0]], Q=[[1.0]], R=[[1.0]])
    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match="ARE divergence"):
        solve_are(p)
    assert time.perf_counter() - start < 5.0


def test_are_mean_square_unstabilizable_diverges():
    # the control noise D u dW caps what a gain can do: 2A - (B/D)^2 = 1,
    # so no gain is mean-square stabilizing, and P grows until a shifted
    # solve cannot resolve it
    p = make_problem(1, 1, A=[[1.0]], B=[[1.0]], D=[[1.0]], Q=[[1.0]],
                     R=[[1.0]])
    start = time.perf_counter()
    with pytest.raises(NumericalFailure, match=r"ARE divergence \(check A2\)"):
        solve_are(p)
    assert time.perf_counter() - start < 1.0


def test_are_shift_step_cap(monkeypatch):
    # the slow problem needs several shifted solves before its gain
    # stabilizes; two are not enough
    monkeypatch.setattr(riccati, "SHIFT_MAX_STEPS", 2)
    p = make_problem(1, 1, A=[[0.001]], B=[[1.0]], Q=[[1e-6]], R=[[1.0]])
    with pytest.raises(NumericalFailure, match="ARE divergence"):
        solve_are(p)


def test_are_newton_iteration_cap(monkeypatch):
    monkeypatch.setattr(riccati, "NEWTON_MAX_ITER", 1)
    with pytest.raises(NumericalFailure, match="Newton iteration not converged"):
        solve_are(_are_slow_style())


@pytest.mark.parametrize("A, P, message", [
    (1.0, 0.1, "not stabilizing"),        # P > 0, closed loop A - P = 0.9
    (-1.0, -0.1, "not positive definite"),  # closed loop A - P = -0.9
], ids=["unstable-loop", "indefinite"])
def test_are_certificates_fire(monkeypatch, A, P, message):
    # forge what the unshifted Newton solve returns: the continuation
    # must refuse it, not return it
    newton = riccati._newton

    def forged(maps, generator, M, alpha=0.0):
        M, r = newton(maps, generator, M, alpha)
        return (np.array([[P]]), r) if alpha == 0.0 else (M, r)
    monkeypatch.setattr(riccati, "_newton", forged)
    p = make_problem(1, 1, A=[[A]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(NumericalFailure, match=message):
        solve_are(p)


def test_finite_horizon_terminal_and_symmetry(sp1):
    path = integrate_finite_horizon(sp1, 2.0, steps=200)
    assert np.array_equal(path.P_of_t[-1], np.zeros((1, 1)))
    assert np.array_equal(path.Pi_of_t[-1], np.zeros((1, 1)))
    assert path.mesh[0] == 0.0 and path.mesh[-1] == 2.0
    sym = np.max(np.abs(path.P_of_t - np.swapaxes(path.P_of_t, 1, 2)))
    assert sym <= 1e-12


def test_finite_horizon_converges_to_stationary(sp1):
    are = solve_are(sp1)
    path = integrate_finite_horizon(sp1, 10.0, steps=2000)
    assert abs(path.P_of_t[0, 0, 0] - are.P[0, 0]) < 1e-6
    assert abs(path.Pi_of_t[0, 0, 0] - are.Pi[0, 0]) < 1e-6


def _mean_at_T(p, steps):
    """propagate_mean at t = T = 1 from x0 = 1 on the solve_feedback
    path of `steps` intervals, so the order of the whole mean march shows:
    the Riccati nodes, the half-step gains and the RK4 march."""
    fb = solve_feedback(p, 1.0, steps)
    return propagate_mean(p, fb.march, [1.0], fb.static.x_star)[-1, 0]


def test_integration_order_at_least_3p5(sp1, spmf, spmf_b):
    for p in (sp1, spmf):
        ref = integrate_finite_horizon(p, 1.0, steps=512)
        coarse = integrate_finite_horizon(p, 1.0, steps=8)
        fine = integrate_finite_horizon(p, 1.0, steps=16)
        for attr in ("P_of_t", "Pi_of_t"):
            e_c = abs(getattr(coarse, attr)[0, 0, 0] - getattr(ref, attr)[0, 0, 0])
            e_f = abs(getattr(fine, attr)[0, 0, 0] - getattr(ref, attr)[0, 0, 0])
            assert math.log2(e_c / e_f) >= 3.5
    for p in (sp1, spmf, spmf_b):
        m_ref = _mean_at_T(p, 512)
        e_c = abs(_mean_at_T(p, 8) - m_ref)
        e_f = abs(_mean_at_T(p, 16) - m_ref)
        assert math.log2(e_c / e_f) >= 3.5


def test_finite_horizon_rejects_bad_inputs(sp1):
    with pytest.raises(ValueError, match="T must be positive"):
        integrate_finite_horizon(sp1, -1.0, steps=100)
    with pytest.raises(ValueError, match="steps must be positive"):
        integrate_finite_horizon(sp1, 1.0, steps=0)


def test_finite_horizon_singular_stage_R_raises(sp1, monkeypatch):
    # a singular R(P) at a stage makes the march non-finite: a
    # NumericalFailure, with no LinAlgError and no floating-point warning
    pair_maps = riccati._pair_maps

    def singular_R(problem):
        maps = pair_maps(problem)
        return lambda y: [*maps(y)[:2], np.zeros((2, 1, 1))]
    monkeypatch.setattr(riccati, "_pair_maps", singular_R)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalFailure,
                           match="Riccati inversion breakdown"):
            integrate_finite_horizon(sp1, 1.0, steps=10)


def _pair_blocks(problem):
    hats = problem.hats
    return [np.stack([getattr(problem, k), getattr(hats, k + "hat")])
            for k in "ABCDQSR"]


def test_stacked_maps_match_single_maps(random_2x2, all_blocks_4x2):
    rng = np.random.default_rng(3)
    for problem in (random_2x2, all_blocks_4x2):
        n = problem.n
        G, H = rng.standard_normal((2, n, n))
        P, Pi = G @ G.T, H @ H.T
        stacked = _maps(*_pair_blocks(problem), P, np.stack([P, Pi]))
        single = coefficient_maps(problem, P)
        hat = hat_coefficient_maps(problem.hats, P, Pi)
        for got, want_P, want_Pi in zip(stacked, single, hat):
            assert np.array_equal(got[0], want_P)
            assert np.array_equal(got[1], want_Pi)


@pytest.mark.parametrize("name", ["random_2x2", "all_blocks_4x2"])
def test_batched_rhs_march_is_bit_identical(request, name):
    # the joint march, whose stages read the coefficient maps off one
    # affine map of (P, Pi), against the same RK4 march with one
    # right-hand side call per equation: they agree to rounding
    problem = request.getfixturevalue(name)
    hats = problem.hats
    T, steps = 3.0, 600

    def rhs(j, c, y):
        return np.stack([
            riccati._riccati_rhs(coefficient_maps(problem, y[0])),
            riccati._riccati_rhs(hat_coefficient_maps(hats, y[0], y[1]))])
    pair = riccati._rk4(rhs, np.zeros((2, problem.n, problem.n)),
                        T / steps, steps)
    path = integrate_finite_horizon(problem, T, steps=steps)
    tol = 1e-14 * np.max(np.abs(pair[:, 0]))
    assert np.max(np.abs(path.P_of_t - pair[::-1, 0])) <= tol
    assert np.max(np.abs(path.Pi_of_t - pair[::-1, 1])) <= tol


def _linear_march(M, g, y0, h, steps):
    # generic RK4 on dy/ds = M y + g, the stage at (j, c) read from
    # entry 2j + 2c of the half-step stacks
    def f(j, c, y):
        i = 2 * j + int(2 * c)
        return M[i] @ y + g[i]
    return riccati._rk4(f, y0, h, steps)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rk4_linear_matches_generic_rk4(n):
    rng = np.random.default_rng(20 + n)
    steps, h = 50, 0.05
    M = 0.8 * rng.standard_normal((2 * steps + 1, n, n))
    g = rng.standard_normal((2 * steps + 1, n))
    y0 = rng.standard_normal(n)
    got = riccati._rk4_linear(M, g, y0, h, steps)
    want = _linear_march(M, g, y0, h, steps)
    assert got.shape == want.shape == (steps + 1, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("a, g", [
    (-2.5, 0.0), (1.3, 0.0), (-0.7, 2.0),
    pytest.param([[-1.0, 0.4], [-0.3, -2.0]], [0.5, -1.0], id="matrix2"),
    pytest.param([[-0.5, 1.2, 0.0], [-1.2, -0.5, 0.3], [0.2, 0.0, -1.5]],
                 [1.0, 0.0, -0.5], id="matrix3"),
])
def test_rk4_linear_scalar_amplification(a, g):
    # for dy/ds = M y + g with M constant the RK4 step multiplies
    # y - y*, y* = -M^{-1} g, by the amplification matrix
    # R(Z) = I + Z + Z^2/2 + Z^3/6 + Z^4/24, Z = h M
    M, g = np.atleast_2d(a), np.atleast_1d(g)
    n = len(g)
    steps, h, y0 = 40, 0.1, np.linspace(1.5, -0.5, n)
    Z = h * M
    Z2 = Z @ Z
    amp = np.eye(n) + Z + Z2 / 2.0 + Z2 @ Z / 6.0 + Z2 @ Z2 / 24.0
    ys = riccati._rk4_linear(np.broadcast_to(M, (2 * steps + 1, n, n)),
                             np.broadcast_to(g, (2 * steps + 1, n)),
                             y0, h, steps)
    fixed = -np.linalg.solve(M, g)
    want = np.array([fixed + np.linalg.matrix_power(amp, k) @ (y0 - fixed)
                     for k in range(steps + 1)])
    assert np.max(np.abs(ys - want)) <= 1e-13 * np.max(np.abs(want))


def test_hermite_half_is_exact_on_cubics():
    # a vector-valued cubic on a t mesh, slopes in s = T - t and the step
    # -h, as integrate_offsets passes them: the midpoints are exact
    T, K = 2.0, 8
    t = np.linspace(0.0, T, K + 1)
    c = np.array([[0.5, -1.0, 2.0], [1.0, 0.25, -0.5],
                  [-1.5, 0.75, 1.0], [0.5, -0.25, -0.75]])

    def cubic(t):
        return np.polynomial.polynomial.polyval(t, c).T

    def slope_s(t):
        return -np.polynomial.polynomial.polyval(
            t, np.polynomial.polynomial.polyder(c)).T
    h = T / K
    half = riccati._hermite_half(cubic(t), slope_s(t), -h)
    want = cubic(np.linspace(0.0, T, 2 * K + 1))
    assert half.shape == want.shape == (2 * K + 1, 3)
    assert np.max(np.abs(half - want)) <= 1e-14 * np.max(np.abs(want))
    # the step's sign matters: +h misreads the slopes
    wrong = riccati._hermite_half(cubic(t), slope_s(t), h)
    assert np.max(np.abs(wrong - want)) > 1e-3


def test_offsets_terminal_values(sp2):
    fb = solve_feedback(sp2, 10.0, 2000)
    path, lam = fb.march, fb.static.lambda_star[0]
    assert path.phiHat_of_t[-1, 0] == pytest.approx(-lam)
    # thetaHat(T) = -Rhat^{-1}[Bhat'phiHat(T) + Dhat'(P_T(T)-P) sigma*] = lambda* here
    assert path.thetaHat_half[-1, 0] == pytest.approx(lam)


def test_offsets_decay_into_the_interior(sp2):
    path = solve_feedback(sp2, 10.0, 2000).march
    mid = abs(path.phiHat_of_t[1000, 0])
    assert 1e-4 < mid < 5e-3
    assert abs(path.phiHat_of_t[0, 0]) < abs(path.phiHat_of_t[-1, 0])
    assert abs(path.thetaHat_half[::2][1000, 0]) < 5e-3


def test_offsets_shrink_with_horizon(sp2):
    path10 = solve_feedback(sp2, 10.0, 1000).march
    path20 = solve_feedback(sp2, 20.0, 2000).march
    # phiHat at the nodes; thetaHat's nodes are its half stack's even entries
    for attr, stride in (("phiHat_of_t", 1), ("thetaHat_half", 2)):
        mid10 = abs(getattr(path10, attr)[::stride][500, 0])
        mid20 = abs(getattr(path20, attr)[::stride][1000, 0])
        assert mid20 < mid10 / 5.0


def _backward_system_oracle(p, are, static, T, mesh):
    """solve_ivp (DOP853) of the joint backward system (P, Pi, phiHat) in
    s = T - t, written out from the Riccati maps; values at `mesh`."""
    n = p.n
    Ah, Bh, Ch, Dh = p.A + p.Abar, p.B + p.Bbar, p.C + p.Cbar, p.D + p.Dbar
    Qh, Sh, Rh = p.Q + p.Qbar, p.S + p.Sbar, p.R + p.Rbar

    def rhs(s, y):
        P = y[:n * n].reshape(n, n)
        Pi = y[n * n:2 * n * n].reshape(n, n)
        phiHat = y[2 * n * n:]
        SP = p.B.T @ P + p.D.T @ P @ p.C + p.S
        RP = p.R + p.D.T @ P @ p.D
        dP = (P @ p.A + p.A.T @ P + p.C.T @ P @ p.C + p.Q
              - SP.T @ np.linalg.solve(RP, SP))
        SPi = Bh.T @ Pi + Dh.T @ P @ Ch + Sh
        RPi = Rh + Dh.T @ P @ Dh
        ThetaHat = -np.linalg.solve(RPi, SPi)
        dPi = Pi @ Ah + Ah.T @ Pi + Ch.T @ P @ Ch + Qh + SPi.T @ ThetaHat
        dphiHat = ((Ah + Bh @ ThetaHat).T @ phiHat
                   + (Ch + Dh @ ThetaHat).T @ (P - are.P) @ static.sigma_star)
        return np.concatenate([dP.ravel(), dPi.ravel(), dphiHat])

    y0 = np.concatenate([np.zeros(2 * n * n), -static.lambda_star])
    sol = solve_ivp(rhs, (0.0, T), y0, method="DOP853", rtol=1e-11,
                    atol=1e-11, t_eval=T - mesh[::-1])
    assert sol.success
    ys = sol.y.T[::-1]
    return (ys[:, :n * n].reshape(-1, n, n),
            ys[:, n * n:2 * n * n].reshape(-1, n, n), ys[:, 2 * n * n:])


def test_finite_horizon_and_offsets_match_solve_ivp(random_2x2):
    # every block that enters the backward system nonzero: C, D, b, sigma
    p = dataclasses.replace(random_2x2, b=np.array([0.7, -0.4]),
                            sigma=np.array([0.3, 0.5]))
    assert np.all(p.C != 0) and np.all(p.D != 0)
    fb = solve_feedback(p, 2.0, 400)
    static, path = fb.static, fb.march
    P, Pi, phiHat = _backward_system_oracle(p, fb.are, static, 2.0, path.mesh)
    assert np.max(np.abs(path.P_of_t - P)) <= 1e-8
    assert np.max(np.abs(path.Pi_of_t - Pi)) <= 1e-8
    assert np.max(np.abs(path.phiHat_of_t - phiHat)) <= 1e-8
    assert np.max(np.abs(static.lambda_star)) > 0.1


def _radon_oracle(A, B, Q, S, R, T, mesh):
    """P(t) on the mesh for the Riccati ODE without multiplicative noise,
    P' + PA + A'P + Q - (PB + S') R^{-1} (B'P + S) = 0, P(T) = 0, by
    Radon's lemma: in s = T - t, with Ar = A - B R^{-1} S,
    Qr = Q - S' R^{-1} S and G = B R^{-1} B', P = Y X^{-1} where
    (X; Y)(s) = expm(H s) (I; 0) and H = [[-Ar, G], [Qr, Ar']]."""
    n = A.shape[0]
    RiS = np.linalg.solve(R, S)
    Ar = A - B @ RiS
    H = np.block([[-Ar, B @ np.linalg.solve(R, B.T)], [Q - S.T @ RiS, Ar.T]])
    out = []
    for t in mesh:
        XY = expm(H * (T - t))[:, :n]
        out.append(np.linalg.solve(XY[:n].T, XY[n:].T).T)
    return np.array(out)


def test_finite_horizon_matches_hamiltonian_expm():
    # C = D = 0 in both systems, S != 0: each of P and Pi solves a
    # Riccati ODE without multiplicative noise, with the original and
    # the hat coefficients respectively
    p = make_problem(
        2, 1, A=[[-0.5, 0.4], [0.1, 0.3]], Abar=[[0.2, 0.0], [0.1, -0.3]],
        B=[[0.0], [1.0]], Bbar=[[0.4], [0.1]], Q=[[2.0, 0.3], [0.3, 1.0]],
        Qbar=[[0.2, 0.1], [0.1, 0.3]], S=[[0.3, -0.2]], Sbar=[[0.1, 0.3]],
        R=[[1.0]], Rbar=[[0.5]])
    h = p.hats
    assert np.all(p.S != 0) and np.all(h.Shat != 0)
    T = 3.0
    path = integrate_finite_horizon(p, T, steps=600)
    P = _radon_oracle(p.A, p.B, p.Q, p.S, p.R, T, path.mesh)
    Pi = _radon_oracle(h.Ahat, h.Bhat, h.Qhat, h.Shat, h.Rhat, T, path.mesh)
    assert np.max(np.abs(path.P_of_t - P)) <= 1e-8
    assert np.max(np.abs(path.Pi_of_t - Pi)) <= 1e-8
    assert np.max(np.abs(P[0])) > 0.5


def test_convergence_profile_shape_and_decay(sp1):
    are = solve_are(sp1)
    path = integrate_finite_horizon(sp1, 5.0, steps=500)
    prof = convergence_profile(path, are)
    assert prof.shape == (501, 3)
    assert np.array_equal(prof[:, 0], path.mesh)
    # error grows toward the terminal layer
    assert prof[0, 1] < prof[-1, 1]
    assert prof[-1, 1] == pytest.approx(are.P[0, 0])


def test_convergence_profile_dimension_mismatch(sp1, random_2x2):
    are = solve_are(random_2x2)
    path = integrate_finite_horizon(sp1, 1.0, steps=10)
    with pytest.raises(ValueError, match="dimension mismatch"):
        convergence_profile(path, are)


def test_horizon_monotonicity(sp1):
    pi0, verdict = horizon_monotonicity_check(sp1, (1.0, 2.0, 4.0),
                                              steps_per_unit=200)
    assert verdict
    assert len(pi0) == 3
    with pytest.raises(ValueError, match="strictly increasing"):
        horizon_monotonicity_check(sp1, (2.0, 1.0), steps_per_unit=200)


def test_feedback_path_is_a_fresh_solve(all_blocks_4x2):
    # every array depends on s = T - t alone: the tail of one march to
    # T = 4 equals, bit for bit, the march to T with the same step
    p = all_blocks_4x2
    assert np.all(p.b != 0) and np.all(p.sigma != 0)
    feedback = solve_feedback(p, 4.0, 400)
    for T, steps in ((1.0, 100), (2.0, 200)):
        got, want = feedback.path(T), solve_feedback(p, T, steps).march
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name),
                                  getattr(want, field.name)), field.name
        assert np.max(np.abs(want.phiHat_of_t)) > 1e-2
        assert np.max(np.abs(want.thetaHat_half[::2])) > 1e-2


def test_bare_march_tail_is_a_fresh_march(all_blocks_4x2):
    # the tail of a bare march keeps its type and equals, bit for bit,
    # the march to T with the same step
    march = integrate_finite_horizon(all_blocks_4x2, 4.0, 400)
    for T in (1.0, 2.0):
        got = march.tail(T)
        want = integrate_finite_horizon(all_blocks_4x2, T, int(100 * T))
        assert type(got) is riccati.RiccatiPath
        for field in dataclasses.fields(want):
            assert np.array_equal(getattr(got, field.name),
                                  getattr(want, field.name)), field.name


@pytest.mark.parametrize("T", [0.25, 2.1, 3.0, 0.0, -1.0])
def test_feedback_path_rejects_off_node_or_longer_horizons(sp2, T):
    feedback = solve_feedback(sp2, 2.0, 20)
    with pytest.raises(ValueError, match="not a node of the Riccati march"):
        feedback.path(T)


_PROPERTY = settings(max_examples=10, deadline=None, derandomize=True,
                     suppress_health_check=[HealthCheck.too_slow])


@_PROPERTY
@given(small_problems(), st.data())
def test_affine_stage_maps_match_maps(drawn, data):
    # the affine map read off _maps once gives the right-hand side that
    # _maps gives at every symmetric pair (P, Pi)
    p, _ = drawn
    n = p.n
    G = data.draw(hnp.arrays(np.float64, (2, n, n),
                             elements=st.floats(-1.0, 1.0)))
    y = G + G.mT
    want = riccati._riccati_rhs(_maps(*_pair_blocks(p), y[0], y))
    got = riccati._riccati_rhs(riccati._pair_maps(p)(y))
    assert np.max(np.abs(got - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


@_PROPERTY
@given(small_problems())
def test_horizon_monotonicity_on_random_problems(drawn):
    # under A1 the homogeneous cost is nonnegative, so Pi_T(0) is
    # nondecreasing in T
    p, _ = drawn
    assume(not validate_assumption_a1(p))
    _, verdict = horizon_monotonicity_check(p, (0.5, 1.0, 2.0, 4.0),
                                            steps_per_unit=200)
    assert verdict


@_PROPERTY
@given(small_problems())
def test_cross_term_normalization_on_random_problems(drawn):
    # the transform does not move q, so the value V is not invariant;
    # the Riccati pairs are
    p, _ = drawn
    assume(not validate_assumption_a1(p))
    q = normalize_cross_terms(p)
    path_p = integrate_finite_horizon(p, 2.0, steps=400)
    path_q = integrate_finite_horizon(q, 2.0, steps=400)
    assert np.max(np.abs(path_p.P_of_t - path_q.P_of_t)) <= 1e-8
    assert np.max(np.abs(path_p.Pi_of_t - path_q.Pi_of_t)) <= 1e-8
    try:
        are_p, are_q = solve_are(p), solve_are(q)
    except MflqError:
        assume(False)
    assert np.max(np.abs(are_p.P - are_q.P)) <= 1e-8
    assert np.max(np.abs(are_p.Pi - are_q.Pi)) <= 1e-8
