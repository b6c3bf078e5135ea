import io
import math

import numpy as np
import pytest
from scipy.integrate import solve_bvp

from mflq import (
    NumericalFailure,
    SimulationConfig,
    brownian_increments,
    build_adjoint_paths,
    estimate_cost,
    integrate_finite_horizon,
    integrate_offsets,
    make_problem,
    propagate_mean,
    read_raw_paths,
    run_coupled,
    simulate_optimal_ensemble,
    simulate_turnpike_ensemble,
    solve_are,
    solve_static,
    write_raw_paths,
)
from mflq.simulate import write_ensemble_csv

SQRT2 = math.sqrt(2.0)


def _pipeline(problem, T, steps):
    are = solve_are(problem)
    static = solve_static(problem, are.P)
    path = integrate_finite_horizon(problem, T, steps=steps)
    path = integrate_offsets(problem, are, path, static.lambda_star,
                             static.sigma_star)
    return are, static, path


def test_config_validation():
    with pytest.raises(ValueError, match="must be positive"):
        SimulationConfig(T=-1.0)
    with pytest.raises(ValueError, match="does not divide"):
        SimulationConfig(T=1.0, dt=0.3)
    with pytest.raises(ValueError, match="n_paths"):
        SimulationConfig(T=1.0, dt=0.1, n_paths=0)
    with pytest.raises(ValueError, match="workers"):
        SimulationConfig(T=1.0, dt=0.1, workers=0)
    assert SimulationConfig(T=2.0, dt=0.01).n_steps == 200


def test_brownian_increments_are_addressed():
    a = brownian_increments(42, 0, 1, 7, 100, 0.01)
    b = brownian_increments(42, 0, 1, 7, 100, 0.01)
    assert np.array_equal(a, b)
    c = brownian_increments(42, 1, 1, 7, 100, 0.01)
    d = brownian_increments(43, 0, 1, 7, 100, 0.01)
    e = brownian_increments(42, 0, 1, 8, 100, 0.01)
    for other in (c, d, e):
        assert not np.array_equal(a, other)
    # variance scale
    big = brownian_increments(1, 0, 0, 0, 200_000, 0.25)
    assert np.std(big) == pytest.approx(0.5, rel=0.02)


def test_propagate_mean_zero_without_offsets(sp2):
    # zero initial condition and zero offsets: homogeneous ODE stays at 0
    path = integrate_finite_horizon(sp2, 2.0, steps=200)
    static = solve_static(sp2, solve_are(sp2).P)
    m = propagate_mean(sp2, path, static.x_star, static.x_star)
    assert np.max(np.abs(m)) == 0.0


def test_propagate_mean_boundary_layer(sp2):
    # with offsets the mean leaves the steady state only near t = T
    are, static, path = _pipeline(sp2, 10.0, 1000)
    m = propagate_mean(sp2, path, static.x_star, static.x_star)
    assert np.max(np.abs(m[:650, 0])) < 5e-3
    assert abs(m[-1, 0]) > 0.1


def test_propagate_mean_decay_rate(sp2):
    are, static, path = _pipeline(sp2, 10.0, 2000)
    m = propagate_mean(sp2, path, np.array([1.5]), static.x_star)
    assert abs(m[0, 0] - 1.0) < 1e-14
    k5 = 1000
    assert abs(m[k5, 0]) <= 2.0 * math.exp(-5.0)
    # slope of log|m| on [0, 4] close to -sqrt(2)
    t = path.mesh[:801]
    slope = np.polyfit(t, np.log(np.abs(m[:801, 0])), 1)[0]
    assert abs(-slope - SQRT2) / SQRT2 < 0.15
    # bounded by the initial offset plus a small constant
    assert np.max(np.abs(m[:, 0])) <= abs(m[0, 0]) + 0.1


def _lq_mean_oracle(problem, x0, T, t):
    """E[X(t)] under the optimal control when C = D = S = 0: the state
    and adjoint of the deterministic LQ problem in the hat coefficients,
    x' = Ahat x + Bhat u + b, u = -Rhat^{-1}(Bhat' y + r),
    y' = -(Qhat x + q + Ahat' y), x(0) = x0, y(T) = 0, by solve_bvp."""
    n = problem.n
    A = problem.A + problem.Abar
    B = problem.B + problem.Bbar
    Q = problem.Q + problem.Qbar
    BRinv = B @ np.linalg.inv(problem.R + problem.Rbar)
    b, q, r = (v[:, None] for v in (problem.b, problem.q, problem.r))

    def rhs(_t, z):
        x, y = z[:n], z[n:]
        return np.vstack([A @ x - BRinv @ (B.T @ y + r) + b,
                          -(Q @ x + q + A.T @ y)])

    def bc(za, zb):
        return np.concatenate([za[:n] - x0, zb[n:]])
    mesh = np.linspace(0.0, T, 401)
    sol = solve_bvp(rhs, bc, mesh, np.zeros((2 * n, mesh.size)), tol=1e-10,
                    max_nodes=100_000)
    assert sol.success, sol.message
    return sol.sol(t)[:n].T


def test_propagate_mean_matches_lq_oracle(spmf_b):
    mean_coupled_2d = make_problem(
        2, 1, A=[[-1.0, 0.3], [0.0, -0.5]], Abar=[[0.2, 0.0], [0.1, 0.3]],
        B=[[0.0], [1.0]], Bbar=[[0.3], [0.0]], Q=np.eye(2),
        Qbar=[[0.5, 0.1], [0.1, 0.0]], R=[[1.0]], Rbar=[[0.5]],
        b=[1.0, -0.5], sigma=[0.2, 0.1], q=[0.1, 0.0], r=[0.2])
    T = 5.0
    for problem, x0 in ((spmf_b, [1.5]), (mean_coupled_2d, [1.0, -1.0])):
        are, static, path = _pipeline(problem, T, 2000)
        mean = propagate_mean(problem, path, x0, static.x_star) + static.x_star
        want = _lq_mean_oracle(problem, np.asarray(x0), T, path.mesh)
        assert np.max(np.abs(mean - want)) < 1e-6


def test_deterministic_paths_without_noise(sp1):
    are, static, path = _pipeline(sp1, 2.0, 1000)
    cfg = SimulationConfig(T=2.0, dt=0.002, n_paths=50, seed=1)
    raw, stats = simulate_optimal_ensemble(sp1, path, static, [1.0], cfg)
    # zero diffusion: every path equals the mean, exactly
    assert np.max(np.abs(raw.X - raw.X[:, :, :1])) == 0.0
    assert np.max(np.abs(stats.second_moment_X
                         - np.einsum("ki,ki->k", stats.mean_X,
                                     stats.mean_X))) < 1e-12
    # deterministic LQ value identity
    P0 = path.P_of_t[0, 0, 0]
    assert stats.cost_estimate == pytest.approx(P0, abs=1e-3)


def test_optimal_mean_tracks_turnpike(sp2):
    are, static, path = _pipeline(sp2, 10.0, 1000)
    cfg = SimulationConfig(T=10.0, dt=0.01, n_paths=4000, seed=9)
    raw, stats = simulate_optimal_ensemble(sp2, path, static,
                                           static.x_star, cfg)
    m = propagate_mean(sp2, path, static.x_star, static.x_star)
    se = np.sqrt(np.maximum(stats.second_moment_X
                            - stats.mean_X[:, 0] ** 2, 0.0)
                 / cfg.n_paths)
    # empirical mean agrees with the analytic mean at every node
    assert np.all(np.abs(stats.mean_X[:, 0] - (0.5 + m[:, 0]))
                  <= 4.0 * se + 1e-3)
    # away from the terminal layer the mean sits on the steady state
    inner = (stats.mesh >= 1.0) & (stats.mesh <= 7.0)
    assert np.all(np.abs(stats.mean_X[inner, 0] - 0.5)
                  <= 3.0 * se[inner] + 1e-2)


def test_turnpike_without_noise_sits_at_steady_state(spmf_b):
    are = solve_are(spmf_b)
    static = solve_static(spmf_b, are.P)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=20, seed=2)
    raw, stats = simulate_turnpike_ensemble(spmf_b, are, static, cfg)
    assert np.max(np.abs(stats.mean_X - static.x_star)) < 1e-12
    assert np.max(np.abs(raw.u - static.u_star[0])) < 1e-12


def test_turnpike_stationary_variance(sp2):
    are = solve_are(sp2)
    static = solve_static(sp2, are.P)
    cfg = SimulationConfig(T=10.0, dt=0.01, n_paths=8000, seed=12)
    raw, stats = simulate_turnpike_ensemble(sp2, are, static, cfg)
    # E|X*|^2 around x*^2 + sigma*^2/(2 sqrt 2) at stationarity
    target = 0.25 + 0.25 / (2.0 * SQRT2)
    assert stats.second_moment_X[-1] == pytest.approx(target, rel=0.1)


def test_coupled_matches_separate_runs_exactly(sp2):
    are, static, path = _pipeline(sp2, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=3000, seed=5)
    res = run_coupled(sp2, path, are, static, [1.5], cfg)
    raw_o, st_o = simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)
    raw_t, st_t = simulate_turnpike_ensemble(sp2, are, static, cfg)
    assert np.array_equal(res.optimal.mean_X, st_o.mean_X)
    assert np.array_equal(res.raw_optimal.X, raw_o.X)
    assert np.array_equal(res.turnpike.second_moment_X,
                          st_t.second_moment_X)
    # uncoupled turnpike uses an independent stream
    cfg_u = SimulationConfig(T=2.0, dt=0.01, n_paths=3000, seed=5,
                             coupled=False)
    _, st_u = simulate_turnpike_ensemble(sp2, are, static, cfg_u)
    assert not np.allclose(st_u.mean_X, st_t.mean_X)


def test_worker_count_does_not_change_results(sp2):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg1 = SimulationConfig(T=1.0, dt=0.01, n_paths=20_000, seed=5,
                            workers=1)
    cfg8 = SimulationConfig(T=1.0, dt=0.01, n_paths=20_000, seed=5,
                            workers=8)
    r1 = run_coupled(sp2, path, are, static, [1.5], cfg1)
    r8 = run_coupled(sp2, path, are, static, [1.5], cfg8)
    assert np.array_equal(r1.optimal.gap_X, r8.optimal.gap_X)
    assert np.array_equal(r1.raw_turnpike.X, r8.raw_turnpike.X)
    assert r1.optimal.cost_estimate == r8.optimal.cost_estimate


def test_jensen_gap_nonnegative(sp2):
    are, static, path = _pipeline(sp2, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=2000, seed=8)
    _, stats = simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)
    gap = stats.second_moment_X - np.einsum("ki,ki->k", stats.mean_X,
                                            stats.mean_X)
    assert np.min(gap) >= -1e-12


def test_weak_euler_order(sp2):
    are = solve_are(sp2)
    static = solve_static(sp2, are.P)
    T, N = 4.0, 4000
    dts = [0.04, 0.02, 0.01]
    K_fine = int(T / dts[-1])
    fine = np.stack([brownian_increments(7, 0, 0, k, N, dts[-1])
                     for k in range(K_fine)])
    vals = []
    for dt in dts:
        K = int(T / dt)
        inc = fine.reshape(K, K_fine // K, N).sum(axis=1)
        cfg = SimulationConfig(T=T, dt=dt, n_paths=N, seed=7)
        _, stats = simulate_turnpike_ensemble(sp2, are, static, cfg,
                                              increments=inc)
        vals.append(stats.second_moment_X[K // 2])
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert math.log2(d1 / d2) >= 0.8


def test_run_coupled_requires_coupling(sp2):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=10, coupled=False)
    with pytest.raises(ValueError, match="coupled"):
        run_coupled(sp2, path, are, static, [1.5], cfg)


def test_mesh_mismatch_rejected(sp2):
    are, static, path = _pipeline(sp2, 1.0, 50)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=10)
    with pytest.raises(ValueError, match="does not match"):
        simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)


def test_nonfinite_state_is_located(sp2):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=8, seed=0)
    inc = np.zeros((100, 8))
    inc[10, 2] = np.nan
    with pytest.raises(NumericalFailure,
                       match="non-finite state at path 2"):
        simulate_optimal_ensemble(sp2, path, static, [1.0], cfg,
                                  increments=inc)


def test_adjoint_gap_validation(sp2):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=100, seed=3)
    res = run_coupled(sp2, path, are, static, [1.5], cfg)
    mesh, gap_Y, gap_Z = build_adjoint_paths(sp2, path, are, static,
                                             res.raw_optimal,
                                             res.raw_turnpike)
    assert len(mesh) == len(gap_Y) == len(gap_Z)
    assert np.all(gap_Y >= 0) and np.all(gap_Z >= 0)
    with pytest.raises(ValueError, match="optimal and one turnpike"):
        build_adjoint_paths(sp2, path, are, static, res.raw_optimal,
                            res.raw_optimal)
    other = SimulationConfig(T=1.0, dt=0.01, n_paths=100, seed=4)
    res2 = run_coupled(sp2, path, are, static, [1.5], other)
    with pytest.raises(ValueError, match="configs differ"):
        build_adjoint_paths(sp2, path, are, static, res.raw_optimal,
                            res2.raw_turnpike)


def test_estimate_cost_matches_engine(sp2):
    # with <= 200 steps the snapshots cover every node
    are, static, path = _pipeline(sp2, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=500, seed=6)
    raw, stats = simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)
    assert len(raw.mesh) == cfg.n_steps + 1
    mean, stderr = estimate_cost(sp2, raw.X, raw.u, raw.mesh)
    assert mean == pytest.approx(stats.cost_estimate, rel=1e-12)
    assert stderr == pytest.approx(stats.cost_stderr, rel=1e-12)
    with pytest.raises(ValueError, match="mismatched"):
        estimate_cost(sp2, raw.X[:-1], raw.u, raw.mesh)


def test_raw_paths_binary_roundtrip(sp2, tmp_path):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=37, seed=3)
    raw, _ = simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)
    fname = tmp_path / "paths.bin"
    with open(fname, "wb") as fh:
        write_raw_paths(raw, fh)
    with open(fname, "rb") as fh:
        header = np.frombuffer(fh.read(32), dtype="<i8")
    assert list(header) == [1, 1, len(raw.mesh), 37]
    size = 32 + 2 * 8 * len(raw.mesh) * 37
    assert fname.stat().st_size == size
    with open(fname, "rb") as fh:
        X, u = read_raw_paths(fh)
    assert np.array_equal(X, raw.X)
    assert np.array_equal(u, raw.u)


def test_ensemble_csv_format(sp2):
    are, static, path = _pipeline(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=50, seed=3)
    res = run_coupled(sp2, path, are, static, [1.5], cfg)
    buf = io.StringIO()
    write_ensemble_csv(res.optimal, buf, header_comments=["digest: x"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# digest: x"
    assert lines[1] == "t,meanX0,m2X,m2u,gapX,gapu,gapY,gapZ"
    assert len(lines) == 2 + cfg.n_steps + 1
    buf = io.StringIO()
    _, stats = simulate_optimal_ensemble(sp2, path, static, [1.5], cfg)
    write_ensemble_csv(stats, buf)
    assert buf.getvalue().splitlines()[0] == "t,meanX0,m2X,m2u"
