import io
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from scipy.integrate import solve_bvp

from mflq import (
    MflqError,
    NumericalFailure,
    SimulationConfig,
    brownian_increments,
    evaluate_F,
    integrate_finite_horizon,
    integrate_offsets,
    make_problem,
    propagate_mean,
    run_coupled,
    solve_are,
    solve_feedback,
    solve_static,
    validate_assumption_a1,
)
from mflq import simulate
from mflq.analysis import turnpike_pipeline
from mflq.simulate import (
    BLAS_SERIAL_MNK,
    PATH_CHUNK,
    _chunk_length,
    write_ensemble_csv,
)

from conftest import random_problem, small_problems
from paper_checks import exact_moments

SQRT2 = math.sqrt(2.0)


def test_config_validation():
    with pytest.raises(ValueError, match="must be positive"):
        SimulationConfig(T=-1.0)
    with pytest.raises(ValueError, match="does not divide"):
        SimulationConfig(T=1.0, dt=0.3)
    with pytest.raises(ValueError, match="T/dt must be finite"):
        SimulationConfig(T=1e308, dt=1e-3)
    with pytest.raises(ValueError, match="T/dt must be finite"):
        SimulationConfig(T=1.0, dt=1e-320)
    with pytest.raises(ValueError, match="n_paths"):
        SimulationConfig(T=1.0, dt=0.1, n_paths=0)
    with pytest.raises(ValueError, match="workers"):
        SimulationConfig(T=1.0, dt=0.1, workers=0)
    assert SimulationConfig(T=2.0, dt=0.01).n_steps == 200


def _fresh_signs(seed, chunk, step, count, dt):
    """The increments at an address, from a Philox freshly built there:
    bit i of its raw 64-bit words, lowest bit first, is the sign of
    increment i."""
    words = np.random.Philox(
        counter=np.array([0, 0, chunk, step], dtype=np.uint64),
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64)
    ).random_raw(-(-count // 64))
    bits = [(int(words[i // 64]) >> (i % 64)) & 1 for i in range(count)]
    return np.where(np.array(bits) == 1, math.sqrt(dt), -math.sqrt(dt))


def test_brownian_increments_are_addressed():
    a = brownian_increments(42, 1, 7, 100, 0.01)
    b = brownian_increments(42, 1, 7, 100, 0.01)
    assert np.array_equal(a, b)
    # every increment is +-sqrt(dt), exactly
    assert np.all(np.abs(a) == 0.1)
    # the address is Philox key [seed, 0] and counter [0, 0, chunk, step]
    assert np.array_equal(a, _fresh_signs(42, 1, 7, 100, 0.01))
    c = brownian_increments(42, 2, 7, 100, 0.01)
    d = brownian_increments(43, 1, 7, 100, 0.01)
    e = brownian_increments(42, 1, 8, 100, 0.01)
    for other in (c, d, e):
        assert not np.array_equal(a, other)
    # mean 0 within 4 standard errors over 200,000 draws; a sign's
    # square is dt, so the sample variance is dt (1 - (mean / sqrt(dt))^2)
    big = brownian_increments(1, 0, 0, 200_000, 0.25)
    assert abs(np.mean(big)) <= 4.0 * 0.5 / math.sqrt(big.size)
    assert np.var(big) == pytest.approx(0.25, rel=16.0 / big.size)


def test_brownian_increments_match_fresh_generators_on_threads():
    # each thread reuses one generator; calls interleaved over seeds,
    # chunks, steps and counts on two threads draw exactly what a
    # generator freshly built at each address draws
    addresses = [(seed, chunk, step, count)
                 for seed in (0, 42, 2 ** 63 + 5)
                 for chunk in (0, 3)
                 for step in (0, 1, 1999)
                 for count in (1, 7, 1000)]
    lanes = [addresses, addresses[::-1]]
    got = [[], []]

    def draw(lane):
        for a in lanes[lane]:
            got[lane].append(brownian_increments(*a, 0.01))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for lane in (0, 1):
        assert len(got[lane]) == len(addresses)
        for a, x in zip(lanes[lane], got[lane]):
            assert np.array_equal(x, _fresh_signs(*a, 0.01))


def test_chunk_length_keeps_every_step_product_serial():
    # every problem with n <= 5 keeps full chunks; larger problems get
    # the longest chunk whose per-step products, r x r x L for the
    # r = 2n + 1 rows of the state, stay at or under the BLAS threading
    # threshold.  The terminal record's product runs once per chunk and
    # does not shorten it
    assert _chunk_length(1, 1) == PATH_CHUNK
    assert _chunk_length(4, 2) == PATH_CHUNK
    assert _chunk_length(4, 3) == PATH_CHUNK
    assert _chunk_length(5, 1) == PATH_CHUNK
    assert _chunk_length(6, 1) < PATH_CHUNK
    for n in range(1, 13):
        for m in range(1, 7):
            r = 2 * n + 1
            L = _chunk_length(n, m)
            assert 1 <= L <= PATH_CHUNK
            assert r * r * L <= BLAS_SERIAL_MNK
            assert L == PATH_CHUNK or r * r * (L + 1) > BLAS_SERIAL_MNK


def test_worker_count_does_not_change_results_in_short_chunks():
    # n = 6: the chunk length comes from the problem, and two chunks of
    # it run serially and on two threads
    rng = np.random.default_rng(6)
    p = random_problem(6, 1, lambda shape: rng.uniform(-1.0, 1.0, shape))
    x0 = np.linspace(-1.0, 1.0, 6)
    fb = solve_feedback(p, 1.0, 10)
    N = _chunk_length(6, 1) + 17
    r1, r2 = (run_coupled(fb, x0,
                          SimulationConfig(T=1.0, dt=0.1, n_paths=N, seed=3,
                                           workers=w))
              for w in (1, 2))
    for name in ("gap_X", "gap_u", "gap_Y", "gap_Z", "mean_X",
                 "second_moment_X"):
        assert np.array_equal(getattr(r1.optimal, name),
                              getattr(r2.optimal, name))
    assert r1.optimal.cost_estimate == r2.optimal.cost_estimate
    for side in ("raw_optimal", "raw_turnpike"):
        for name in ("X", "u"):
            assert np.array_equal(getattr(getattr(r1, side), name),
                                  getattr(getattr(r2, side), name))


def test_propagate_mean_refuses_a_bare_march(sp2):
    # a bare (P, Pi) march carries no mean gains, so it cannot stand in
    # for the feedback path and silently run the open loop Ahat
    path = integrate_finite_horizon(sp2, 2.0, steps=200)
    static = solve_static(sp2, solve_are(sp2).P)
    with pytest.raises(AttributeError, match="ThetaHat_half"):
        propagate_mean(sp2, path, [1.5], static.x_star)


def test_propagate_mean_zero_without_offsets(sp1):
    # sp1 has b = sigma = q = r = 0, so its offsets vanish: from
    # x0 = x* = 0 the homogeneous mean ODE stays at exactly 0
    fb = solve_feedback(sp1, 2.0, 200)
    x_star = fb.static.x_star
    assert np.all(x_star == 0.0)
    assert np.all(fb.march.thetaHat_half == 0.0)
    m = propagate_mean(sp1, fb.march, x_star, x_star)
    assert np.max(np.abs(m)) == 0.0


def test_propagate_mean_boundary_layer(sp2):
    # with offsets the mean leaves the steady state only near t = T
    fb = solve_feedback(sp2, 10.0, 1000)
    x_star = fb.static.x_star
    m = propagate_mean(sp2, fb.march, x_star, x_star)
    assert np.max(np.abs(m[:650, 0])) < 5e-3
    assert abs(m[-1, 0]) > 0.1


def test_propagate_mean_decay_rate(sp2):
    fb = solve_feedback(sp2, 10.0, 2000)
    m = propagate_mean(sp2, fb.march, np.array([1.5]), fb.static.x_star)
    assert abs(m[0, 0] - 1.0) < 1e-14
    k5 = 1000
    assert abs(m[k5, 0]) <= 2.0 * math.exp(-5.0)
    # slope of log|m| on [0, 4] close to -sqrt(2)
    t = fb.march.mesh[:801]
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
        fb = solve_feedback(problem, T, 2000)
        x_star = fb.static.x_star
        mean = propagate_mean(problem, fb.march, x0, x_star) + x_star
        want = _lq_mean_oracle(problem, np.asarray(x0), T, fb.march.mesh)
        assert np.max(np.abs(mean - want)) < 1e-6


def test_deterministic_paths_without_noise(sp1):
    fb = solve_feedback(sp1, 2.0, 1000)
    cfg = SimulationConfig(T=2.0, dt=0.002, n_paths=50, seed=1)
    res = run_coupled(fb, [1.0], cfg)
    raw, stats = res.raw_optimal, res.optimal
    # zero diffusion: every path equals the mean, exactly, at t = T
    assert np.max(np.abs(raw.X - raw.X[:, :, :1])) == 0.0
    assert np.max(np.abs(raw.u - raw.u[:, :, :1])) == 0.0
    # and at every node: no spread about the mean, and the series of
    # the per-path loop, whatever increments it is fed
    for sq, mean in ((stats.second_moment_X, stats.mean_X),
                     (stats.second_moment_u, stats.mean_u)):
        assert np.max(np.abs(sq - np.einsum("ki,ki->k", mean, mean))) < 1e-12
    inc = np.stack([brownian_increments(3, 0, k, cfg.n_paths, cfg.dt)
                    for k in range(cfg.n_steps)])
    series, _, _ = _reference_coupled(fb, np.array([1.0]), cfg, inc)
    for name in ("mean_X", "mean_u", "second_moment_X", "second_moment_u"):
        assert np.allclose(getattr(stats, name), series[name],
                           rtol=1e-12, atol=1e-12), name
    # deterministic LQ value identity
    P0 = fb.march.P_of_t[0, 0, 0]
    assert stats.cost_estimate == pytest.approx(P0, abs=1e-3)


def test_optimal_mean_tracks_turnpike(sp2):
    fb = solve_feedback(sp2, 10.0, 1000)
    cfg = SimulationConfig(T=10.0, dt=0.01, n_paths=4000, seed=9)
    x_star = fb.static.x_star
    stats = run_coupled(fb, x_star, cfg).optimal
    m = propagate_mean(sp2, fb.march, x_star, x_star)
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
    fb = solve_feedback(spmf_b, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=20, seed=2)
    raw = run_coupled(fb, [1.5], cfg).raw_turnpike
    x_star, u_star = fb.static.x_star[0], fb.static.u_star[0]
    # every turnpike path, not only their mean, ends at (x*, u*)
    assert np.max(np.abs(raw.X - x_star)) < 1e-12
    assert np.max(np.abs(raw.u - u_star)) < 1e-12
    # and stays there: at every node the engine's path sums give the
    # turnpike ensemble mean x* (u*) and second moment x*^2 (u*^2), so
    # no path leaves the steady state
    cl = simulate.closed_loop(fb, [1.5], cfg.T, cfg.dt)
    record = np.empty((cl.snap.shape[0], cfg.n_paths))
    S, _ = simulate._run_chunk(cl, cfg, 0, 0, cfg.n_paths, record)
    for name, star in (("X_tp", x_star), ("u_tp", u_star)):
        total, sq = simulate._node_series(cl.maps[name], S)
        assert np.max(np.abs(total[:, 0] / cfg.n_paths - star)) < 1e-12
        assert np.max(np.abs(sq / cfg.n_paths - star ** 2)) < 1e-12


def test_turnpike_stationary_variance(sp2):
    fb = solve_feedback(sp2, 10.0, 1000)
    cfg = SimulationConfig(T=10.0, dt=0.01, n_paths=8000, seed=12)
    raw = run_coupled(fb, [1.5], cfg).raw_turnpike
    # E|X*|^2 around x*^2 + sigma*^2/(2 sqrt 2) at stationarity, read
    # off the last snapshot node, t = T
    assert raw.indices[-1] == cfg.n_steps
    target = 0.25 + 0.25 / (2.0 * SQRT2)
    assert np.mean(raw.X[-1] ** 2) == pytest.approx(target, rel=0.1)


def test_coupled_matches_separate_runs_exactly(sp2):
    # each ensemble of the lockstep run against its own Euler recursion,
    # both driven by the increments at addresses (seed, chunk 0, step k);
    # the engine steps the gap Xt - Xs, so both agree to rounding
    fb = solve_feedback(sp2, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=3000, seed=5)
    res = run_coupled(fb, [1.5], cfg)
    static, path = fb.static, fb.march
    # sp2 has C = D = 0 and no mean coupling: u - u* = Theta_T Xt + thetaHat_T
    A, B, sig = sp2.A[0, 0], sp2.B[0, 0], static.sigma_star[0]
    Th, off = path.Theta_of_t[:, 0, 0], path.thetaHat_half[::2, 0]
    Atp = A + B * fb.are.Theta[0, 0]
    Xt = np.full(cfg.n_paths, 1.5 - static.x_star[0])
    Xs = np.zeros(cfg.n_paths)
    opt = [Xt]
    for k in range(cfg.n_steps):
        dW = brownian_increments(5, 0, k, cfg.n_paths, cfg.dt)
        Xt = Xt + cfg.dt * (A * Xt + B * (Th[k] * Xt + off[k])) + sig * dW
        Xs = Xs + cfg.dt * (Atp * Xs) + sig * dW
        opt.append(Xt)
    # per path at t = T
    assert np.max(np.abs(res.raw_turnpike.X[0, 0]
                         - (Xs + static.x_star[0]))) <= 1e-13
    assert np.max(np.abs(res.raw_optimal.X[0, 0]
                         - (Xt + static.x_star[0]))) < 1e-12
    # the optimal ensemble's mean and second moment at every node
    X = np.array(opt) + static.x_star[0]
    stats = res.optimal
    assert np.allclose(stats.mean_X[:, 0], X.mean(axis=1),
                       rtol=1e-12, atol=1e-12)
    assert np.allclose(stats.second_moment_X, (X * X).mean(axis=1),
                       rtol=1e-12, atol=1e-12)


def test_worker_count_does_not_change_results(sp2):
    # three chunks on eight threads fill one shared terminal record;
    # frequent thread switches interleave their writes
    fb = solve_feedback(sp2, 1.0, 100)
    cfg1 = SimulationConfig(T=1.0, dt=0.01, n_paths=20_000, seed=5,
                            workers=1)
    cfg8 = SimulationConfig(T=1.0, dt=0.01, n_paths=20_000, seed=5,
                            workers=8)
    r1 = run_coupled(fb, [1.5], cfg1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        r8 = run_coupled(fb, [1.5], cfg8)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(r1.optimal.gap_X, r8.optimal.gap_X)
    for side in ("raw_optimal", "raw_turnpike"):
        for name in ("X", "u"):
            assert np.array_equal(getattr(getattr(r1, side), name),
                                  getattr(getattr(r8, side), name))
    assert r1.optimal.cost_estimate == r8.optimal.cost_estimate


def test_jensen_gap_nonnegative(sp2):
    fb = solve_feedback(sp2, 2.0, 200)
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=2000, seed=8)
    stats = run_coupled(fb, [1.5], cfg).optimal
    gap = stats.second_moment_X - np.einsum("ki,ki->k", stats.mean_X,
                                            stats.mean_X)
    assert np.min(gap) >= -1e-12


def _serve_increments(monkeypatch, inc):
    """Make run_coupled step with the increments inc of shape
    (n_steps, n_paths): chunk c, step k reads the columns of chunk c's
    paths from row k."""
    def served(seed, chunk, step, count, dt):
        lo = chunk * PATH_CHUNK
        return inc[step, lo:lo + count]
    monkeypatch.setattr(simulate, "brownian_increments", served)


def test_weak_euler_order(sp2, monkeypatch):
    # E|X*|^2 at t = 2, read off the terminal record of a T = 2 run: the
    # turnpike process does not depend on the horizon
    T, N = 2.0, 4000
    dts = [0.04, 0.02, 0.01]
    K_fine = int(T / dts[-1])
    fine = np.stack([brownian_increments(7, 0, k, N, dts[-1])
                     for k in range(K_fine)])
    vals = []
    for dt in dts:
        K = int(T / dt)
        fb = solve_feedback(sp2, T, K)
        inc = fine.reshape(K, K_fine // K, N).sum(axis=1)
        cfg = SimulationConfig(T=T, dt=dt, n_paths=N, seed=7)
        _serve_increments(monkeypatch, inc)
        raw = run_coupled(fb, [1.5], cfg).raw_turnpike
        assert raw.indices.tolist() == [K]
        vals.append(np.mean(np.sum(raw.X[0] ** 2, axis=0)))
    d1 = abs(vals[0] - vals[1])
    d2 = abs(vals[1] - vals[2])
    assert math.log2(d1 / d2) >= 0.8


def test_run_coupled_calls_propagate_mean_once_through_module(sp2,
                                                              monkeypatch):
    # a wrapper set on the module attribute, as a tracer sets it, sees
    # the run's one mean propagation
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return propagate_mean(*args, **kwargs)
    monkeypatch.setattr(simulate, "propagate_mean", counted)
    fb = solve_feedback(sp2, 1.0, 100)
    run_coupled(fb, [1.5], SimulationConfig(T=1.0, dt=0.01, n_paths=10))
    assert len(calls) == 1


def test_mesh_mismatch_rejected(sp2):
    # T = 1 is a node of the 50-step march, but dt is not its step
    fb = solve_feedback(sp2, 1.0, 50)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=10)
    with pytest.raises(ValueError, match="dt=0.01 does not match the "
                                         "feedback path's step 0.02"):
        run_coupled(fb, [1.5], cfg)


def test_closed_loop_cuts_by_the_config_steps(sp2):
    # T_long / 20 = dt (1 - 9e-13) is the march step; T / dt is 10 to
    # within rounding, but T over the march step is 10 + 1e-11, off by
    # more than the node tolerance: the cut counts steps of dt
    fb = solve_feedback(sp2, 1.9999999999982, 20)
    cfg = SimulationConfig(T=1.0000000000009, dt=0.1, n_paths=10)
    with pytest.raises(ValueError, match="not a node of the path"):
        fb.path(cfg.T)
    res = run_coupled(fb, [1.5], cfg)
    assert len(res.optimal.mesh) == 11 and res.optimal.mesh[-1] == cfg.T


def test_nonfinite_state_is_located(sp2, monkeypatch):
    fb = solve_feedback(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=8, seed=0)
    inc = np.zeros((100, 8))
    inc[10, 2] = np.nan
    _serve_increments(monkeypatch, inc)
    with pytest.raises(NumericalFailure,
                       match="non-finite state at path 2"):
        run_coupled(fb, [1.0], cfg)


@pytest.mark.parametrize("workers", [1, 2])
def test_nonfinite_state_in_second_chunk_is_located(sp2, workers,
                                                     monkeypatch):
    # the second chunk writes into columns PATH_CHUNK: of the shared
    # terminal record; the reported path must carry that offset
    fb = solve_feedback(sp2, 1.0, 100)
    N = PATH_CHUNK + 8
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=N, seed=0,
                           workers=workers)
    inc = np.zeros((100, N))
    inc[10, PATH_CHUNK + 3] = np.nan
    _serve_increments(monkeypatch, inc)
    with pytest.raises(NumericalFailure,
                       match="non-finite state at path 8195,"):
        run_coupled(fb, [1.0], cfg)


def _traced_peak(fb, cfg):
    """tracemalloc's peak over one run_coupled, after a small run has
    made the first-call allocations (lazy imports, the thread's
    generator)."""
    run_coupled(fb, [1.5], SimulationConfig(T=cfg.T, dt=cfg.dt, n_paths=2))
    tracemalloc.start()
    try:
        res = run_coupled(fb, [1.5], cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, res


def _chunk_work_bytes(r, L, K):
    """The buffers `_run_chunk` holds for L paths of r state rows over K
    steps: v, the stacked product, the cost terms and the increments (8
    bytes a path and row each), the finite-check mask (1 byte each), and
    the path sums S."""
    return 8 * L * (r + (2 * r - 1) + r + 1) + L * r + 8 * (K + 1) * r * r


@pytest.mark.parametrize("workers", [1, 2])
def test_snapshots_are_allocated_once(sp2, workers):
    # the run holds the terminal record once, and each running chunk its
    # work buffers: per-chunk records joined by a copy at the end, or a
    # per-step allocation of paths' size, would pass the bound
    fb = solve_feedback(sp2, 1.0, 100)
    N = PATH_CHUNK + 17
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=N, seed=3, workers=workers)
    peak, res = _traced_peak(fb, cfg)
    record = sum(a.nbytes for raw in (res.raw_optimal, res.raw_turnpike)
                 for a in (raw.X, raw.u))
    assert record == 2 * (sp2.n + sp2.m) * N * 8
    lengths = sorted((min(PATH_CHUNK, N - lo) for lo in range(0, N, PATH_CHUNK)),
                     reverse=True)
    work = sum(_chunk_work_bytes(2 * sp2.n + 1, L, cfg.n_steps)
               for L in lengths[:workers])
    assert peak <= 1.25 * (record + work)


def test_run_coupled_peak_does_not_grow_with_the_steps(sp2):
    # at a fixed path count, four times the steps leave the peak within
    # 10%: nothing of paths' size is kept per node
    N = PATH_CHUNK + 17
    peaks = [_traced_peak(solve_feedback(sp2, 1.0, round(1.0 / dt)),
                          SimulationConfig(T=1.0, dt=dt, n_paths=N,
                                           seed=3))[0]
             for dt in (0.01, 0.0025)]
    assert peaks[1] <= 1.1 * peaks[0]


def test_ensemble_csv_format(sp2):
    fb = solve_feedback(sp2, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=50, seed=3)
    res = run_coupled(fb, [1.5], cfg)
    buf = io.StringIO()
    write_ensemble_csv(res.optimal, buf, header_comments=["digest: x"])
    lines = buf.getvalue().splitlines()
    assert lines[0] == "# digest: x"
    assert lines[1] == "t,meanX0,m2X,m2u,gapX,gapu,gapY,gapZ"
    assert len(lines) == 2 + cfg.n_steps + 1


def test_first_node_gaps_are_exact():
    # at t = 0 every optimal path sits at x0 and every turnpike path at
    # x*, so each gap at the first node is a deterministic quadratic form
    rng = np.random.default_rng(4)
    p = random_problem(2, 2, lambda shape: rng.uniform(-1.0, 1.0, shape))
    x0 = np.array([1.0, -0.5])
    fb = solve_feedback(p, 1.0, 100)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=64, seed=1)
    stats = run_coupled(fb, x0, cfg).optimal
    static, path = fb.static, fb.march
    h = p.hats
    m0 = x0 - static.x_star
    ThH, thH = path.ThetaHat_half[0], path.thetaHat_half[0]
    u0 = ThH @ m0 + thH
    Y0 = path.Pi_of_t[0] @ m0 + path.phiHat_of_t[0]
    Z0 = (path.P_of_t[0] @ ((h.Chat + h.Dhat @ ThH) @ m0 + h.Dhat @ thH
                            + static.sigma_star)
          - fb.are.P @ static.sigma_star)
    for got, v in ((stats.gap_X, m0), (stats.gap_u, u0),
                   (stats.gap_Y, Y0), (stats.gap_Z, Z0)):
        assert got[0] == pytest.approx(v @ v, rel=1e-12)
        assert v @ v > 1e-3


def _reference_coupled(fb, x0, cfg, inc):
    """Every series of run_coupled, evaluated path by path: the closed
    loop's per-node formulas for u, Y and Z, the four gaps against the
    turnpike paths, the optimal per-path running cost, the plain sums
    over paths and the per-path states and controls of both ensembles at
    t = T, driven by the noise increments inc of shape
    (n_steps, n_paths)."""
    p, are, static = fb.problem, fb.are, fb.static
    path = fb.path(cfg.T)
    h = p.hats
    K, dt, N = cfg.n_steps, cfg.dt, cfg.n_paths
    x_star, u_star = static.x_star[:, None], static.u_star[:, None]
    lam, sig = static.lambda_star, static.sigma_star
    m_t = propagate_mean(p, path, x0, static.x_star)
    Th = path.Theta_of_t
    ThH, off = path.ThetaHat_half[::2], path.thetaHat_half[::2]
    Atp, Ctp = p.A + p.B @ are.Theta, p.C + p.D @ are.Theta
    Xt = np.tile(m_t[0][:, None], (1, N))
    Xs = np.zeros((p.n, N))
    out = {name: [] for name in ("mean_X", "mean_u", "second_moment_X",
                                 "second_moment_u")}
    gaps = {name: [] for name in ("gap_X", "gap_u", "gap_Y", "gap_Z")}
    cost = np.zeros(N)
    for k in range(K + 1):
        mk, Pk = m_t[k], path.P_of_t[k]
        Acl, Ccl = p.A + p.B @ Th[k], p.C + p.D @ Th[k]
        dconst = (h.Ahat + h.Bhat @ ThH[k] - Acl) @ mk + h.Bhat @ off[k]
        cconst = (h.Chat + h.Dhat @ ThH[k] - Ccl) @ mk + h.Dhat @ off[k] + sig
        u_sh = Th[k] @ Xt + ((ThH[k] - Th[k]) @ mk + off[k])[:, None]
        X = {"opt": Xt + x_star, "tp": Xs + x_star}
        u = {"opt": u_sh + u_star, "tp": are.Theta @ Xs + u_star}
        w = dt if 0 < k < K else 0.5 * dt
        Xp, up = X["opt"], u["opt"]
        out["mean_X"].append(Xp.sum(axis=1) / N)
        out["mean_u"].append(up.sum(axis=1) / N)
        out["second_moment_X"].append(np.sum(Xp * Xp) / N)
        out["second_moment_u"].append(np.sum(up * up) / N)
        cost += w * (np.einsum("ip,ij,jp->p", Xp, p.Q, Xp)
                     + 2.0 * np.einsum("mp,mj,jp->p", up, p.S, Xp)
                     + np.einsum("mp,mj,jp->p", up, p.R, up)
                     + 2.0 * (p.q @ Xp) + 2.0 * (p.r @ up))
        Y = Pk @ (Xt - mk[:, None]) + (path.Pi_of_t[k] @ mk
                                       + path.phiHat_of_t[k] + lam)[:, None]
        Z = Pk @ (Ccl @ Xt + cconst[:, None])
        diffs = {"gap_X": Xt - Xs, "gap_u": u["opt"] - u["tp"],
                 "gap_Y": Y - (are.P @ Xs + lam[:, None]),
                 "gap_Z": Z - are.P @ (Ctp @ Xs + sig[:, None])}
        for name, d in diffs.items():
            gaps[name].append(np.sum(d * d) / N)
        if k == K:
            break
        dW = inc[k]
        Xt = (Xt + dt * (Acl @ Xt + dconst[:, None])
              + (Ccl @ Xt + cconst[:, None]) * dW)
        Xs = Xs + dt * (Atp @ Xs) + (Ctp @ Xs + sig[:, None]) * dW
    series = {key: np.array(val) for key, val in out.items()}
    mX, mu = series["mean_X"], series["mean_u"]
    mean_cost = (np.einsum("ki,ij,kj->k", mX, p.Qbar, mX)
                 + 2.0 * np.einsum("km,mj,kj->k", mu, p.Sbar, mX)
                 + np.einsum("km,mj,kj->k", mu, p.Rbar, mu))
    paths = cost + np.trapezoid(mean_cost, path.mesh)
    series["cost_estimate"] = np.mean(paths)
    series["cost_stderr"] = np.std(paths, ddof=1) / math.sqrt(N)
    terminal = {side: (X[side], u[side]) for side in ("opt", "tp")}
    return series, {k: np.array(v) for k, v in gaps.items()}, terminal


@pytest.mark.parametrize("case", ["all_blocks_2x2", "sp2_noisy_long"])
def test_engine_matches_per_path_reference(case):
    if case == "all_blocks_2x2":
        rng = np.random.default_rng(4)
        p = random_problem(2, 2, lambda shape: rng.uniform(-1.0, 1.0, shape))
        x0, T, dt, N = np.array([1.0, -0.5]), 2.0, 0.01, 600
    else:
        # the gaps fall to about 3e-17 mid-horizon
        p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], C=[[0.3]], Q=[[1.0]],
                         R=[[1.0]], b=[1.0], sigma=[0.5])
        x0, T, dt, N = np.array([1.5]), 24.0, 0.01, 400
    cfg = SimulationConfig(T=T, dt=dt, n_paths=N, seed=11)
    fb = solve_feedback(p, T, cfg.n_steps)
    inc = np.stack([brownian_increments(11, 0, k, N, dt)
                    for k in range(cfg.n_steps)])
    # run_coupled draws the same increments at these addresses
    res = run_coupled(fb, x0, cfg)
    series, gaps, terminal = _reference_coupled(fb, x0, cfg, inc)
    for name, want in gaps.items():
        got = getattr(res.optimal, name)
        assert np.all(want > 0.0)
        assert np.max(np.abs(got - want) / want) <= 1e-8, name
    for name, want in series.items():
        got = getattr(res.optimal, name)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12), name
    for side, raw in (("opt", res.raw_optimal), ("tp", res.raw_turnpike)):
        want_X, want_u = terminal[side]
        assert raw.indices.tolist() == [cfg.n_steps]
        tol = 1e-13 if side == "tp" else 1e-12
        assert np.max(np.abs(raw.X[0] - want_X)) <= tol
        assert np.max(np.abs(raw.u[0] - want_u)) <= tol


@settings(max_examples=10, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(small_problems())
def test_worker_count_never_changes_results(drawn):
    # two chunks of paths, stepped serially and on two threads
    p, x0 = drawn
    assume(not validate_assumption_a1(p))
    try:
        fb = solve_feedback(p, 1.0, 10)
    except MflqError:
        assume(False)
    runs = [run_coupled(fb, x0,
                        SimulationConfig(T=1.0, dt=0.1,
                                         n_paths=PATH_CHUNK + 17, seed=3,
                                         workers=w))
            for w in (1, 2)]
    one, two = runs
    for name in ("gap_X", "gap_u", "gap_Y", "gap_Z"):
        assert np.array_equal(getattr(one.optimal, name),
                              getattr(two.optimal, name))
    for name in ("cost_estimate", "cost_stderr"):
        assert getattr(one.optimal, name) == getattr(two.optimal, name)
    assert np.array_equal(one.raw_turnpike.X, two.raw_turnpike.X)


_MOMENTS_CONFIG = SimulationConfig(T=2.0, dt=1e-2, n_paths=4096, seed=42)


@pytest.mark.parametrize("name", ["sp2", "sp2_C08", "all_blocks_4x2"])
def test_monte_carlo_cost_matches_exact_moments(request, name):
    # the exact expected cost of the same Euler chain is an oracle for
    # the estimate: it must lie within 4 standard errors.  With C = 0.8
    # the increments multiply the state, where two-point increments and
    # Gaussian ones differ most (in the fourth moments)
    p = request.getfixturevalue(name)
    config = _MOMENTS_CONFIG
    fb = solve_feedback(p, config.T, config.n_steps)
    x0 = [1.5] if p.n == 1 else fb.static.x_star + 1.0
    stats = run_coupled(fb, x0, config).optimal
    cost, _ = exact_moments(fb, x0, config)
    assert abs(stats.cost_estimate - cost) <= 4.0 * stats.cost_stderr


def test_noise_free_cost_is_the_exact_moment(spmf_b):
    # without noise every path is the mean path: the standard error is
    # rounding (about 1e-17), so the two costs agree to rounding
    config = _MOMENTS_CONFIG
    fb = solve_feedback(spmf_b, config.T, config.n_steps)
    stats = run_coupled(fb, [1.5], config).optimal
    cost, _ = exact_moments(fb, [1.5], config)
    assert abs(stats.cost_estimate - cost) <= 1e-12 * abs(cost)


def test_deterministic_adjoint_gap_is_the_exact_moment(sp2):
    # with C = D = 0 the adjoint Z is deterministic, so its Monte Carlo
    # gap series is exact
    config = _MOMENTS_CONFIG
    fb = solve_feedback(sp2, config.T, config.n_steps)
    stats = run_coupled(fb, [1.5], config).optimal
    _, gaps = exact_moments(fb, [1.5], config)
    assert np.all(gaps["gap_Z"] > 0.0)
    assert np.allclose(stats.gap_Z, gaps["gap_Z"], rtol=1e-12, atol=0.0)


def test_fast_mean_loop_costs_converge_at_first_order():
    # Ahat + Bhat ThetaHat has the eigenvalues -sqrt(2) +- 20i, so Euler
    # would not contract on it at dt = 0.01; the chain never iterates
    # it (the mean is marched by RK4), and the exact cost converges at
    # Euler's first order: each halving of dt halves the difference
    I2 = np.eye(2)
    p = make_problem(2, 2, A=-I2, Abar=[[0.0, 20.0], [-20.0, 0.0]], B=I2,
                     Q=I2, R=I2, b=[1.0, 0.0], sigma=[0.5, 0.5])
    costs = []
    for dt in (0.01, 0.005, 0.0025):
        config = SimulationConfig(T=1.0, dt=dt, n_paths=1)
        fb = solve_feedback(p, config.T, config.n_steps)
        costs.append(exact_moments(fb, [1.5, 0.0], config)[0])
    assert np.all(np.isfinite(costs))
    d = np.diff(costs)
    assert 1.8 <= d[0] / d[1] <= 2.6


def test_entry_points_take_exact_shapes(random_2x2):
    # a (2, 1) column where a vector of length 2 is due is refused,
    # naming the field, by every entry point that takes one
    p = random_2x2
    fb = solve_feedback(p, 1.0, 100)
    config = SimulationConfig(T=1.0, dt=0.01, n_paths=10)
    col, vec, P = [[1.0], [2.0]], [1.0, 2.0], fb.are.P
    calls = [
        ("x0", lambda: run_coupled(fb, col, config)),
        ("x0", lambda: simulate.closed_loop(fb, col, 1.0, 0.01)),
        ("x0", lambda: turnpike_pipeline(p, col, config)),
        ("x0", lambda: propagate_mean(p, fb.march, col, vec)),
        ("x_star", lambda: propagate_mean(p, fb.march, vec, col)),
        ("x", lambda: evaluate_F(p, P, col, vec)),
        ("u", lambda: evaluate_F(p, P, vec, col)),
        ("lambda_star", lambda: integrate_offsets(p, fb.are, fb.march,
                                                  col, vec)),
        ("sigma_star", lambda: integrate_offsets(p, fb.are, fb.march,
                                                 vec, col)),
    ]
    for field, call in calls:
        with pytest.raises(ValueError, match=(
                rf"^{field} must be of shape \(2,\), got \(2, 1\)$")):
            call()
    with pytest.raises(ValueError, match=r"^P must be of shape \(2, 2\)"):
        solve_static(p, P[:, :1])
