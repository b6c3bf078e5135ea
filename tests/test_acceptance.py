"""End-to-end acceptance suite.

Each test pins one advertised guarantee of the package: closed-form
scalar oracles for the stationary solutions, exponential-decay
properties of the finite-horizon solutions, Monte Carlo turnpike
behavior of the coupled ensembles, and the reproducibility contract of
the command-line driver.  Runtime budgets are asserted where a
guarantee includes one.
"""

import json
import math
import time

import numpy as np
import pytest

from mflq import (
    SimulationConfig,
    convergence_profile,
    evaluate_F,
    fit_turnpike_decay,
    integrate_finite_horizon,
    lemma_suite,
    make_problem,
    run_coupled,
    solve_are,
    solve_feedback,
    solve_static,
)
from mflq.analysis import value_convergence
from mflq.cli import main as cli_main
from mflq.model import _SHAPES
from mflq.simulate import PATH_CHUNK

from paper_checks import (
    exact_moments,
    horizon_monotonicity_check,
    kkt_residual,
    normalize_cross_terms,
)

SQRT2 = math.sqrt(2.0)
SQRT5 = math.sqrt(5.0)


@pytest.fixture(scope="module")
def coupled_runs(sp2, spmf_b):
    """Coupled T=10 ensembles (dt=1e-3, 10^4 paths) shared by the
    turnpike and adjoint tests, and their feedbacks under "feedback";
    wall time recorded."""
    runs = {"feedback": {}}
    t0 = time.monotonic()
    for name, problem in (("sp2", sp2), ("spmf_b", spmf_b)):
        feedback = solve_feedback(problem, 10.0, 10_000)
        cfg = SimulationConfig(T=10.0, dt=1e-3, n_paths=10_000, seed=42)
        runs[name] = run_coupled(feedback, [1.5], cfg)
        runs["feedback"][name] = feedback
    runs["elapsed"] = time.monotonic() - t0
    return runs


@pytest.fixture(scope="module")
def horizon_rows(sp2):
    """Value-convergence table over T in (10, 20, 40); wall time
    recorded."""
    cfg = SimulationConfig(T=10.0, dt=1e-3, n_paths=10_000, seed=42)
    t0 = time.monotonic()
    rows = value_convergence(sp2, [1.5], (10.0, 20.0, 40.0), cfg)
    return rows, time.monotonic() - t0


def test_stationary_riccati_oracles(sp1, spmf):
    t0 = time.monotonic()
    are1 = solve_are(sp1)
    are_mf = solve_are(spmf)
    elapsed = time.monotonic() - t0
    golden = SQRT2 - 1.0
    assert abs(are1.P[0, 0] - golden) <= 1e-8
    assert abs(are1.Pi[0, 0] - golden) <= 1e-8
    assert abs(are_mf.Pi[0, 0] - (SQRT5 - 1.0) / 2.0) <= 1e-8
    for are in (are1, are_mf):
        assert max(are.residual_P, are.residual_Pi) <= 1e-10
    assert elapsed < 1.0


def test_riccati_profile_decay_rates(sp1, spmf, sp2_C08, all_blocks_4x2):
    t0 = time.monotonic()
    # rate None: the predicted rate itself, where no closed form is at hand
    cases = [
        (sp1, 1, 2.0 * SQRT2),   # state-weight profile
        (sp1, 2, 2.0 * SQRT2),   # mean-weight profile, no coupling
        (spmf, 1, 2.0 * SQRT2),
        (spmf, 2, SQRT5),        # mean-weight profile under coupling
        (sp2_C08, 1, None),      # multiplicative state noise
        (sp2_C08, 2, None),
        (all_blocks_4x2, 1, None),
        (all_blocks_4x2, 2, None),
    ]
    paths = {}
    for problem, col, rate in cases:
        key = id(problem)
        if key not in paths:
            are = solve_are(problem)
            path = integrate_finite_horizon(problem, 10.0, steps=2000)
            paths[key] = are, convergence_profile(path, are)
        are, prof = paths[key]
        # err_P decays at mu_f, err_Pi at the slower of mu_f and mu_m
        predicted = are.mu_f if col == 1 else min(are.mu_f, are.mu_m)
        if rate is None:
            rate = predicted
        assert rate == pytest.approx(predicted, abs=1e-12)
        _, right = fit_turnpike_decay(prof[:, col], 10.0, prof[:, 0])
        assert right.r_squared > 0.98
        assert abs(right.lam - rate) / rate < 0.15
    assert time.monotonic() - t0 < 5.0


def test_static_oracles_and_optimality(sp2, spmf_b):
    t0 = time.monotonic()
    are2 = solve_are(sp2)
    sol2 = solve_static(sp2, are2.P)
    assert abs(sol2.x_star[0] - 0.5) <= 1e-10
    assert abs(sol2.u_star[0] + 0.5) <= 1e-10
    assert abs(sol2.lambda_star[0] - 0.5) <= 1e-10
    assert abs(sol2.V - (0.5 + 0.25 * (SQRT2 - 1.0))) <= 1e-10
    are_mf = solve_are(spmf_b)
    sol_mf = solve_static(spmf_b, are_mf.P)
    assert abs(sol_mf.x_star[0] - 0.4) <= 1e-10
    assert abs(sol_mf.u_star[0] + 0.8) <= 1e-10
    assert abs(sol_mf.lambda_star[0] - 0.8) <= 1e-10
    assert abs(sol_mf.V - 0.8) <= 1e-10
    for p, are, sol in ((sp2, are2, sol2), (spmf_b, are_mf, sol_mf)):
        assert max(kkt_residual(p, are.P, sol)) <= 1e-10
    # random feasible perturbations never beat the optimum; the feasible
    # directions satisfy Ahat dx + Bhat du = 0
    rng = np.random.default_rng(42)
    for p, are, sol, slope in ((sp2, are2, sol2, 1.0),
                               (spmf_b, are_mf, sol_mf, 0.5)):
        for t in rng.uniform(-2.0, 2.0, 500):
            val = evaluate_F(p, are.P, sol.x_star + t,
                             sol.u_star + slope * t)
            assert val >= sol.V - 1e-12
    assert time.monotonic() - t0 < 2.0


def _gap_indices(mesh):
    return (np.argmin(np.abs(mesh - 0.5)), len(mesh) // 2,
            np.argmin(np.abs(mesh - (mesh[-1] - 0.5))))


def test_strong_turnpike(coupled_runs):
    for name in ("sp2", "spmf_b"):
        res = coupled_runs[name]
        stats = res.optimal
        gap = stats.gap_X + stats.gap_u
        i_lo, i_mid, i_hi = _gap_indices(stats.mesh)
        assert gap[i_mid] < min(gap[i_lo], gap[i_hi]) / 5.0
        left, right = fit_turnpike_decay(gap, 10.0, stats.mesh)
        for fit in (left, right):
            assert 1.5 <= fit.lam <= 4.5
        # the left rate is the slower of the fluctuation and mean decay
        # rates of the stationary closed loop (the right one is not
        # derived in general)
        are = coupled_runs["feedback"][name].are
        predicted = min(are.mu_f, are.mu_m)
        assert abs(left.lam / predicted - 1.0) <= 0.01
        # fitted envelope with 3x slack dominates at >= 95% of nodes
        K_hat = 3.0 * max(left.K, right.K)
        lam_hat = min(left.lam, right.lam)
        t = stats.mesh
        envelope = K_hat * (np.exp(-lam_hat * t)
                            + np.exp(-lam_hat * (10.0 - t)))
        assert np.mean(gap <= envelope) >= 0.95
    assert coupled_runs["elapsed"] < 60.0


def test_adjoint_turnpike(coupled_runs):
    for name in ("sp2", "spmf_b"):
        stats = coupled_runs[name].optimal
        adj = stats.gap_Y + stats.gap_Z
        i_lo, i_mid, i_hi = _gap_indices(stats.mesh)
        assert adj[i_mid] < adj[i_lo]
        assert adj[i_mid] < adj[i_hi]


def test_value_convergence(horizon_rows):
    rows, elapsed = horizon_rows
    diffs = [abs(r.difference) for r in rows]
    assert diffs[0] > diffs[1] > diffs[2]
    last = rows[-1]
    assert diffs[2] <= 0.1 + 3.0 * last.stderr_over_T + 0.02 * last.V
    assert elapsed < 300.0


def test_integral_turnpike_average_decreases(horizon_rows):
    rows, _ = horizon_rows
    gaps = [r.avg_gap for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


def test_lemma_suites():
    t0 = time.monotonic()
    counts = lemma_suite(trials=1000, seed=42)
    assert counts["contraction_pass"] == 1000
    assert counts["block_psd_pass"] == 1000
    assert time.monotonic() - t0 < 5.0


def test_normalization_invariance():
    p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], C=[[0.3]], D=[[0.2]],
                     Q=[[2.0]], R=[[1.0]], S=[[0.5]])
    q = normalize_cross_terms(p)
    path_p = integrate_finite_horizon(p, 5.0, steps=5000)
    path_q = integrate_finite_horizon(q, 5.0, steps=5000)
    assert np.max(np.abs(path_p.P_of_t - path_q.P_of_t)) <= 1e-8
    assert np.max(np.abs(path_p.Pi_of_t - path_q.Pi_of_t)) <= 1e-8


def test_monotone_horizon_limits(sp1, spmf, random_2x2):
    for problem in (sp1, spmf, random_2x2):
        _, verdict = horizon_monotonicity_check(
            problem, (1.0, 2.0, 4.0, 8.0), steps_per_unit=1000)
        assert verdict


def test_value_identity(sp2, spmf_b):
    # J_T(x0) = <Pi_T(0) d, d> + 2 <phiHat_T(0) + lam*, d> + c_T with
    # d = x0 - x*.  With C = D = 0 the quadratic coefficient is the same
    # on every path under common random numbers, so the second difference
    # is exact up to the O(dt) Euler bias; the first difference carries
    # the paths' noise (spmf_b has none, so 64 paths suffice)
    T, dt = 6.0, 2e-3
    for problem, n_paths in ((sp2, 2048), (spmf_b, 64)):
        cfg = SimulationConfig(T=T, dt=dt, n_paths=n_paths, seed=5)
        feedback = solve_feedback(problem, T, cfg.n_steps)
        static, path = feedback.static, feedback.march
        runs = {d: run_coupled(feedback, static.x_star + d, cfg).optimal
                for d in (-1.0, 0.0, 1.0)}
        J = {d: stats.cost_estimate for d, stats in runs.items()}
        quad = (J[1.0] - 2.0 * J[0.0] + J[-1.0]) / 2.0
        lin = (J[1.0] - J[-1.0]) / 4.0
        assert abs(quad - path.Pi_of_t[0, 0, 0]) <= dt
        se = math.hypot(runs[1.0].cost_stderr, runs[-1.0].cost_stderr)
        want = path.phiHat_of_t[0, 0] + static.lambda_star[0]
        assert abs(lin - want) <= dt + 3.0 * se / 4.0


def test_value_identity_on_exact_moments(sp2, spmf_b):
    # the same identity on the exact expectations of the Euler chain
    # (paper_checks.exact_moments), free of path noise: quad and lin
    # carry an O(dt) Euler bias (-5.9e-4 and -7.1e-4 on sp2 at dt = 2e-3),
    # which Richardson extrapolation from dt = 2e-3 and 1e-3 removes to
    # below 5e-7.  lambda* scaled by 1.01 misses by 5.0e-3 on sp2
    T = 6.0
    for problem in (sp2, spmf_b):
        est = []
        for dt in (2e-3, 1e-3):
            cfg = SimulationConfig(T=T, dt=dt)
            feedback = solve_feedback(problem, T, cfg.n_steps)
            static, path = feedback.static, feedback.march
            J = {d: exact_moments(feedback, static.x_star + d, cfg)[0]
                 for d in (-1.0, 0.0, 1.0)}
            est.append(np.array([(J[1.0] - 2.0 * J[0.0] + J[-1.0]) / 2.0,
                                 (J[1.0] - J[-1.0]) / 4.0]))
        quad, lin = 2.0 * est[1] - est[0]
        assert abs(quad - path.Pi_of_t[0, 0, 0]) <= 1e-5
        want = path.phiHat_of_t[0, 0] + static.lambda_star[0]
        assert abs(lin - want) <= 1e-5


def _determinism_blobs(tmp_path, command, doc, artifacts, worker_counts):
    """The concatenated artifacts of one CLI run per worker count."""
    blobs = []
    for i, workers in enumerate(worker_counts):
        cfgfile = tmp_path / f"{command}{i}.json"
        cfgfile.write_text(json.dumps({**doc, "workers": workers}))
        out = tmp_path / f"{command}{i}"
        assert cli_main([command, "--config", str(cfgfile),
                        "--out", str(out)]) == 0
        blobs.append(b"".join((out / name).read_bytes()
                              for name in artifacts))
    return blobs


def test_artifact_determinism_across_workers(tmp_path, all_blocks_4x2):
    problem = {"n": 1, "m": 1, "A": [[-1.0]], "B": [[1.0]], "Q": [[1.0]],
               "R": [[1.0]], "b": [1.0], "sigma": [0.5]}
    doc = {"problem": problem, "T": 2.0, "x0": [1.5], "dt": 0.01,
           "n_paths": 10_000}
    blobs = _determinism_blobs(
        tmp_path, "turnpike", doc, ("turnpike_report.json", "ensemble.csv"),
        (1, 8, 1))
    assert blobs[0] == blobs[1] == blobs[2]
    # m = 2, where the loops' sums over the controls round; two chunks
    p = all_blocks_4x2
    problem = {"n": p.n, "m": p.m, **{name: getattr(p, name).tolist()
                                      for name in _SHAPES}}
    doc = {"problem": problem, "horizons": [0.5, 1.0], "x0": [1.0] * p.n,
           "dt": 0.05, "n_paths": PATH_CHUNK + 17}
    blobs = _determinism_blobs(
        tmp_path, "value-convergence", doc,
        ("value_convergence.json", "value_convergence.csv"), (1, 2))
    assert blobs[0] == blobs[1]
