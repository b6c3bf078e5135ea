import collections
import math
from dataclasses import fields

import numpy as np
import pytest

from mflq import (
    ArePair,
    SimulationConfig,
    StaticSolution,
    block_psd_check,
    fit_turnpike_decay,
    integral_turnpike,
    lemma_suite,
    make_problem,
    matrix_contraction_check,
)
from mflq import model, riccati, static_opt
from mflq.analysis import (
    LOG_FLOOR,
    TOLERANCES,
    ValueRow,
    turnpike_pipeline,
    value_convergence,
)


def test_tolerances_are_the_module_constants():
    # one definiteness tolerance, defined in model and read by riccati
    assert riccati.PD_TOL is model.PD_TOL
    assert TOLERANCES == {
        "symmetry": model.SYMMETRY_TOL,
        "positive_definite": riccati.PD_TOL,
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


def test_fit_recovers_synthetic_two_sided_decay():
    T = 10.0
    t = np.linspace(0.0, T, 2001)
    g = 2.0 * np.exp(-3.0 * t) + 2.0 * np.exp(-3.0 * (T - t))
    left, right = fit_turnpike_decay(g, T, t)
    for fit in (left, right):
        assert fit.K == pytest.approx(2.0, rel=0.02)
        assert fit.lam == pytest.approx(3.0, rel=0.02)
        assert fit.r_squared > 0.999
    assert left.window == (0.5, 4.5)


def test_fit_flags_constant_series():
    left, right = fit_turnpike_decay(np.ones(501), 10.0,
                                     np.linspace(0.0, 10.0, 501))
    assert abs(left.lam) < 1e-6 or left.r_squared < 0.1


def test_fit_rejects_bad_inputs():
    with pytest.raises(ValueError, match="T must be positive"):
        fit_turnpike_decay(np.ones(10), 0.0, np.linspace(0.0, 0.0, 10))
    with pytest.raises(ValueError, match="nonnegative"):
        fit_turnpike_decay(np.array([1.0, -1.0, 1.0]), 1.0,
                           np.linspace(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="window too sparse"):
        fit_turnpike_decay(np.ones(6), 10.0, np.linspace(0.0, 10.0, 6))


def test_fit_floors_tiny_values():
    T = 10.0
    t = np.linspace(0.0, T, 1001)
    g = np.exp(-3.0 * t)  # underflows the floor on the right half
    left, _ = fit_turnpike_decay(g, T, t)
    assert left.lam == pytest.approx(3.0, rel=0.02)


def test_integral_turnpike_examples():
    assert integral_turnpike(np.full(101, 3.0), 5.0,
                             np.linspace(0.0, 5.0, 101)) == pytest.approx(3.0)
    T = 10.0
    t = np.linspace(0.0, T, 20001)
    g = np.exp(-t) + np.exp(-(T - t))
    expect = 2.0 / T * (1.0 - math.exp(-T))
    assert integral_turnpike(g, T, t) == pytest.approx(expect, rel=1e-6)
    with pytest.raises(ValueError, match="T must be positive"):
        integral_turnpike(np.ones(3), -1.0, np.linspace(0.0, -1.0, 3))


def test_contraction_check():
    holds, top = matrix_contraction_check(np.zeros((2, 3)), np.eye(3))
    assert holds and top == pytest.approx(0.0)
    holds, top = matrix_contraction_check(np.array([[1.0]]),
                                          np.array([[1.0]]))
    assert holds and top == pytest.approx(0.5)
    with pytest.raises(ValueError, match="positive definite"):
        matrix_contraction_check(np.eye(2), -np.eye(2))


def test_block_psd_check(sp1):
    hats = sp1.hats
    holds, low = block_psd_check(hats, np.zeros((1, 1)))
    assert holds and low == pytest.approx(1.0)  # diag(Qhat, Rhat)
    holds, low = block_psd_check(hats, np.array([[1.0]]))
    assert holds and low == pytest.approx(1.0)  # C = D = 0
    # Delta is judged by the one definiteness tolerance, model.PD_TOL
    holds, _ = block_psd_check(hats, np.array([[-0.5 * model.PD_TOL]]))
    assert holds
    for low in (-1.0, -1e-9):
        with pytest.raises(ValueError, match="positive semidefinite"):
            block_psd_check(hats, np.array([[low]]))


def test_lemma_checks_read_exact_shapes():
    # nothing is broadcast: a row for an n = 2 Delta, a vector M and a
    # scalar K are refused by name, not symmetrized or solved
    hats = make_problem(2, 1, A=-np.eye(2), B=[[1.0], [0.0]],
                        Q=np.eye(2), R=[[1.0]]).hats
    with pytest.raises(ValueError, match=r"Delta must be of shape \(2, 2\)"):
        block_psd_check(hats, [1.0, 2.0])
    with pytest.raises(ValueError, match="M must be of shape"):
        matrix_contraction_check([1.0, 2.0, 3.0], 2.0)
    with pytest.raises(ValueError, match=r"K must be of shape \(3, 3\)"):
        matrix_contraction_check([[1.0, 2.0, 3.0]], 2.0)


def test_lemma_suite_small():
    counts = lemma_suite(trials=50, seed=42)
    assert counts == {"trials": 50, "contraction_pass": 50,
                      "block_psd_pass": 50}


def test_lemma_suite_deterministic():
    assert lemma_suite(trials=20, seed=1) == lemma_suite(trials=20, seed=1)


def test_trivial_problem_report(sp1):
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=200, seed=4)
    report = turnpike_pipeline(sp1, [0.0], cfg)[0]
    assert report["schema"] == 5
    assert report["trivial_problem"] is True
    assert report["gaps"]["decay_fits"] == {}
    assert max(abs(v) for v in report["gaps"]["gap_X"]) < 1e-20
    assert report["static"]["V"] == pytest.approx(0.0, abs=1e-14)


def test_pipeline_report_sections(sp2):
    cfg = SimulationConfig(T=4.0, dt=0.01, n_paths=1000, seed=4)
    report, res = turnpike_pipeline(sp2, [1.5], cfg)
    assert report["trivial_problem"] is False
    # A1 is enforced by solve_are before any report exists
    assert "assumption_a1" not in report
    assert "tolerances" in report
    assert report["config"]["n_paths"] == 1000
    assert report["static"]["x_star"] == pytest.approx([0.5])
    assert report["riccati"]["residual_P"] <= 1e-10
    gaps = report["gaps"]
    assert len(gaps["t"]) == len(gaps["gap_X"]) == len(gaps["gap_Y"])
    assert gaps["midpoint_gap"] < gaps["gap_X"][0] + gaps["gap_u"][0]
    assert res.optimal.gap_X is not None
    # value section consistent with the ensemble cost
    assert report["value"]["estimate_over_T"] == pytest.approx(
        res.optimal.cost_estimate / 4.0)


def test_pipeline_report_blocks_are_the_records(sp2):
    cfg = SimulationConfig(T=2.0, dt=0.01, n_paths=100, seed=4)
    report, res = turnpike_pipeline(sp2, [1.5], cfg)
    assert set(report["riccati"]) == {f.name for f in fields(ArePair)} | {
        "profile_t", "profile_err_P", "profile_err_Pi", "march_step",
        "march_steps", "march_error_estimate"}
    assert set(report["static"]) == {f.name for f in fields(StaticSolution)}
    # one ValueRow: T is the report's horizon, avg_gap sits with the gaps
    assert set(report["value"]) | {"T", "avg_gap"} == {
        f.name for f in fields(ValueRow)}
    assert report["gaps"]["avg_gap"] == integral_turnpike(
        res.optimal.gap_X + res.optimal.gap_u, 2.0, res.optimal.mesh)


def test_pipeline_mean_field_static_section(spmf_b):
    cfg = SimulationConfig(T=4.0, dt=0.01, n_paths=200, seed=4)
    report, _ = turnpike_pipeline(spmf_b, [1.5], cfg)
    assert report["static"]["x_star"] == pytest.approx([0.4], abs=1e-10)
    assert report["static"]["u_star"] == pytest.approx([-0.8], abs=1e-10)
    assert report["static"]["lambda_star"] == pytest.approx([0.8], abs=1e-10)


def test_value_convergence_marches_once(sp2, monkeypatch):
    # one Feedback, marched to the longest horizon, serves every horizon;
    # its Riccati march at k dt (k = 2 here) comes with one twin at 2k dt
    calls = collections.Counter()
    for module, name in ((riccati, "solve_are"),
                         (static_opt, "solve_static"),
                         (riccati, "integrate_finite_horizon"),
                         (riccati, "integrate_offsets")):
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=50, seed=1)
    rows = value_convergence(sp2, [1.5], (0.5, 1.0, 2.0), cfg)
    assert [row.T for row in rows] == [0.5, 1.0, 2.0]
    assert calls == {"solve_are": 1, "solve_static": 1,
                     "integrate_finite_horizon": 2, "integrate_offsets": 1}


def test_value_convergence_row_ignores_longer_horizons(sp2):
    # the T = 1 row read off the tail of a march to 2 equals the row of
    # a march to 1
    cfg = SimulationConfig(T=1.0, dt=0.01, n_paths=200, seed=3)
    alone = value_convergence(sp2, [1.5], (1.0,), cfg)
    both = value_convergence(sp2, [1.5], (1.0, 2.0), cfg)
    assert both[0] == alone[0]
