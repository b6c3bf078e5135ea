
import numpy as np
import pytest

from mflq import (
    AssumptionViolation,
    check_mean_system_stabilizability,
    make_problem,
    problem_from_dict,
    validate_assumption_a1,
)
from mflq.model import (
    coefficient_maps,
    hat_coefficient_maps,
    require_a1,
)

from paper_checks import normalize_cross_terms


def test_dimensions_positive():
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        make_problem(0, 1)
    with pytest.raises(ValueError, match="dimensions must be >= 1"):
        make_problem(2, -1)


def test_make_problem_defaults_to_zero():
    p = make_problem(2, 1, A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]])
    assert p.n == 2 and p.m == 1
    assert np.array_equal(p.Q, np.zeros((2, 2)))
    assert np.array_equal(p.Sbar, np.zeros((1, 2)))
    assert np.array_equal(p.sigma, np.zeros(2))


def test_make_problem_rejects_unknown_block():
    with pytest.raises(ValueError, match="unknown problem blocks"):
        make_problem(1, 1, A=[[1.0]], Abad=[[1.0]])


def test_shape_validation_names_block():
    with pytest.raises(ValueError, match=r"S must be of shape \(1, 2\)"):
        make_problem(2, 1, S=[[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError,
                       match=r"b must be of shape \(2,\), got \(3,\)"):
        make_problem(2, 1, b=[1.0, 2.0, 3.0])


def test_vectors_are_not_flattened():
    # a (2, 1) column is not a vector of length 2, nor a number one of
    # length 1; a ragged block is no array at all
    with pytest.raises(ValueError,
                       match=r"b must be of shape \(2,\), got \(2, 1\)"):
        make_problem(2, 1, b=[[1.0], [0.5]])
    with pytest.raises(ValueError, match=r"r must be of shape \(1,\)"):
        make_problem(2, 1, r=0.5)
    with pytest.raises(ValueError, match="A: expected numbers"):
        make_problem(2, 1, A=[[1.0, 0.0], [0.0]])


def test_nonfinite_data_rejected_naming_block():
    with pytest.raises(ValueError, match="R must be finite"):
        make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[np.nan]])
    with pytest.raises(ValueError, match="A must be finite"):
        make_problem(1, 1, A=[[np.inf]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])


def test_symmetry_validation():
    with pytest.raises(ValueError, match="Q must be symmetric"):
        make_problem(2, 1, Q=[[1.0, 0.5], [0.0, 1.0]])


def test_problem_from_dict_roundtrip():
    doc = {"n": 1, "m": 1, "A": [[-1.0]], "B": [[1.0]], "Q": [[1.0]],
           "R": [[1.0]], "b": [1.0], "sigma": [0.5]}
    p = problem_from_dict(doc)
    assert p.A[0, 0] == -1.0
    assert p.b[0] == 1.0
    assert p.sigma[0] == 0.5


def test_problem_from_dict_rejects_unknown_field():
    with pytest.raises(ValueError, match="unknown problem fields"):
        problem_from_dict({"n": 1, "m": 1, "Z": [[1.0]]})
    with pytest.raises(ValueError, match="'n' and 'm'"):
        problem_from_dict({"A": [[1.0]]})


def test_problem_hats(spmf):
    h = spmf.hats
    assert h.Ahat[0, 0] == pytest.approx(-0.5)
    assert h.Bhat[0, 0] == 1.0
    assert h.Qhat[0, 0] == 1.0


def _all_maps(problem, P, Pi):
    return (*coefficient_maps(problem, P),
            *hat_coefficient_maps(problem.hats, P, Pi))


def test_coefficient_maps_scalar(sp1):
    QofP, SofP, RofP, QhatOf, _, _ = _all_maps(sp1, np.array([[2.0]]),
                                              np.array([[3.0]]))
    # P A + A'P + Q = -4 + 1, B'P + S = 2, R + 0 = 1
    assert QofP[0, 0] == pytest.approx(-3.0)
    assert SofP[0, 0] == pytest.approx(2.0)
    assert RofP[0, 0] == pytest.approx(1.0)
    assert QhatOf[0, 0] == pytest.approx(-5.0)


def test_coefficient_maps_broadcast_over_stacks(random_2x2):
    G = np.random.default_rng(3).standard_normal((3, 2, 2))
    P = G @ np.swapaxes(G, 1, 2)
    Pi = P + np.eye(2)
    stacked = _all_maps(random_2x2, P, Pi)
    for k in range(3):
        single = _all_maps(random_2x2, P[k], Pi[k])
        for got, want in zip(stacked, single):
            assert np.allclose(got[k], want, rtol=0.0, atol=1e-13)


def test_a1_passes_on_standard_problems(sp1, sp2, spmf, random_2x2):
    for p in (sp1, sp2, spmf, random_2x2):
        failures = validate_assumption_a1(p)
        assert not failures, failures


def test_a1_failure_names_condition():
    p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]])  # R = 0
    failures = validate_assumption_a1(p)
    assert failures
    assert "R ≻ 0" in failures
    with pytest.raises(AssumptionViolation, match="A1 violated"):
        require_a1(p)


def test_a1_schur_failure():
    # R fine but Q - S'R^{-1}S = 1 - 4 < 0
    p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]],
                     S=[[2.0]])
    failures = validate_assumption_a1(p)
    assert failures
    assert any("Q − SᵀR⁻¹S" in f for f in failures)


def test_stabilizability_detects_uncontrollable_unstable_mode():
    good = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], R=[[1.0]]).hats
    assert not check_mean_system_stabilizability(good)
    bad = make_problem(1, 1, A=[[1.0]], Q=[[1.0]], R=[[1.0]]).hats
    violating = check_mean_system_stabilizability(bad)
    assert violating
    assert violating[0].real == pytest.approx(1.0)


def test_normalize_cross_terms_zeroes_S():
    p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], C=[[0.3]], D=[[0.2]],
                     Q=[[2.0]], R=[[1.0]], S=[[0.5]])
    q = normalize_cross_terms(p)
    assert np.array_equal(q.S, np.zeros((1, 1)))
    assert np.array_equal(q.Sbar, np.zeros((1, 1)))
    # A - B R^{-1} S, Q - S'R^{-1}S
    assert q.A[0, 0] == pytest.approx(-1.5)
    assert q.Q[0, 0] == pytest.approx(1.75)
    # hats of the transform equal the transformed hats
    hq = q.hats
    assert hq.Ahat[0, 0] == pytest.approx(-1.5)
    assert hq.Qhat[0, 0] == pytest.approx(1.75)


def test_normalize_cross_terms_singular_R():
    p = make_problem(1, 1, A=[[-1.0]], B=[[1.0]], Q=[[1.0]], S=[[0.5]])
    with pytest.raises(AssumptionViolation):
        normalize_cross_terms(p)
