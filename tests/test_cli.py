import json
import math
from dataclasses import fields

import numpy as np
import pytest

from mflq import ArePair, StaticSolution, cli, riccati, simulate
from mflq.cli import load_config, main

SP1 = {"n": 1, "m": 1, "A": [[-1.0]], "B": [[1.0]], "Q": [[1.0]],
       "R": [[1.0]]}
SP2 = dict(SP1, b=[1.0], sigma=[0.5])


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_load_config_defaults(tmp_path):
    path = _write(tmp_path, {"problem": SP2, "T": 2.0, "x0": [1.5]})
    cfg = load_config(path)
    assert cfg.sim.dt == 1e-3
    assert cfg.sim.n_paths == 10_000
    assert cfg.sim.seed == 42
    assert len(cfg.digest) == 64
    # a command that marches nothing has no mesh, but keeps the seed
    cfg = load_config(path, command="lemma-suite")
    assert cfg.sim is None
    assert cfg.seed == 42


def test_load_config_overrides(tmp_path):
    path = _write(tmp_path, {"problem": SP2, "T": 2.0, "x0": [1.5]})
    cfg = load_config(path, overrides={"seed": 7, "n_paths": 100,
                                       "dt": 0.01, "T": 4.0})
    assert cfg.sim.seed == 7
    assert cfg.sim.n_paths == 100
    assert cfg.sim.T == 4.0


def test_digest_ignores_workers(tmp_path):
    base = {"problem": SP2, "T": 2.0, "x0": [1.5]}
    d1 = load_config(_write(tmp_path, base, "a.json")).digest
    d8 = load_config(_write(tmp_path, dict(base, workers=8),
                            "b.json")).digest
    d_other = load_config(_write(tmp_path, dict(base, seed=1),
                                 "c.json")).digest
    assert d1 == d8
    assert d1 != d_other


def test_missing_required_fields(tmp_path):
    with pytest.raises(ValueError, match="T: required"):
        load_config(_write(tmp_path, {"problem": SP2}), command="turnpike")
    with pytest.raises(ValueError, match="x0: required"):
        load_config(_write(tmp_path, {"problem": SP2, "T": 1.0}),
                    command="turnpike")
    with pytest.raises(ValueError, match="horizons: required"):
        load_config(_write(tmp_path, {"problem": SP2, "x0": [1.0]}),
                    command="value-convergence")


def test_exit_code_2_on_malformed_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["are", "--config", str(bad)]) == 2
    assert "malformed JSON" in capsys.readouterr().err


def test_exit_code_3_on_shape_error(tmp_path, capsys):
    doc = {"problem": dict(SP1, A=[[-1.0], [0.0], [0.0]])}
    assert main(["are", "--config", _write(tmp_path, doc)]) == 3
    assert "problem: A" in capsys.readouterr().err


@pytest.mark.parametrize("block, value", [("R", [[math.nan]]),
                                          ("A", [[math.inf]])])
def test_exit_code_3_on_nonfinite_data(tmp_path, capsys, block, value):
    doc = {"problem": dict(SP1, **{block: value})}
    assert main(["are", "--config", _write(tmp_path, doc)]) == 3
    assert f"problem: {block} must be finite" in capsys.readouterr().err


def test_exit_code_3_on_unknown_field(tmp_path, capsys):
    doc = {"problem": SP1, "Tmax": 3.0}
    assert main(["are", "--config", _write(tmp_path, doc)]) == 3
    # the ensembles are always coupled; the old switch is not a field
    doc = {"problem": SP2, "T": 1.0, "x0": [1.5], "dt": 0.01,
           "n_paths": 10, "coupled": False}
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 3
    assert "unknown config fields: ['coupled']" in capsys.readouterr().err


@pytest.mark.parametrize("problem, message", [
    (dict(SP1, n=1.5, m=True), "problem: n: expected an integer, got 1.5"),
    (dict(SP1, n="1"), "problem: n: expected an integer, got '1'"),
    (dict(SP1, A=[["-1.0"]]),
     "problem: A: expected a number, got '-1.0'"),
    (dict(SP1, A=[[True]]), "problem: A: expected a number, got True"),
    (dict(SP1, n=[1]), "problem: n: expected an integer, got [1]"),
    (5, "problem: expected a JSON object, got 5"),
])
def test_exit_code_3_on_malformed_problem(tmp_path, capsys, problem,
                                          message):
    # the dimensions are integral JSON numbers and every block entry a
    # JSON number: nothing is truncated or parsed from a string
    doc = {"problem": problem, "T": 1.0, "x0": [1.5], "dt": 0.1,
           "n_paths": 10}
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("horizons, message", [
    ([1.0, 0.5], "dt=0.2 does not divide T=0.5"),
    ([1.0, -2.0], "must be positive"),
    ([], "horizons: expected a non-empty list"),
    (2.0, "horizons: expected a non-empty list"),
    ([2.0, 1.0], "horizons: must be strictly increasing"),
])
def test_exit_code_3_on_bad_horizons(tmp_path, capsys, horizons, message):
    doc = {"problem": SP2, "horizons": horizons, "x0": [1.5], "dt": 0.2,
           "n_paths": 10}
    assert main(["value-convergence", "--config", _write(tmp_path, doc)]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, field, value, message", [
    ("turnpike", "x0", [None], "x0: expected a finite number, got None"),
    ("turnpike", "x0", [math.inf], "x0: expected a finite number, got inf"),
    ("turnpike", "T", math.nan, "T: expected a finite number, got nan"),
    ("turnpike", "dt", None, "dt: expected a finite number, got None"),
    ("value-convergence", "horizons", [1.0, math.inf],
     "horizons: expected a finite number, got inf"),
    ("turnpike", "n_paths", 1.5, "n_paths: expected an integer, got 1.5"),
    ("turnpike", "seed", 2.5, "seed: expected an integer, got 2.5"),
    ("turnpike", "workers", 1.5, "workers: expected an integer, got 1.5"),
    ("lemma-suite", "trials", 2.5, "trials: expected an integer, got 2.5"),
    # a present field keeps its type check where no mesh is built
    ("are", "dt", math.inf, "dt: expected a finite number, got inf"),
    ("turnpike", "T", 1e308, "T/dt must be finite"),
    ("turnpike", "dt", 1e-320, "T/dt must be finite"),
    ("lemma-suite", "seed", -1, "seed: must be >= 0, got -1"),
    ("turnpike", "seed", -1, "seed: must be >= 0, got -1"),
    # the Philox key is 64 bits: 2^64 + 42 would draw seed 42's paths
    ("turnpike", "seed", 2**64 + 42,
     "seed: must be < 2**64, got 18446744073709551658"),
])
def test_exit_code_3_on_nonfinite_or_fractional_field(
        tmp_path, capsys, command, field, value, message):
    doc = {"problem": SP2, "T": 1.0, "horizons": [1.0], "x0": [1.5],
           "dt": 0.1, "n_paths": 10, field: value}
    assert main([command, "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert not (tmp_path / "out").exists()


def test_integral_float_counts_are_accepted(tmp_path):
    doc = {"problem": SP2, "T": 1.0, "x0": [1.5], "n_paths": 100.0,
           "seed": 3.0}
    cfg = load_config(_write(tmp_path, doc))
    assert (cfg.sim.n_paths, cfg.sim.seed) == (100, 3)


@pytest.mark.parametrize("trials", [0, -3])
def test_exit_code_3_on_nonpositive_trials(tmp_path, capsys, trials):
    doc = {"problem": SP1, "trials": trials}
    assert main(["lemma-suite", "--config", _write(tmp_path, doc)]) == 3
    assert f"trials: must be >= 1, got {trials}" in capsys.readouterr().err


# each case fails the work estimate in load_config, before anything is
# allocated or any thread starts
@pytest.mark.parametrize("command, fields, message", [
    ("riccati-profile", {"T": 1e300}, "T: a march of 1e+303 nodes"),
    ("turnpike", {"T": 1e9, "dt": 1.0}, "T: a march of 1e+09 nodes"),
    ("value-convergence", {"horizons": [1.0, 1e9], "dt": 1.0},
     "horizons: a march of 1e+09 nodes"),
    ("turnpike", {"T": 0.02, "dt": 0.01, "n_paths": 10**12},
     "n_paths: the snapshot buffer of 1000000000000 paths"),
    ("turnpike", {"T": 100.0, "dt": 1e-3, "n_paths": 2 * 10**5},
     "n_paths: 200000 paths make 2e+10 path-steps"),
    ("value-convergence", {"horizons": [50.0, 100.0], "dt": 1e-3,
                           "n_paths": 10**5},
     "n_paths: 100000 paths make 1.5e+10 path-steps"),
    ("lemma-suite", {"trials": 10**7}, "trials: must be <= 1000000"),
], ids=["profile-T", "turnpike-T", "horizons", "snapshot", "path-steps",
        "path-steps-over-horizons", "trials"])
def test_exit_code_3_above_work_caps(tmp_path, capsys, command, fields,
                                     message):
    doc = {"problem": SP2, "x0": [1.5], **fields}
    assert main([command, "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_snapshot_cap_estimates_the_record_run_coupled_holds(tmp_path):
    # the estimate load_config checks is the size of the per-path record
    # that run_coupled returns, so the cap cannot drift from the buffer
    problem = {"n": 2, "m": 1, "A": [[-1.0, 0.2], [0.0, -0.5]],
               "B": [[0.0], [1.0]], "C": [[0.1, 0.0], [0.0, 0.2]],
               "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
               "b": [1.0, 0.0], "sigma": [0.3, 0.1]}
    doc = {"problem": problem, "T": 0.5, "dt": 0.01, "n_paths": 37,
           "x0": [1.0, -1.0]}
    cfg = load_config(_write(tmp_path, doc))
    fb = riccati.solve_feedback(cfg.problem, cfg.sim.T, cfg.sim.n_steps)
    res = simulate.run_coupled(fb, cfg.x0, cfg.sim)
    held = sum(a.nbytes for raw in (res.raw_optimal, res.raw_turnpike)
               for a in (raw.X, raw.u))
    assert cli._snapshot_bytes(cfg.problem, cfg.sim.n_paths) == held


def test_exit_code_5_on_memory_error(tmp_path, capsys, monkeypatch):
    def exhausted(problem):
        raise MemoryError("no room")
    monkeypatch.setattr(riccati, "solve_are", exhausted)
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1})]) == 5
    assert "out of memory: no room" in capsys.readouterr().err


def test_exit_code_5_on_memory_error_while_loading(tmp_path, capsys,
                                                    monkeypatch):
    def exhausted(doc):
        raise MemoryError("no room for the problem")
    monkeypatch.setattr(cli, "problem_from_dict", exhausted)
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1})]) == 5
    assert ("out of memory: no room for the problem"
            in capsys.readouterr().err)


def test_exit_code_5_on_linalg_error(tmp_path, capsys, monkeypatch):
    # numpy's LinAlgError is a ValueError, yet a numerical failure
    def singular(problem):
        raise np.linalg.LinAlgError("Singular matrix")
    monkeypatch.setattr(riccati, "solve_are", singular)
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1})]) == 5
    assert "error: Singular matrix" in capsys.readouterr().err


@pytest.mark.parametrize("out", [[1, 2], 5, True])
def test_exit_code_3_on_non_string_out(tmp_path, capsys, monkeypatch, out):
    # str() would make a directory named "[1, 2]", "5" or "True"
    monkeypatch.chdir(tmp_path)
    doc = {"problem": SP1, "out": out}
    assert main(["are", "--config", _write(tmp_path, doc)]) == 3
    assert f"out: expected a string, got {out!r}" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("horizon, code", [("0.11", 3), ("0.12", 0)])
def test_turnpike_horizon_must_hold_the_fit_windows(tmp_path, capsys,
                                                    horizon, code):
    # 11 steps leave 4 nodes in [0.05T, 0.45T], one short of the fit's
    # MIN_WINDOW_NODES: rejected at load, before any solve
    out = tmp_path / "out"
    assert main(["turnpike", "--config", _write(tmp_path, {
        "problem": SP2, "T": 10.0, "x0": [1.5]}), "--horizon", horizon,
        "--dt", "0.01", "--paths", "10", "--out", str(out)]) == code
    assert out.exists() == (code == 0)
    if code:
        assert "T: 11 steps are too few for the decay fits" in (
            capsys.readouterr().err)


def test_every_accepted_horizon_runs(tmp_path, capsys):
    # each horizon is a whole number of steps dt to within rounding, but
    # not of the march step T_long / K_long, which differs from dt
    doc = {"problem": SP2, "horizons": [1.0000000000009, 1.9999999999982],
           "x0": [1.5], "dt": 0.1, "n_paths": 10}
    assert main(["value-convergence", "--config", _write(tmp_path, doc)]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["T"] for row in rows] == doc["horizons"]


_RUN = {"T": 1.0, "x0": [1.5], "dt": 0.01, "n_paths": 10}
# a nested or bare value where a vector is due, and the field it names
_SHAPE_CASES = [
    ("b", {"problem": dict(SP2, b=[[1.0]]), **_RUN}),
    ("b", {"problem": dict(SP2, b=1.0), **_RUN}),
    ("sigma", {"problem": dict(SP2, sigma=[[0.5]]), **_RUN}),
    ("x0", {"problem": SP2, **_RUN, "x0": [[1.5]]}),
    ("x0", {"problem": SP2, **_RUN, "x0": 1.5}),
]
_SHAPE_IDS = ["b-nested", "b-bare", "sigma-nested", "x0-nested", "x0-bare"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command, doc", [
    ("are", {"problem": dict(SP1, Q=[[1e200]])}),
    ("static", {"problem": dict(SP1, B=[[1e200]])}),
    ("turnpike", {"problem": SP2, **_RUN, "T": 0.11}),
    ("lemma-suite", {"problem": SP1, "seed": -1, "trials": 5}),
    ("are", {"problem": SP1, "out": [1, 2]}),
    ("turnpike", {"problem": dict(SP2, n=2, A=[[-1.0, 0.0], [0.0]]),
                  **_RUN}),
    ("turnpike", {"problem": dict(SP2, A="-1.0"), **_RUN}),
    ("turnpike", {"problem": dict(SP2, A=None), **_RUN}),
    ("turnpike", {"problem": dict(SP2, A=-1.0), **_RUN}),
    ("turnpike", {"problem": SP2, **_RUN, "x0": [math.nan]}),
    ("value-convergence", {"problem": SP2, **_RUN, "horizons": [1.0],
                           "x0": [math.inf]}),
    ("turnpike", {"problem": dict(SP2, sigma=[1e200]), **_RUN}),
    ("turnpike", {"problem": dict(SP2, C=[[50.0]]), **_RUN}),
    ("turnpike", {"problem": dict(SP2, A=[[1.0]], B=[[0.0]]), **_RUN}),
    ("turnpike", {"problem": SP2, **_RUN, "seed": 2**64 + 42}),
    *(("turnpike", doc) for _, doc in _SHAPE_CASES),
], ids=["are-Q-1e200", "static-B-1e200", "turnpike-T-0.11",
        "seed-negative", "out-list", "ragged-block", "string-block",
        "null-block", "scalar-block", "x0-nan", "x0-inf", "sigma-1e200",
        "C-50", "unstabilizable", "seed-2^64+42", *_SHAPE_IDS])
def test_bad_input_ends_in_an_exit_code(tmp_path, capsys, monkeypatch,
                                        command, doc):
    # no traceback: every bad config ends in a documented failure code
    monkeypatch.chdir(tmp_path)
    doc = {"out": "out", **doc}
    assert main([command, "--config", _write(tmp_path, doc)]) in (2, 3, 4, 5)
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, doc", _SHAPE_CASES, ids=_SHAPE_IDS)
def test_exit_code_3_on_inexact_shape(tmp_path, capsys, field, doc):
    # every block and x0 has its exact shape: nothing is flattened
    out = tmp_path / "out"
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 3
    assert f"{field} must be of shape (1,), got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, doc", [
    ("turnpike", {"problem": dict(SP2, Q=[[1e6]]), "T": 1.6, "dt": 1.6e-3,
                  "x0": [1.5], "n_paths": 200}),
    ("riccati-profile", {"problem": dict(SP1, C=[[50.0]]), "T": 1.0,
                         "dt": 1 / 800}),
    ("riccati-profile", {"problem": dict(SP1, C=[[50.0]], Qbar=[[0.5]]),
                         "T": 1.0, "dt": 1 / 1500}),
], ids=["turnpike-Q-1e6", "profile-C-50", "profile-C-50-Qbar-0.5"])
def test_exit_code_3_on_an_unstable_march_step(tmp_path, capsys, command,
                                               doc):
    # each exited 0 with a wrong Riccati path: now refused before the
    # march, and nothing is written
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "outside RK4's stability region" in err
    assert "the largest stable step is" in err
    assert not out.exists()


_I2 = [[1.0, 0.0], [0.0, 1.0]]
# Ahat + Bhat ThetaHat has the eigenvalues -sqrt(2) +- 20i, so
# rho(I + dt (Ahat + Bhat ThetaHat)) > 1 for dt > 2 sqrt(2) / 402
_FAST_MEAN_LOOP = {
    "problem": {"n": 2, "m": 2, "A": [[-1.0, 0.0], [0.0, -1.0]],
                "Abar": [[0.0, 20.0], [-20.0, 0.0]], "B": _I2, "Q": _I2,
                "R": _I2, "b": [1.0, 0.0], "sigma": [0.5, 0.5]},
    "T": 1.0, "dt": 0.01, "x0": [1.5, 0.0], "n_paths": 200}


@pytest.mark.parametrize("doc, step", [
    ({"problem": dict(SP2, C=[[50.0]]), "T": 1.0, "dt": 5e-4,
      "x0": [1.5], "n_paths": 200}, "0.0004"),
], ids=["C-50"])
def test_exit_code_3_on_an_unstable_euler_step(tmp_path, capsys, doc, step):
    # C = 50, dt = 5e-4: the march is stable (largest step 5.46e-4), the
    # Euler chain is not (4.0e-4).  It exited 0 with a cost of 3.4e5
    # per unit time against V = 1.02: now refused before any path is
    # drawn, and no `out` is made
    out = tmp_path / "out"
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "outside the mean-square stability region" in err
    assert f"the largest stable step is {step}" in err
    assert not out.exists()


def test_a_fast_mean_loop_is_no_euler_step_fault(tmp_path):
    # Euler would not contract on the mean loop at dt = 0.01, but the
    # chain never iterates it: the mean is marched by RK4 and enters
    # the chain only as forcing, so the run is stable and its results
    # finite (a non-finite one exits 5)
    assert main(["turnpike", "--config", _write(tmp_path, _FAST_MEAN_LOOP),
                 "--out", str(tmp_path / "out")]) == 0


def test_exit_code_3_on_unusable_out(tmp_path, capsys):
    # an existing file cannot be the output directory
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1}),
                 "--out", str(out)]) == 3
    assert "error: out: " in capsys.readouterr().err
    assert out.read_text() == "kept\n"


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_exit_code_5_on_nonfinite_result(tmp_path, capsys):
    # the state stays finite, so the ensemble runs, but its second
    # moments and costs overflow: nothing may be written
    out = tmp_path / "out"
    doc = {"problem": SP2, "T": 1.0, "x0": [1e160], "dt": 0.01,
           "n_paths": 100}
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 5
    assert "non-finite result" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fields, message", [
    ({"dt": 0.0}, "T and dt must be positive"),
    ({"dt": -0.5}, "T and dt must be positive"),
    ({"T": 0.5, "dt": 0.3}, "simulation config: dt=0.3 does not divide T=0.5"),
    ({"steps_per_unit": 100}, "unknown config fields: ['steps_per_unit']"),
], ids=["dt-zero", "dt-negative", "dt-not-dividing-T", "steps_per_unit"])
def test_exit_code_3_on_bad_riccati_profile_mesh(tmp_path, capsys, fields,
                                                 message):
    # riccati-profile marches the same (T, dt) mesh as turnpike
    doc = {"problem": SP1, "T": 2.0, "dt": 0.01, **fields}
    assert main(["riccati-profile", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 3
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, fields", [
    ("are", {"dt": 0.3}),
    ("lemma-suite", {"dt": 0.3, "trials": 5}),
    ("static", {"T": 0.5, "dt": 0.3}),
    ("value-convergence", {"horizons": [1.0, 2.0], "dt": 0.5, "T": 0.7,
                           "x0": [1.5], "n_paths": 10}),
])
def test_dt_is_checked_only_against_marched_horizons(tmp_path, capsys,
                                                     command, fields):
    doc = {"problem": SP2, **fields}
    assert main([command, "--config", _write(tmp_path, doc)]) == 0
    assert json.loads(capsys.readouterr().out)["schema"] == 1


def test_exit_code_4_on_assumption_failure(tmp_path, capsys):
    doc = {"problem": {k: v for k, v in SP1.items() if k != "R"}}
    assert main(["are", "--config", _write(tmp_path, doc)]) == 4
    assert "R ≻ 0" in capsys.readouterr().err


def test_exit_code_5_on_unstabilizable(tmp_path, capsys):
    doc = {"problem": dict(SP1, A=[[1.0]], B=[[0.0]]), "T": 1.0,
           "x0": [1.0], "n_paths": 10, "dt": 0.01}
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(tmp_path / "out")]) == 5
    assert "ARE divergence (check A2)" in capsys.readouterr().err


def test_are_command(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1}),
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["P"][0][0] == pytest.approx(math.sqrt(2.0) - 1.0)
    artifact = json.loads((out / "are.json").read_text())
    assert artifact["P"] == payload["P"]
    assert "config_digest" in artifact and "tolerances" in artifact


def test_static_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["static", "--config",
                 _write(tmp_path, {"problem": SP2})]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["x_star"] == pytest.approx([0.5])
    assert payload["V"] == pytest.approx(0.5 + 0.25 * (math.sqrt(2) - 1))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command, name, record", [
    ("are", "are.json", ArePair), ("static", "static.json", StaticSolution)])
def test_json_artifact_is_the_record(tmp_path, capsys, command, name,
                                     record):
    # the artifact holds the record's fields and the three artifact keys;
    # stdout holds the record's fields and the schema
    out = tmp_path / "out"
    assert main([command, "--config", _write(tmp_path, {"problem": SP2}),
                 "--out", str(out)]) == 0
    keys = {f.name for f in fields(record)} | {"schema"}
    assert set(json.loads(capsys.readouterr().out)) == keys
    artifact = json.loads((out / name).read_text())
    assert set(artifact) == keys | {"config_digest", "tolerances"}
    assert "psd_order" not in artifact["tolerances"]


def test_riccati_profile_command(tmp_path):
    out = tmp_path / "out"
    cfgfile = _write(tmp_path, {"problem": SP1, "T": 2.0, "dt": 0.01})
    assert main(["riccati-profile", "--config", cfgfile,
                 "--out", str(out)]) == 0
    lines = (out / "riccati_profile.csv").read_text().splitlines()
    assert lines[0].startswith("# config_digest:")
    assert lines[1].startswith("# tolerances:")
    assert lines[2] == "t,err_P,err_Pi"
    assert len(lines) == 3 + 201
    # every data field is a plain number
    rows = [[float(x) for x in line.split(",")] for line in lines[3:]]
    assert all(len(row) == 3 for row in rows)
    assert rows[0][0] == 0.0 and rows[-1][0] == 2.0
    # the --dt flag sets the mesh: T/dt = 4 steps, 5 nodes
    assert main(["riccati-profile", "--config", cfgfile, "--dt", "0.5",
                 "--out", str(out)]) == 0
    assert len((out / "riccati_profile.csv").read_text().splitlines()) == 3 + 5


def test_riccati_profile_is_the_turnpike_profile(tmp_path):
    # both commands read one march: the rows the turnpike report keeps
    # are the riccati-profile rows at the same t, bit for bit
    out = tmp_path / "out"
    cfgfile = _write(tmp_path, {"problem": SP2, "T": 2.0, "x0": [1.5],
                                "dt": 0.01, "n_paths": 300})
    for command in ("turnpike", "riccati-profile"):
        assert main([command, "--config", cfgfile, "--out", str(out)]) == 0
    report = json.loads((out / "turnpike_report.json").read_text())
    rows = np.loadtxt(out / "riccati_profile.csv", delimiter=",",
                      skiprows=3)
    assert len(rows) == 201
    kept = rows[np.isin(rows[:, 0], report["riccati"]["profile_t"])]
    assert kept.T.tolist() == [report["riccati"][f"profile_{name}"]
                               for name in ("t", "err_P", "err_Pi")]


def test_lemma_suite_command(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {"problem": SP1, "trials": 25}
    assert main(["lemma-suite", "--config", _write(tmp_path, doc)]) == 0
    captured = capsys.readouterr()
    assert json.loads(captured.out)["contraction_pass"] == 25
    assert "25/25 passed" in captured.err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.parametrize("command", ["riccati-profile", "turnpike"])
def test_exit_code_3_without_out(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    doc = {"problem": SP2, "T": 1.0, "x0": [1.5], "dt": 0.01,
           "n_paths": 10}
    assert main([command, "--config", _write(tmp_path, doc)]) == 3
    assert f"out: required for the {command} command" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def test_turnpike_command_artifacts(tmp_path):
    out = tmp_path / "out"
    doc = {"problem": SP2, "T": 2.0, "x0": [1.5], "dt": 0.01,
           "n_paths": 300}
    assert main(["turnpike", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 0
    report = json.loads((out / "turnpike_report.json").read_text())
    assert report["schema"] == 5
    assert report["config"]["increments"] == simulate.INCREMENTS
    assert simulate.INCREMENTS.startswith("two-point +-sqrt(dt), Philox")
    assert "assumption_a1" not in report
    assert report["static"]["x_star"] == pytest.approx([0.5])
    lines = (out / "ensemble.csv").read_text().splitlines()
    assert lines[2] == "t,meanX0,m2X,m2u,gapX,gapu,gapY,gapZ"
    assert len(lines) == 3 + 201


def test_value_convergence_command(tmp_path, capsys):
    out = tmp_path / "out"
    doc = {"problem": SP2, "horizons": [1.0, 2.0], "x0": [1.5],
           "dt": 0.01, "n_paths": 200}
    assert main(["value-convergence", "--config", _write(tmp_path, doc),
                 "--out", str(out)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [row["T"] for row in payload["rows"]] == [1.0, 2.0]
    lines = (out / "value_convergence.csv").read_text().splitlines()
    assert lines[2] == "T,estimate_over_T,stderr_over_T,V,difference,avg_gap"
    assert len(lines) == 5


def test_rerun_is_byte_identical(tmp_path):
    doc = {"problem": SP2, "T": 1.0, "x0": [1.5], "dt": 0.01,
           "n_paths": 200}
    cfgfile = _write(tmp_path, doc)
    outs = []
    for name in ("o1", "o2"):
        out = tmp_path / name
        assert main(["turnpike", "--config", cfgfile,
                     "--out", str(out)]) == 0
        outs.append((out / "turnpike_report.json").read_bytes()
                    + (out / "ensemble.csv").read_bytes())
    assert outs[0] == outs[1]
