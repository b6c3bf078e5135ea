import json
import math
from dataclasses import fields

import pytest

from mflq import ArePair, StaticSolution, riccati
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


def test_exit_code_5_on_memory_error(tmp_path, capsys, monkeypatch):
    def exhausted(problem):
        raise MemoryError("no room")
    monkeypatch.setattr(riccati, "solve_are", exhausted)
    assert main(["are", "--config", _write(tmp_path, {"problem": SP1})]) == 5
    assert "out of memory: no room" in capsys.readouterr().err


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
    assert report["schema"] == 3
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
