"""Command-line experiment driver.

Invocation:

    mflq <command> --config <file> [--out <dir>] [--seed N] [--paths N]
         [--dt X] [--horizon T]

Commands: are, static, riccati-profile, turnpike, value-convergence,
lemma-suite.  The config file is a JSON document with a `problem` block
(see model.problem_from_dict for the field names) and optional fields
`T`, `horizons`, `x0`, `dt`, `n_paths`, `seed`, `workers`,
`steps_per_unit`, `out`, `trials`.  Command-line flags override config
fields.  Artifacts are written only under the `out` directory: without
one, `are`, `static`, `value-convergence` and `lemma-suite` print their
JSON to stdout only, and `riccati-profile` and `turnpike` exit 3.
Exit codes: 0 success, 2 malformed JSON, 3 shape/field errors,
4 assumption failures, 5 numerical/acceptance failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace as dc_replace

import numpy as np

from . import analysis, riccati, simulate, static_opt
from .errors import AssumptionViolation, MflqError, NumericalFailure
from .model import ProblemData, problem_from_dict, validate_assumption_a1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_ASSUMPTIONS = 4
EXIT_NUMERICAL = 5

COMMANDS = ("are", "static", "riccati-profile", "turnpike",
            "value-convergence", "lemma-suite")
_KNOWN_FIELDS = {"problem", "T", "horizons", "x0", "dt", "n_paths", "seed",
                 "workers", "steps_per_unit", "out", "trials"}


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    problem: ProblemData
    sim: simulate.SimulationConfig
    T: float | None
    horizons: tuple | None
    x0: np.ndarray | None
    steps_per_unit: int
    out: str | None
    trials: int
    digest: str


def _resolved_doc(doc: dict) -> dict:
    """Config with defaults filled, for the reproducibility digest.

    `workers` and `out` are excluded: they cannot affect any computed
    number, so artifacts stay byte-identical across thread counts and
    output locations.
    """
    out = {k: doc.get(k) for k in sorted(_KNOWN_FIELDS - {"workers", "out"})}
    out["dt"] = doc.get("dt", 1e-3)
    out["n_paths"] = doc.get("n_paths", 10_000)
    out["seed"] = doc.get("seed", 42)
    out["steps_per_unit"] = doc.get("steps_per_unit", 1000)
    return out


def _number(field, value):
    """value as a float; ValueError naming the field unless it is a
    finite JSON number."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"{field}: expected a finite number, got {value!r}")
    return float(value)


def _integer(field, value):
    """value as an int; ValueError naming the field unless it is an
    integral JSON number."""
    if isinstance(value, bool) or not (
            isinstance(value, int)
            or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{field}: expected an integer, got {value!r}")
    return int(value)


def load_config(path, command: str = "turnpike",
                overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises json.JSONDecodeError for malformed JSON, ValueError for
    shape/field problems (message carries the JSON path of the bad
    field), AssumptionViolation when the problem data fails the
    standing positivity assumptions.
    """
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config root must be a JSON object")
    unknown = set(doc) - _KNOWN_FIELDS
    if unknown:
        raise ValueError(f"unknown config fields: {sorted(unknown)}")
    if "problem" not in doc:
        raise ValueError("missing required field: problem")
    for key, val in (overrides or {}).items():
        if val is not None:
            doc[key] = val
    try:
        problem = problem_from_dict(doc["problem"])
    except ValueError as exc:
        raise ValueError(f"problem: {exc}") from exc
    report = validate_assumption_a1(problem)
    if not report.passed:
        raise AssumptionViolation(
            "A1 violated: " + ", ".join(report.failures))
    T = doc.get("T")
    horizons = doc.get("horizons")
    if command in ("riccati-profile", "turnpike") and T is None:
        raise ValueError(f"T: required for the {command} command")
    if command == "value-convergence":
        if horizons is None:
            raise ValueError(
                "horizons: required for the value-convergence command")
        if not isinstance(horizons, list) or not horizons:
            raise ValueError("horizons: expected a non-empty list")
    x0 = doc.get("x0")
    if command in ("turnpike", "value-convergence"):
        if x0 is None:
            raise ValueError(f"x0: required for the {command} command")
        x0 = np.array([_number("x0", v)
                       for v in np.ravel(np.asarray(x0, dtype=object))])
        if x0.shape != (problem.n,):
            raise ValueError(f"x0: expected length {problem.n}, got {x0.shape}")
    if T is not None:
        _number("T", T)
    for h in horizons if isinstance(horizons, list) else ():
        _number("horizons", h)
    resolved = _resolved_doc(doc)
    dt = _number("dt", resolved["dt"])
    ints = {name: _integer(name, val) for name, val in (
        ("n_paths", resolved["n_paths"]), ("seed", resolved["seed"]),
        ("workers", doc.get("workers", 1)),
        ("trials", doc.get("trials", 1000)),
        ("steps_per_unit", resolved["steps_per_unit"]))}
    try:
        sim_T = float(T) if T is not None else float(
            horizons[0] if horizons else 1.0)
        sim = simulate.SimulationConfig(
            T=sim_T, dt=dt, n_paths=ints["n_paths"], seed=ints["seed"],
            workers=ints["workers"])
        if command == "value-convergence":
            # every horizon gets the checks its own run would make
            for h in horizons:
                dc_replace(sim, T=float(h))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"simulation config: {exc}") from exc
    trials = ints["trials"]
    if trials < 1:
        raise ValueError(f"trials: must be >= 1, got {trials}")
    digest = hashlib.sha256(
        json.dumps(resolved, sort_keys=True, default=str).encode()).hexdigest()
    return ExperimentConfig(
        command=command, problem=problem, sim=sim, T=T,
        horizons=tuple(horizons) if horizons else None, x0=x0,
        steps_per_unit=ints["steps_per_unit"],
        out=None if doc.get("out") is None else str(doc["out"]),
        trials=trials,
        digest=digest)


def _dump_json(obj, fh):
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _artifact_header(config):
    return [f"config_digest: {config.digest}",
            "tolerances: " + json.dumps(analysis.TOLERANCES, sort_keys=True)]


def _write_json_artifact(config, name, payload, outdir):
    payload = dict(payload)
    payload.setdefault("config_digest", config.digest)
    payload.setdefault("tolerances", dict(analysis.TOLERANCES))
    path = outdir / name
    with open(path, "w") as fh:
        _dump_json(payload, fh)
    return path


def _cmd_are(config, outdir):
    are = riccati.solve_are(config.problem)
    payload = {
        "schema": 1,
        "P": are.P.tolist(), "Pi": are.Pi.tolist(),
        "Theta": are.Theta.tolist(), "ThetaHat": are.ThetaHat.tolist(),
        "residual_P": are.residual_P, "residual_Pi": are.residual_Pi,
    }
    _dump_json(payload, sys.stdout)
    if outdir is not None:
        _write_json_artifact(config, "are.json", payload, outdir)
    return EXIT_OK


def _cmd_static(config, outdir):
    are = riccati.solve_are(config.problem)
    sol = static_opt.solve_static(config.problem, are.P)
    payload = {
        "schema": 1,
        "x_star": sol.x_star.tolist(), "u_star": sol.u_star.tolist(),
        "lambda_star": sol.lambda_star.tolist(),
        "sigma_star": sol.sigma_star.tolist(), "V": sol.V,
    }
    _dump_json(payload, sys.stdout)
    if outdir is not None:
        _write_json_artifact(config, "static.json", payload, outdir)
    return EXIT_OK


def _cmd_riccati_profile(config, outdir):
    problem = config.problem
    are = riccati.solve_are(problem)
    steps = max(1, int(round(config.steps_per_unit * config.T)))
    path = riccati.integrate_finite_horizon(problem, config.T, steps=steps)
    profile = riccati.convergence_profile(path, are)
    with open(outdir / "riccati_profile.csv", "w") as fh:
        for line in _artifact_header(config):
            fh.write(f"# {line}\n")
        riccati.write_convergence_csv(profile, fh)
    print(f"wrote {outdir / 'riccati_profile.csv'}")
    return EXIT_OK


def _cmd_turnpike(config, outdir):
    report, res = analysis.turnpike_pipeline(config.problem, config.x0,
                                             config.T, config.sim)
    _write_json_artifact(config, "turnpike_report.json", report, outdir)
    with open(outdir / "ensemble.csv", "w") as fh:
        simulate.write_ensemble_csv(res.optimal, fh,
                                    header_comments=_artifact_header(config))
    print(f"wrote {outdir / 'turnpike_report.json'} and {outdir / 'ensemble.csv'}")
    return EXIT_OK


def _cmd_value_convergence(config, outdir):
    rows = analysis.value_convergence(config.problem, config.x0,
                                      config.horizons, config.sim)
    payload = {
        "schema": 1,
        "rows": [{"T": r.T, "estimate_over_T": r.estimate_over_T,
                  "stderr_over_T": r.stderr_over_T, "V": r.V,
                  "difference": r.difference, "avg_gap": r.avg_gap}
                 for r in rows],
    }
    _dump_json(payload, sys.stdout)
    if outdir is not None:
        _write_json_artifact(config, "value_convergence.json", payload, outdir)
        with open(outdir / "value_convergence.csv", "w") as fh:
            for line in _artifact_header(config):
                fh.write(f"# {line}\n")
            fh.write("T,estimate_over_T,stderr_over_T,V,difference,avg_gap\n")
            for r in rows:
                fh.write(f"{r.T!r},{r.estimate_over_T!r},{r.stderr_over_T!r},"
                         f"{r.V!r},{r.difference!r},{r.avg_gap!r}\n")
    return EXIT_OK


def _cmd_lemma_suite(config, outdir):
    counts = analysis.lemma_suite(trials=config.trials, seed=config.sim.seed)
    payload = {"schema": 1, **counts}
    _dump_json(payload, sys.stdout)
    if outdir is not None:
        _write_json_artifact(config, "lemma_suite.json", payload, outdir)
    trials = counts["trials"]
    for name in ("contraction_pass", "block_psd_pass"):
        if counts[name] != trials:
            print(f"{counts[name]}/{trials} passed", file=sys.stderr)
            raise NumericalFailure(f"lemma check failed: {name}")
    print(f"{trials}/{trials} passed for both lemmas", file=sys.stderr)
    return EXIT_OK


def run(config: ExperimentConfig) -> int:
    """Dispatch a validated config; returns the process exit code."""
    from pathlib import Path
    if config.out is None:
        if config.command in ("riccati-profile", "turnpike"):
            print(f"error: out: required for the {config.command} command",
                  file=sys.stderr)
            return EXIT_SHAPE
        outdir = None
    else:
        outdir = Path(config.out)
        outdir.mkdir(parents=True, exist_ok=True)
    handler = {
        "are": _cmd_are,
        "static": _cmd_static,
        "riccati-profile": _cmd_riccati_profile,
        "turnpike": _cmd_turnpike,
        "value-convergence": _cmd_value_convergence,
        "lemma-suite": _cmd_lemma_suite,
    }[config.command]
    return handler(config, outdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mflq",
        description="Mean-field LQ control: Riccati, static, and turnpike "
                    "experiments")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--paths", type=int, default=None)
    parser.add_argument("--dt", type=float, default=None)
    parser.add_argument("--horizon", type=float, default=None)
    args = parser.parse_args(argv)
    overrides = {"seed": args.seed, "n_paths": args.paths, "dt": args.dt,
                 "T": args.horizon, "out": args.out}
    try:
        config = load_config(args.config, command=args.command,
                             overrides=overrides)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON config: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    try:
        return run(config)
    except AssumptionViolation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ASSUMPTIONS
    except MflqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
