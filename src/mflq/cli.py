"""Command-line experiment driver.

Invocation:

    mflq <command> --config <file> [--out <dir>] [--seed N] [--paths N]
         [--dt X] [--horizon T]

Commands: are, static, riccati-profile, turnpike, value-convergence,
lemma-suite.  The config file is a JSON document with a `problem` block
(see model.problem_from_dict for the field names) and optional fields
`T`, `horizons`, `x0`, `dt`, `n_paths`, `seed`, `workers`, `out`,
`trials`.  Command-line flags override config fields.  `dt` is the mesh
of every command that marches: it must divide `T` for riccati-profile
and turnpike and each of the `horizons` for value-convergence; are,
static and lemma-suite march nothing and check it against no horizon.
Artifacts are written only under the `out` directory: without one,
`are`, `static`, `value-convergence` and `lemma-suite` print their JSON
to stdout only, and `riccati-profile` and `turnpike` exit 3.  A run
whose estimated work passes one of the MAX_* caps exits 3 before
anything is allocated.
Exit codes: 0 success, 2 malformed JSON, 3 shape/field errors or work
above a cap, 4 assumption failures, 5 numerical/acceptance failures or
out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, riccati, simulate, static_opt
from .errors import AssumptionViolation, MflqError, NumericalFailure
from .model import (ProblemData, json_integer, json_number, problem_from_dict,
                    require_a1)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_ASSUMPTIONS = 4
EXIT_NUMERICAL = 5

COMMANDS = ("are", "static", "riccati-profile", "turnpike",
            "value-convergence", "lemma-suite")
_KNOWN_FIELDS = {"problem", "T", "horizons", "x0", "dt", "n_paths", "seed",
                 "workers", "out", "trials"}
# the commands that march, each to the horizon field it reads; a mesh
# (T, dt) exists only for these
_MARCHES = {"riccati-profile": "T", "turnpike": "T",
            "value-convergence": "horizons"}
# Work caps, checked by load_config before anything is allocated.  The
# march and the closed loop hold several (2n+1) x (2n+1) matrices per
# node, so the march's size is nodes * (2n+1)^2; the snapshot buffer is
# run_coupled's per-path record of one horizon; path-steps are Euler
# steps times paths, summed over the horizons run.
MAX_MARCH_SIZE = 10**7
MAX_SNAPSHOT_BYTES = 2**31
MAX_PATH_STEPS = 10**10
MAX_TRIALS = 10**6


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    problem: ProblemData
    sim: simulate.SimulationConfig | None
    horizons: tuple | None
    x0: np.ndarray | None
    seed: int
    out: str | None
    trials: int
    digest: str


def _resolved_doc(doc: dict) -> dict:
    """Config with the SimulationConfig defaults filled in."""
    resolved = {k: doc.get(k) for k in _KNOWN_FIELDS}
    resolved.update((f.name, doc.get(f.name, f.default))
                    for f in fields(simulate.SimulationConfig)
                    if f.name != "T")
    return resolved


def _digest(resolved: dict) -> str:
    """sha256 of the resolved config.

    `workers` and `out` are excluded: they cannot affect any computed
    number, so artifacts stay byte-identical across thread counts and
    output locations.
    """
    kept = {k: v for k, v in resolved.items() if k not in ("workers", "out")}
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True, default=str).encode()).hexdigest()


def load_config(path, command: str = "turnpike",
                overrides: dict | None = None) -> ExperimentConfig:
    """Parse and validate an experiment config file.

    Raises json.JSONDecodeError for malformed JSON, ValueError for
    shape/field problems (message carries the JSON path of the bad
    field), AssumptionViolation when the problem data fails the
    standing positivity assumptions.  `dt` is checked against the
    horizons the command marches, and only for the commands that march.
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
    require_a1(problem)
    T = doc.get("T")
    horizons = doc.get("horizons")
    marched = _MARCHES.get(command)
    if marched is not None and doc.get(marched) is None:
        raise ValueError(f"{marched}: required for the {command} command")
    if marched == "horizons" and (not isinstance(horizons, list)
                                  or not horizons):
        raise ValueError("horizons: expected a non-empty list")
    x0 = doc.get("x0")
    if command in ("turnpike", "value-convergence"):
        if x0 is None:
            raise ValueError(f"x0: required for the {command} command")
        x0 = np.array([json_number("x0", v)
                       for v in np.ravel(np.asarray(x0, dtype=object))])
        if x0.shape != (problem.n,):
            raise ValueError(f"x0: expected length {problem.n}, got {x0.shape}")
    if T is not None:
        json_number("T", T)
    for h in horizons if isinstance(horizons, list) else ():
        json_number("horizons", h)
    resolved = _resolved_doc(doc)
    sim_args = {name: json_integer(name, resolved[name])
            for name in ("n_paths", "seed", "workers")}
    sim_args["dt"] = json_number("dt", resolved["dt"])
    trials = json_integer("trials", doc.get("trials", 1000))
    sim = None
    if marched is not None:
        try:
            # every marched horizon gets the checks its own run would
            # make; the last one is the longest
            for h in horizons if marched == "horizons" else [T]:
                sim = simulate.SimulationConfig(T=float(h), **sim_args)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"simulation config: {exc}") from exc
    if marched == "horizons" and any(
            b <= a for a, b in zip(horizons, horizons[1:])):
        raise ValueError("horizons: must be strictly increasing")
    if trials < 1:
        raise ValueError(f"trials: must be >= 1, got {trials}")
    if trials > MAX_TRIALS:
        raise ValueError(f"trials: must be <= {MAX_TRIALS}, got {trials}")
    if marched is not None:
        _check_work(command, problem, sim, horizons)
    return ExperimentConfig(
        command=command, problem=problem, sim=sim,
        horizons=tuple(horizons) if horizons else None, x0=x0,
        seed=sim_args["seed"],
        out=None if doc.get("out") is None else str(doc["out"]),
        trials=trials, digest=_digest(resolved))


def _check_work(command, problem, sim, horizons):
    """Raise ValueError, naming the field, when the run's estimated work
    passes a cap: the march to sim.T, and for the commands that simulate
    the snapshot buffer and the path-steps."""
    field = _MARCHES[command]
    nodes = sim.T / sim.dt + 1.0
    size = nodes * (2 * problem.n + 1) ** 2
    if size > MAX_MARCH_SIZE:
        raise ValueError(
            f"{field}: a march of {nodes:.3g} nodes at n = {problem.n} has "
            f"size {size:.3g} (nodes * (2n+1)^2), above the cap "
            f"{MAX_MARCH_SIZE:.0e}")
    if command == "riccati-profile":
        return
    snap_bytes = (len(simulate._snapshot_indices(sim.n_steps))
                  * 2 * (problem.n + problem.m) * sim.n_paths * 8)
    if snap_bytes > MAX_SNAPSHOT_BYTES:
        raise ValueError(
            f"n_paths: the snapshot buffer of {sim.n_paths} paths needs "
            f"{snap_bytes:.3g} bytes, above the cap {MAX_SNAPSHOT_BYTES}")
    runs = horizons if command == "value-convergence" else [sim.T]
    steps = sum(round(h / sim.dt) for h in runs) * sim.n_paths
    if steps > MAX_PATH_STEPS:
        raise ValueError(
            f"n_paths: {sim.n_paths} paths make {steps:.3g} path-steps, "
            f"above the cap {MAX_PATH_STEPS:.0e}")


def _dump_json(obj, fh):
    json.dump(obj, fh, sort_keys=True, indent=2)
    fh.write("\n")


def _artifact_header(config):
    return [f"config_digest: {config.digest}",
            "tolerances: " + json.dumps(analysis.TOLERANCES, sort_keys=True)]


def _write_csv(config, path, header, rows):
    """Write a CSV artifact: the two `# ` header comments, the column
    names, then one line of plain floats per row."""
    with open(path, "w") as fh:
        for line in _artifact_header(config):
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")


def _write_json_artifact(config, name, payload, outdir):
    payload = dict(payload)
    payload.setdefault("config_digest", config.digest)
    payload.setdefault("tolerances", dict(analysis.TOLERANCES))
    with open(outdir / name, "w") as fh:
        _dump_json(payload, fh)


def _publish(config, name, payload, outdir):
    """Print a JSON payload, and write it as artifact `name` if there is
    an output directory."""
    _dump_json(payload, sys.stdout)
    if outdir is not None:
        _write_json_artifact(config, name, payload, outdir)


def _cmd_are(config, outdir):
    are = riccati.solve_are(config.problem)
    _publish(config, "are.json", {"schema": 1, **analysis.record(are)},
             outdir)
    return EXIT_OK


def _cmd_static(config, outdir):
    are = riccati.solve_are(config.problem)
    sol = static_opt.solve_static(config.problem, are.P)
    _publish(config, "static.json", {"schema": 1, **analysis.record(sol)},
             outdir)
    return EXIT_OK


def _cmd_riccati_profile(config, outdir):
    are = riccati.solve_are(config.problem)
    path = riccati.integrate_finite_horizon(config.problem, config.sim.T,
                                            steps=config.sim.n_steps)
    profile = riccati.convergence_profile(path, are)
    _write_csv(config, outdir / "riccati_profile.csv",
               ["t", "err_P", "err_Pi"], profile)
    print(f"wrote {outdir / 'riccati_profile.csv'}")
    return EXIT_OK


def _cmd_turnpike(config, outdir):
    report, res = analysis.turnpike_pipeline(config.problem, config.x0,
                                             config.sim)
    _write_json_artifact(config, "turnpike_report.json", report, outdir)
    with open(outdir / "ensemble.csv", "w") as fh:
        simulate.write_ensemble_csv(res.optimal, fh,
                                    header_comments=_artifact_header(config))
    print(f"wrote {outdir / 'turnpike_report.json'} and {outdir / 'ensemble.csv'}")
    return EXIT_OK


def _cmd_value_convergence(config, outdir):
    rows = analysis.value_convergence(config.problem, config.x0,
                                      config.horizons, config.sim)
    records = [analysis.record(r) for r in rows]
    _publish(config, "value_convergence.json", {
        "schema": 1, "rows": records}, outdir)
    if outdir is not None:
        _write_csv(config, outdir / "value_convergence.csv", records[0],
                   (r.values() for r in records))
    return EXIT_OK


def _cmd_lemma_suite(config, outdir):
    counts = analysis.lemma_suite(trials=config.trials, seed=config.seed)
    _publish(config, "lemma_suite.json", {"schema": 1, **counts}, outdir)
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
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
