"""Command-line experiment driver.

Invocation:

    mflq <command> --config <file> [--out <dir>] [--seed N] [--paths N]
         [--dt X] [--horizon T]

Commands (the COMMANDS table): are, static, riccati-profile, turnpike,
value-convergence, lemma-suite.  The config file is a JSON document with
a `problem` block (see model.problem_from_dict for the field names) and
optional fields `T`, `horizons`, `x0`, `dt`, `n_paths`, `seed` (in
[0, 2^64), the Philox key's range), `workers`, `out` (a string),
`trials`.  Command-line flags override config fields.  `dt` is the mesh
of every command that marches: it must divide `T` for riccati-profile
and turnpike (leaving turnpike's decay fits MIN_WINDOW_NODES nodes a
window) and each of the `horizons` for value-convergence; are, static
and lemma-suite march nothing and check it against no horizon.
Artifacts are written only under the `out` directory: without one,
`are`, `static`, `value-convergence` and `lemma-suite` print their JSON
to stdout only, and `riccati-profile` and `turnpike` exit 3.  The
directory is made with the first artifact, so a run that fails before
it leaves none.  A run whose estimated work passes one of the MAX_*
caps exits 3 before anything is allocated.
Exit codes: 0 success, 2 malformed JSON, 3 shape/field errors (any
ValueError, loading or running), work above a cap or an unusable `out`,
4 assumption failures, 5 numerical/acceptance failures (LinAlgError
too), a non-finite result (nothing is written) or out of memory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import namedtuple
from dataclasses import dataclass, fields

import numpy as np

from . import analysis, riccati, simulate, static_opt
from .errors import AssumptionViolation, MflqError, NumericalFailure
from .model import (ProblemData, exact_shape, json_integer, json_number,
                    problem_from_dict, require_a1)
from .simulate import _write_table

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SHAPE = 3
EXIT_ASSUMPTIONS = 4
EXIT_NUMERICAL = 5

_KNOWN_FIELDS = {"problem", "T", "horizons", "x0", "dt", "n_paths", "seed",
                 "workers", "out", "trials"}
# Work caps, checked by load_config before anything is allocated.  The
# march and the closed loop hold several (2n+1) x (2n+1) matrices per
# node, so the march's size is nodes * (2n+1)^2; the snapshot buffer is
# run_coupled's per-path record of one horizon (`_snapshot_bytes`);
# path-steps are Euler steps times paths, summed over the horizons run.
MAX_MARCH_SIZE = 10**7
MAX_SNAPSHOT_BYTES = 2**31
MAX_PATH_STEPS = 10**10
MAX_TRIALS = 10**6


# a row of COMMANDS: the horizon field the command marches (a mesh
# (T, dt) exists only where there is one), whether it simulates from
# `x0`, whether it needs an `out` directory, and its handler
_Command = namedtuple("_Command", "marches simulates needs_out handler")


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
    spec = COMMANDS[command]
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
    marched = spec.marches
    if marched is not None and doc.get(marched) is None:
        raise ValueError(f"{marched}: required for the {command} command")
    if marched == "horizons" and (not isinstance(horizons, list)
                                  or not horizons):
        raise ValueError("horizons: expected a non-empty list")
    x0 = doc.get("x0")
    if spec.simulates:
        if x0 is None:
            raise ValueError(f"x0: required for the {command} command")
        for v in np.asarray(x0, dtype=object).flat:
            json_number("x0", v)
        x0 = exact_shape("x0", x0, (problem.n,))
    if T is not None:
        json_number("T", T)
    for h in horizons if isinstance(horizons, list) else ():
        json_number("horizons", h)
    resolved = _resolved_doc(doc)
    sim_args = {name: json_integer(name, resolved[name])
            for name in ("n_paths", "seed", "workers")}
    sim_args["dt"] = json_number("dt", resolved["dt"])
    trials = json_integer("trials", doc.get("trials", 1000))
    if not 0 <= (seed := sim_args["seed"]) < 2**64:
        bound = "< 2**64" if seed > 0 else ">= 0"
        raise ValueError(f"seed: must be {bound}, got {seed}")
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise ValueError(f"out: expected a string, got {out!r}")
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
        _check_work(spec, problem, sim, horizons)
    return ExperimentConfig(
        command=command, problem=problem, sim=sim,
        horizons=tuple(horizons) if horizons else None, x0=x0,
        seed=seed, out=out, trials=trials,
        digest=_digest(resolved))


def _snapshot_bytes(problem, n_paths):
    """Bytes of run_coupled's per-path record: the states and controls
    of both ensembles at t = T, 2(n + m) doubles per path."""
    return 2 * (problem.n + problem.m) * n_paths * 8


def _check_work(spec, problem, sim, horizons):
    """Raise ValueError, naming the field, when the run's estimated work
    passes a cap: the march to sim.T, and for the commands that simulate
    the snapshot buffer and the path-steps; or when a simulated `T`
    leaves the decay fits (on the run's mesh) a window too sparse."""
    field = spec.marches
    nodes = sim.T / sim.dt + 1.0
    size = nodes * (2 * problem.n + 1) ** 2
    if size > MAX_MARCH_SIZE:
        raise ValueError(
            f"{field}: a march of {nodes:.3g} nodes at n = {problem.n} has "
            f"size {size:.3g} (nodes * (2n+1)^2), above the cap "
            f"{MAX_MARCH_SIZE:.0e}")
    if not spec.simulates:
        return
    snap_bytes = _snapshot_bytes(problem, sim.n_paths)
    if snap_bytes > MAX_SNAPSHOT_BYTES:
        raise ValueError(
            f"n_paths: the snapshot buffer of {sim.n_paths} paths needs "
            f"{snap_bytes:.3g} bytes, above the cap {MAX_SNAPSHOT_BYTES}")
    runs = horizons if field == "horizons" else [sim.T]
    steps = sum(round(h / sim.dt) for h in runs) * sim.n_paths
    if steps > MAX_PATH_STEPS:
        raise ValueError(
            f"n_paths: {sim.n_paths} paths make {steps:.3g} path-steps, "
            f"above the cap {MAX_PATH_STEPS:.0e}")
    if field == "T":
        mesh = np.linspace(0.0, sim.T, sim.n_steps + 1)
        try:
            analysis.fit_turnpike_decay(np.ones_like(mesh), sim.T, mesh)
        except ValueError as exc:
            raise ValueError(f"T: {sim.n_steps} steps are too few for the "
                             f"decay fits ({exc})") from exc


def _create(path):
    """Open the artifact `path` (a Path) for writing, making its
    directory first: `out` exists once a command writes into it."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w")


def _dump_json(obj, path=None):
    """Write obj as JSON to the file `path` (a Path), or to stdout.
    The text is made first: a non-finite number raises NumericalFailure
    before anything is opened or written."""
    try:
        text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)
    except ValueError as exc:
        raise NumericalFailure(f"non-finite result: {exc}") from exc
    if path is None:
        sys.stdout.write(text + "\n")
    else:
        with _create(path) as fh:
            fh.write(text + "\n")


def _artifact_header(config):
    return [f"config_digest: {config.digest}",
            "tolerances: " + json.dumps(analysis.TOLERANCES, sort_keys=True)]


def _write_csv(config, path, header, rows):
    """Write a CSV artifact (`simulate._write_table`) under the two `# `
    header comments, each entry of `rows` as a plain float."""
    with _create(path) as fh:
        _write_table(fh, header, (map(float, row) for row in rows),
                     _artifact_header(config))


def _write_json_artifact(config, name, payload, outdir):
    payload = dict(payload)
    payload.setdefault("config_digest", config.digest)
    payload.setdefault("tolerances", dict(analysis.TOLERANCES))
    _dump_json(payload, outdir / name)


def _publish(config, name, payload, outdir):
    """Print a JSON payload, and write it as artifact `name` if there is
    an output directory."""
    _dump_json(payload)
    if outdir is not None:
        _write_json_artifact(config, name, payload, outdir)


def _cmd_are(config, outdir):
    are = riccati.solve_are(config.problem)
    _publish(config, "are.json", {"schema": 2, **analysis.record(are)},
             outdir)


def _cmd_static(config, outdir):
    are = riccati.solve_are(config.problem)
    sol = static_opt.solve_static(config.problem, are.P)
    _publish(config, "static.json", {"schema": 1, **analysis.record(sol)},
             outdir)


def _cmd_riccati_profile(config, outdir):
    sim = config.sim
    feedback = riccati.solve_feedback(config.problem, sim.T, sim.n_steps)
    profile = riccati.convergence_profile(feedback.march, feedback.are)
    _write_csv(config, outdir / "riccati_profile.csv",
               ["t", "err_P", "err_Pi"], profile)
    print(f"wrote {outdir / 'riccati_profile.csv'}")


def _cmd_turnpike(config, outdir):
    report, res = analysis.turnpike_pipeline(config.problem, config.x0,
                                             config.sim)
    _write_json_artifact(config, "turnpike_report.json", report, outdir)
    with _create(outdir / "ensemble.csv") as fh:
        simulate.write_ensemble_csv(res.optimal, fh,
                                    header_comments=_artifact_header(config))
    print(f"wrote {outdir / 'turnpike_report.json'} and {outdir / 'ensemble.csv'}")


def _cmd_value_convergence(config, outdir):
    rows = analysis.value_convergence(config.problem, config.x0,
                                      config.horizons, config.sim)
    records = [analysis.record(r) for r in rows]
    _publish(config, "value_convergence.json", {
        "schema": 1, "rows": records}, outdir)
    if outdir is not None:
        _write_csv(config, outdir / "value_convergence.csv", records[0],
                   (r.values() for r in records))


def _cmd_lemma_suite(config, outdir):
    counts = analysis.lemma_suite(trials=config.trials, seed=config.seed)
    _publish(config, "lemma_suite.json", {"schema": 1, **counts}, outdir)
    trials = counts["trials"]
    for name in ("contraction_pass", "block_psd_pass"):
        if counts[name] != trials:
            print(f"{counts[name]}/{trials} passed", file=sys.stderr)
            raise NumericalFailure(f"lemma check failed: {name}")
    print(f"{trials}/{trials} passed for both lemmas", file=sys.stderr)


def _fail(code, message):
    """Print `message` as an error on stderr; returns the exit code."""
    print(f"error: {message}", file=sys.stderr)
    return code


COMMANDS = {
    "are": _Command(None, False, False, _cmd_are),
    "static": _Command(None, False, False, _cmd_static),
    "riccati-profile": _Command("T", False, True, _cmd_riccati_profile),
    "turnpike": _Command("T", True, True, _cmd_turnpike),
    "value-convergence": _Command("horizons", True, False,
                                  _cmd_value_convergence),
    "lemma-suite": _Command(None, False, False, _cmd_lemma_suite),
}


def run(config: ExperimentConfig) -> int:
    """Dispatch a validated config; returns the process exit code.
    Raises ValueError when the command needs an `out` and has none, and
    an OSError's message gains the prefix `out:`.  The `out` directory
    is made with the first artifact (`_create`)."""
    from pathlib import Path
    spec = COMMANDS[config.command]
    if config.out is None and spec.needs_out:
        raise ValueError(f"out: required for the {config.command} command")
    try:
        spec.handler(config, None if config.out is None else Path(config.out))
    except OSError as exc:
        raise OSError(f"out: {exc}") from exc
    return EXIT_OK


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
    # JSONDecodeError and LinAlgError are ValueErrors: they come first
    try:
        return run(load_config(args.config, command=args.command,
                               overrides=overrides))
    except json.JSONDecodeError as exc:
        return _fail(EXIT_PARSE, f"malformed JSON config: {exc}")
    except AssumptionViolation as exc:
        return _fail(EXIT_ASSUMPTIONS, exc)
    except (MflqError, np.linalg.LinAlgError) as exc:
        return _fail(EXIT_NUMERICAL, exc)
    except (ValueError, OSError) as exc:
        return _fail(EXIT_SHAPE, exc)
    except MemoryError as exc:
        return _fail(EXIT_NUMERICAL, f"out of memory: {exc}")


if __name__ == "__main__":
    sys.exit(main())
