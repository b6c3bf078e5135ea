"""Benchmark of the mflq CLI: end-to-end metrics, or per-layer traces.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are defined in workloads.py.  A run writes the workload's
config from the seed, computes the oracle values its checks need, and
then repeats whole rounds until the next round would end after S
seconds.  Every child process is one operation; it fails when it exits
non-zero or when its outputs miss a check, and every operation of one
run must write byte-identical artifacts.

--trace 0: a round is one set-up launch (a fresh interpreter that
imports mflq.cli and runs cli.load_config on the workload's config) and
one CLI launch.  Reports the medians of wall_s, cpu_s, peak_rss_mb (CLI
launches) and setup_s (set-up launches).

--trace 1: a round is one plain CLI launch and one launch of
trace_child.py, which runs the same command in-process with spans
around each layer.  Reports the per-layer medians, and the tracing
overhead as the median traced wall minus the median plain wall.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Outputs go under perfbench/out/, which
is removed at the end of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import oracles
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OP_TIMEOUT_S = 120.0

SETUP_CODE = (
    "import sys, time\n"
    "from mflq import cli\n"
    "cli.load_config(sys.argv[1], command=sys.argv[2],"
    " overrides={'out': sys.argv[3]})\n"
    "print(time.monotonic())\n")

END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s", "cli.load_config_s": "s", "cli.run_self_s": "s",
    "cli.artifact_bytes": "B",
    "riccati.solve_are_s": "s", "riccati.integrate_finite_horizon_s": "s",
    "riccati.rk4_steps": "count", "riccati.integrate_offsets_s": "s",
    "static_opt.solve_static_s": "s",
    "simulate.run_coupled_s": "s", "simulate.run_coupled_self_s": "s",
    "simulate.run_coupled_cpu_s": "s", "simulate.path_steps": "count",
    "simulate.path_steps_per_s": "1/s",
    "simulate.brownian_increments_s": "s", "simulate.brownian_calls": "count",
    "simulate.propagate_mean_s": "s", "simulate.snapshot_mb": "MB",
    "simulate.write_ensemble_csv_s": "s",
    "analysis.pipeline_self_s": "s", "analysis.fit_turnpike_decay_s": "s",
    "trace.overhead_s": "s",
}


def child_env() -> dict:
    """Environment of every launch: mflq from this checkout's src/, and
    one BLAS/OpenMP thread, so a workload uses at most its `workers`
    threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def launch(argv, cwd, stdout_path):
    """Run argv to completion; return (exit code, wall s, CPU s, max RSS
    MB) of the child, read from its rusage.  A child still running
    after OP_TIMEOUT_S is killed."""
    with open(stdout_path, "w") as out, open(f"{stdout_path}.err", "w") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=err)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss * 1024 / 1e6)


def digest(outdir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals
    (children may overlap when they run on worker threads)."""
    children = {}
    for _, t0, t1, _, parent, _, _ in spans:
        children.setdefault(parent, []).append((t0, t1))
    out = {}
    for _, t0, t1, sid, _, _, _ in spans:
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, [])):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out[sid] = (t1 - t0) - covered
    return out


def layer_metrics(trace: dict, outdir: Path) -> dict:
    """Per-layer metrics of one traced launch."""
    spans = trace["spans"]
    selfs = self_times(spans)
    total = {}
    self_total = {}
    cpu = {}
    calls = {}
    for name, t0, t1, sid, _, c0, c1 in spans:
        total[name] = total.get(name, 0.0) + (t1 - t0)
        self_total[name] = self_total.get(name, 0.0) + selfs[sid]
        cpu[name] = cpu.get(name, 0.0) + (c1 - c0)
        calls[name] = calls.get(name, 0) + 1
    extras = trace["extras"]
    coupled_s = total.get("simulate.run_coupled", 0.0)
    path_steps = extras["path_steps"]
    return {
        "cli.import_s": trace["import_s"],
        "cli.load_config_s": total.get("cli.load_config", 0.0),
        "cli.run_self_s": self_total.get("cli.run", 0.0),
        "cli.artifact_bytes": sum(p.stat().st_size for p in outdir.iterdir()),
        "riccati.solve_are_s": total.get("riccati.solve_are", 0.0),
        "riccati.integrate_finite_horizon_s":
            total.get("riccati.integrate_finite_horizon", 0.0),
        "riccati.rk4_steps": extras["rk4_steps"],
        "riccati.integrate_offsets_s":
            total.get("riccati.integrate_offsets", 0.0),
        "static_opt.solve_static_s": total.get("static_opt.solve_static", 0.0),
        "simulate.run_coupled_s": coupled_s,
        "simulate.run_coupled_self_s":
            self_total.get("simulate.run_coupled", 0.0),
        "simulate.run_coupled_cpu_s": cpu.get("simulate.run_coupled", 0.0),
        "simulate.path_steps": path_steps,
        "simulate.path_steps_per_s":
            path_steps / coupled_s if coupled_s else 0.0,
        "simulate.brownian_increments_s":
            total.get("simulate.brownian_increments", 0.0),
        "simulate.brownian_calls": calls.get("simulate.brownian_increments", 0),
        "simulate.propagate_mean_s": total.get("simulate.propagate_mean", 0.0),
        "simulate.snapshot_mb": max(extras["snapshot_bytes"], default=0) / 1e6,
        "simulate.write_ensemble_csv_s":
            total.get("simulate.write_ensemble_csv", 0.0),
        "analysis.pipeline_self_s":
            self_total.get("analysis.turnpike_pipeline", 0.0)
            + self_total.get("analysis.value_convergence", 0.0),
        "analysis.fit_turnpike_decay_s":
            total.get("analysis.fit_turnpike_decay", 0.0),
    }


class Run:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.workload = workloads.WORKLOADS[name]
        self.workdir = workdir
        self.doc = self.workload.config(seed)
        self.config_path = workdir / "config.json"
        workloads.write_config(self.config_path, self.doc)
        self.expect = self.workload.prepare(self.doc)
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.digest = None
        self.samples = {}
        self._ops = 0

    def _fresh_dir(self) -> Path:
        self._ops += 1
        path = self.workdir / f"op{self._ops}"
        path.mkdir()
        return path

    def _fail(self, what, message, wrong=False):
        self.failed += 1
        self.wrong += wrong
        print(f"FAILED {what}: {message}", file=sys.stderr)
        return False

    def _cli_argv(self, outdir: Path):
        return [self.workload.command, "--config", str(self.config_path),
                "--out", str(outdir)]

    def _verify(self, what, code, opdir: Path, outdir: Path) -> bool:
        """Count one launch, plus one operation per known-fault check;
        check the exit code and the artifacts.  True when the launch
        succeeded (the known-fault checks aside)."""
        known = self.workload.known_faults
        self.attempted += 1 + len(known)
        if code != 0:
            self.failed += len(known)
            err = (opdir / "stdout.txt.err").read_text().strip()
            return self._fail(what, f"exit code {code}: {err[-500:]}")
        misses = self.workload.check(outdir, self.doc, self.expect)
        for name in known:
            found = [msg for check, msg in misses if check == name]
            if found:
                self._fail(f"{what} {name} (known fault)", found[0])
        misses = [(c, msg) for c, msg in misses if c not in known]
        if misses:
            return self._fail(what, "; ".join(f"{c}: {msg}" for c, msg in misses),
                              wrong=True)
        d = digest(outdir)
        if self.digest is None:
            self.digest = d
        elif d != self.digest:
            return self._fail(what, "artifacts differ from the first "
                                    "operation of this run", wrong=True)
        return True

    def _record(self, key, value):
        self.samples.setdefault(key, []).append(value)

    def cli_op(self):
        opdir = self._fresh_dir()
        outdir = opdir / "out"
        argv = [sys.executable, "-m", "mflq.cli", *self._cli_argv(outdir)]
        code, wall, cpu, rss = launch(argv, self.workdir, opdir / "stdout.txt")
        if self._verify("cli", code, opdir, outdir):
            self._record("wall_s", wall)
            self._record("cpu_s", cpu)
            self._record("peak_rss_mb", rss)

    def setup_op(self, record=True):
        opdir = self._fresh_dir()
        argv = [sys.executable, "-c", SETUP_CODE, str(self.config_path),
                self.workload.command, str(opdir / "out")]
        t0 = time.monotonic()
        code, _, _, _ = launch(argv, self.workdir, opdir / "stdout.txt")
        if not record:
            return
        self.attempted += 1
        if code != 0:
            err = (opdir / "stdout.txt.err").read_text().strip()
            self._fail("setup", f"exit code {code}: {err[-500:]}")
            return
        done = float((opdir / "stdout.txt").read_text().split()[-1])
        self._record("setup_s", done - t0)

    def traced_op(self):
        opdir = self._fresh_dir()
        outdir = opdir / "out"
        spans_path = opdir / "spans.json"
        argv = [sys.executable, str(HERE / "trace_child.py"), str(spans_path),
                *self._cli_argv(outdir)]
        code, wall, _, _ = launch(argv, self.workdir, opdir / "stdout.txt")
        if self._verify("traced cli", code, opdir, outdir):
            with open(spans_path) as fh:
                trace = json.load(fh)
            self._record("traced_wall_s", wall)
            for key, value in layer_metrics(trace, outdir).items():
                self._record(key, value)

    def metrics(self, trace: bool) -> dict:
        med = {k: statistics.median(v) for k, v in self.samples.items()}
        if trace and "traced_wall_s" in med and "wall_s" in med:
            med["trace.overhead_s"] = med["traced_wall_s"] - med["wall_s"]
        wanted = PER_LAYER if trace else END_TO_END
        missing = sorted(set(wanted) - set(med))
        if missing:
            raise RuntimeError(f"no successful operation measured {missing}")
        return {k: {"value": med[k], "unit": unit} for k, unit in wanted.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit, so a running launch is killed and
    # reaped and the output directory removed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "mflq" / "cli.py").is_file():
        print(f"error: no mflq sources at {SRC}", file=sys.stderr)
        return 2
    oracles.self_test()

    workdir = HERE / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, workdir)
        run.setup_op(record=False)   # byte-compile mflq once, untimed
        if args.trace:
            round_ops = (run.cli_op, run.traced_op)
        else:
            round_ops = (run.setup_op, run.cli_op)
        start = time.monotonic()
        durations = []
        while True:
            t0 = time.monotonic()
            for op in round_ops:
                op()
            durations.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            if elapsed + statistics.median(durations) > args.seconds:
                break
        result = {"correct": run.wrong == 0, "attempted": run.attempted,
                  "failed": run.failed, "metrics": run.metrics(args.trace)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{args.workload}: {len(durations)} rounds in {elapsed:.1f} s",
          file=sys.stderr)
    for key, values in sorted(run.samples.items()):
        print(f"  {key}: " + " ".join(f"{v:.4g}" for v in values),
              file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
