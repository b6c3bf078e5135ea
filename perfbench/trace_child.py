"""Run one mflq CLI command in-process with spans around each layer.

Usage: python3 perfbench/trace_child.py SPANS_JSON <mflq CLI arguments>

Wraps the public functions listed in LAYERS on their modules, so calls
made through module attributes or module globals are recorded, then
calls `mflq.cli.main`.  Each span is (name, start, end, id, parent id,
process CPU at start and end); a span opened on a worker thread with
no open span of its own takes the span open on the main thread as its
parent.  Spans stay in memory and are written to SPANS_JSON at the end,
together with the import time of `mflq.cli` and a few sizes read off
the results.  The process exits with the CLI's exit code.
"""

import functools
import itertools
import json
import sys
import threading
import time

LAYERS = {
    "cli": ("load_config", "run"),
    "riccati": ("solve_are", "integrate_finite_horizon", "integrate_offsets"),
    "static_opt": ("solve_static",),
    "simulate": ("run_coupled", "propagate_mean", "brownian_increments",
                 "write_ensemble_csv"),
    "analysis": ("turnpike_pipeline", "value_convergence",
                 "fit_turnpike_decay"),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.extras = {"rk4_steps": 0, "path_steps": 0, "snapshot_bytes": []}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                self.spans.append([name, t0, t1, span_id, parent, cpu0, cpu1])
            self._note(name, result)
            return result
        return traced

    def _note(self, name, result):
        if name == "riccati.integrate_finite_horizon":
            self.extras["rk4_steps"] += len(result.mesh) - 1
        elif name == "simulate.run_coupled":
            n_paths = result.raw_optimal.X.shape[2]
            steps = len(result.optimal.mesh) - 1
            self.extras["path_steps"] += n_paths * steps
            self.extras["snapshot_bytes"].append(sum(
                a.nbytes for raw in (result.raw_optimal, result.raw_turnpike)
                for a in (raw.X, raw.u)))


def main() -> int:
    spans_path, cli_args = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import mflq.cli
    import_s = time.perf_counter() - t0
    import mflq
    tracer = Tracer()
    for module_name, names in LAYERS.items():
        module = getattr(mflq, module_name)
        for fn_name in names:
            setattr(module, fn_name, tracer.wrap(
                f"{module_name}.{fn_name}", getattr(module, fn_name)))
    code = mflq.cli.main(cli_args)
    with open(spans_path, "w") as fh:
        json.dump({"import_s": import_s, "exit_code": code,
                   "spans": tracer.spans, "extras": tracer.extras}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
