"""The names the benchmark in perfbench/ reads off the package.

perfbench/trace_child.py wraps the functions in its LAYERS table by
name and reads a few result fields; perfbench/run.py calls
cli.load_config with the command and an `out` override.  These tests
read perfbench/ without changing it, so a change that renames or
deletes one of those names fails here instead of in `run.py --trace 1`.
"""

import importlib.util
import inspect
from dataclasses import fields
from pathlib import Path

import mflq
from mflq import cli, riccati, simulate

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _trace_child():
    spec = importlib.util.spec_from_file_location(
        "trace_child", PERFBENCH / "trace_child.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _field_names(cls):
    return {f.name for f in fields(cls)}


def test_traced_layers_exist():
    for module_name, names in _trace_child().LAYERS.items():
        module = getattr(mflq, module_name)
        for name in names:
            assert callable(getattr(module, name, None)), \
                f"mflq.{module_name}.{name}"


def test_traced_result_fields_exist():
    assert {"optimal", "raw_optimal", "raw_turnpike"} <= _field_names(
        simulate.CoupledResult)
    assert {"X", "u"} <= _field_names(simulate.RawPaths)
    assert "mesh" in _field_names(simulate.EnsembleStats)
    assert "mesh" in _field_names(riccati.RiccatiPath)


def test_load_config_takes_command_and_overrides():
    params = inspect.signature(cli.load_config).parameters
    assert {"command", "overrides"} <= set(params)
