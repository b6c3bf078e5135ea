"""Smoke tests: each demo script runs as a program and prints its
headline result, each shipped CLI config loads for its command, and the
README quick start runs."""

import runpy
from pathlib import Path

import pytest

from mflq.cli import load_config

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script, line", [
    ("turnpike_demo.py", "left decay:"),
    ("riccati_convergence.py", "reference rates:"),
])
def test_demo_runs(capsys, script, line):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out


@pytest.mark.parametrize("config, command", [
    ("sp2_turnpike.json", "turnpike"),
    ("mean_field_value.json", "value-convergence"),
])
def test_shipped_configs_load(config, command):
    cfg = load_config(DEMOS / "configs" / config, command=command)
    assert cfg.command == command


def test_readme_quick_start_runs():
    text = (ROOT / "README.md").read_text()
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    gap = scope["gap"]
    assert gap.shape == (scope["cfg"].n_steps + 1,)
    assert gap[len(gap) // 2] < gap[0]
