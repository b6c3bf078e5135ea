"""Smoke tests: each demo script runs as a program and prints its
headline result."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, line", [
    ("turnpike_demo.py", "left decay:"),
    ("riccati_convergence.py", "reference rates:"),
])
def test_demo_runs(capsys, script, line):
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    assert line in capsys.readouterr().out
