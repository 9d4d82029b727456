"""The demos run end to end against the package source in ``src``.

They are the only callers of the public API outside the CLI and the tests.
All but one run as subprocesses in a scratch directory, the cutoff sweep
included; the one that runs Monte Carlo curves is only byte-compiled.
"""

import os
import py_compile
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize(
    "name",
    ["single_mode_report", "flat_histogram_check", "posterior_evolution", "optimal_states"],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(DEMOS / (name + ".py"))],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["repeated_measurements"])
def test_demo_compiles(name, tmp_path):
    py_compile.compile(
        str(DEMOS / (name + ".py")), cfile=str(tmp_path / (name + ".pyc")), doraise=True
    )
