"""Every ``python -m repro.*`` entry point must at least print its help.

Each runs as a subprocess, the way users run them, so a broken parser
(a bad help string, an import error) fails here rather than in the
hands of the first user who asks for ``--help``.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "package", ["experiments", "lint", "perf", "store", "telemetry"]
)
def test_help_exits_zero(package):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-m", f"repro.{package}", "--help"],
        env=env,
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, (
        f"python -m repro.{package} --help exited with {proc.returncode}\n"
        f"--- stderr ---\n{proc.stderr}"
    )
    assert "usage:" in proc.stdout
