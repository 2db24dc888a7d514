"""The scripts run from a checkout: each imports the package from the
src/ beside it, so it needs neither an install nor PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["block_survey.py", "minimality_scan.py",
                                  "hom_gate.py"])
def test_script_help_runs_without_pythonpath(name, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), "--help"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")
