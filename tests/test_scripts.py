"""The scripts run from a checkout: each imports the package from the
src/ beside it, so it needs neither an install nor PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, args, cwd):
    """Run a script from cwd with PYTHONPATH unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("name", ["block_survey.py", "minimality_scan.py",
                                  "hom_gate.py"])
def test_script_help_runs_without_pythonpath(name, tmp_path):
    proc = run_script(name, ["--help"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_minimality_scan_agrees_with_brute_force(tmp_path):
    # is_minimal and minimal_weight against the balanced subpartitions,
    # delta = 0's least weight (2) among them
    proc = run_script("minimality_scan.py", ["--max-size", "10"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("834 cases in "), proc.stdout
    assert proc.stdout.rstrip().endswith(", 0 divergences"), proc.stdout


def test_block_survey_verifies(tmp_path):
    proc = run_script("block_survey.py", ["--max-n", "5", "--verify"], tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "oracle: " in proc.stdout
    assert "FAIL" not in proc.stdout, proc.stdout


@pytest.mark.parametrize("name, args", [
    ("minimality_scan.py", ["--max-size", "-1"]),
    ("block_survey.py", ["--max-n", "1", "--verify"]),
])
def test_scripts_refuse_an_empty_range(name, args, tmp_path):
    # a range that holds no case would pass having checked nothing
    proc = run_script(name, args, tmp_path)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "must be at least" in proc.stderr, proc.stderr
