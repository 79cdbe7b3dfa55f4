import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["threshold_study", "phase_diagram",
                                  "stability_report"])
def test_script_help(name):
    # --help runs every import of the script, so a moved name fails here
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{name}.py"), "--help"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout


def test_phase_diagram_rejects_a_malformed_range():
    # the script parses ranges with the CLI's parser
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "phase_diagram.py"),
         "--eps", "1:2"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "InputError: range must be lo:hi:count, got '1:2'" in proc.stderr
