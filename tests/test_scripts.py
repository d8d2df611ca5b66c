"""The scripts under scripts/ run to the end and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]


# Only the header lines: at 4 chips x 2 cycles the sweep's hit counts are not
# yet stable, so they are not asserted.
@pytest.mark.parametrize("script, args, headers", [
    ("calibrate_noise.py", ["--targets", "0.065", "--budget", "9"],
     ["target   sigma_noise   measured"]),
    ("sweep_analysis.py", ["--seeds", "1", "--grids", "4x2"],
     ["4 chips x 2 cycles, seeds 0-0, baseline P1_a", "design  period  BD"]),
])
def test_script_runs_and_prints_its_table(script, args, headers):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:len(headers)] == headers
