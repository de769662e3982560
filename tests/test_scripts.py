"""Smoke runs of the experiment scripts at tiny sizes."""

import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize(
    "script, args",
    [
        ("schedule_comparison.py", ["--trials", "1"]),
        ("subspace_distance_zoom.py", ["--iters", "10"]),
    ],
)
def test_script_runs_and_writes_its_csv(tmp_path, package_env, script, args):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, script), *args, "--out", str(out)],
        capture_output=True, text=True, env=package_env, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(out.read_text().splitlines()) >= 2
