"""The example scripts run to completion: nothing else runs them, so a
change to an API they use would otherwise break them unnoticed."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, argv, expect", [
    ("trace_analysis.py", [], "samplesort (alltoallv): 858 messages"),
    ("heat3d_resilience.py", ["8"], "MTTF_a == E2 / (F + 1) on every row: OK"),
])
def test_example_runs(tmp_path, script, argv, expect):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), XSIM_CACHE="0")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / script), *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout
