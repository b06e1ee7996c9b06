"""The walkthrough scripts under demos/ run to the end and print their
key result."""
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("script, line", [
    ("walkthrough_certificates.py",
     "certified constants: alpha=0.2 beta=0.35000000000000003 gamma=0.0, rate k = 0.8462"),
    ("walkthrough_interval.py", "exact proximity set: [-1.0, 1.0]"),
    ("walkthrough_two_maps.py",
     "pair set covers 10201 pairs, diameter 1.41421356 (sqrt(2) = 1.41421356)"),
])
def test_demo_runs(script, line):
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()
