"""The benchmark harness's own self-test, run as part of the test suite.

The harness patches program functions by name (``bench/trace.py``) and calls
the study entry points directly, so a rename that breaks it fails here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"], cwd=ROOT, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "harness self-test passed" in proc.stdout
