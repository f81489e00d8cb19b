"""The benchmark harness still runs end to end on tiny corpora.

Timing gates stay out of the test suite; this only checks that
``perfbench/run.py --smoke`` completes, reports every declared metric and
finds the outputs correct.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_run():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "smoke: ok" in proc.stdout.splitlines(), proc.stdout
