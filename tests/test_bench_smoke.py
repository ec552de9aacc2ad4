"""Keeps the benchmark harness runnable: its toy-size smoke check must pass.

The smoke check drives every benchmark workload through the public CLI and
checks each operation's outputs, so removing an API it uses or changing an
artifact it verifies fails here. No timing is asserted.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke_passes():
    proc = subprocess.run(
        [sys.executable, "perfbench/smoke.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
