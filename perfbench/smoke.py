"""Toy-size smoke check of the benchmark, so the harness cannot rot.

Run from the repository root:

    python3 perfbench/smoke.py

Runs every workload with --toy inputs, untraced and traced, each in its
own process, and asserts that the result names exactly the metrics in
BENCHMARK.json, that every operation passed its output checks and that
failed_ratio is 0. It makes no timing assertion.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            argv = [*spec["command"], "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--toy"]
            proc = subprocess.run([sys.executable, *argv[1:]], cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or len(lines) < 2:
                failures.append(f"{label}: exit {proc.returncode}\n{proc.stderr}")
                continue
            meta, result = json.loads(lines[-2])["meta"], json.loads(lines[-1])
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if units != expected[trace]:
                failures.append(f"{label}: metric names or units differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected[trace]))}")
            if not result["correct"] or result["failed"] or meta["failed_ratio"] != 0:
                failures.append(f"{label}: failed operations\n{proc.stderr}")
            print(f"{label}: {result['attempted']} operations, correct={result['correct']}")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
