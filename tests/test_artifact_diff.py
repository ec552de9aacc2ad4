"""Smoke test of `tools/artifact_diff.py`, the parent/change artifact comparison.

Two copies of the package must compare `same` throughout, and a copy with
one mutated constant must make the tool print `differs` and exit 1. A few
cheap cases of the tool's set stand in for the whole of it.
"""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_diff.py"
SMOKE_CASES = ("mask-m3-seed0", "mei-m10", "js-m14")


@pytest.fixture(scope="module")
def artifact_diff():
    spec = importlib.util.spec_from_file_location("artifact_diff", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def copy_src(dest: Path) -> Path:
    shutil.copytree(ROOT / "src" / "missdiag", dest / "missdiag",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def smoke(artifact_diff, parent: Path, change: Path) -> int:
    cases = {name: artifact_diff.CASES[name] for name in SMOKE_CASES}
    return artifact_diff.compare(parent, change, cases)


def test_identical_copies_are_the_same(tmp_path, capsys, artifact_diff):
    parent, change = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    assert smoke(artifact_diff, parent, change) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines and all(line.startswith("same    ") for line in lines)
    assert "same    mask-m3-seed0/out/masks.csv" in lines
    assert "same    js-m14/console" in lines


def test_mutated_constant_differs(tmp_path, capsys, artifact_diff):
    parent, change = copy_src(tmp_path / "a"), copy_src(tmp_path / "b")
    protocol = change / "missdiag" / "protocol.py"
    text = protocol.read_text()
    assert text.count("_PHILOX_ROUNDS = 10\n") == 1
    protocol.write_text(text.replace("_PHILOX_ROUNDS = 10\n", "_PHILOX_ROUNDS = 9\n"))
    assert smoke(artifact_diff, parent, change) == 1
    out = capsys.readouterr().out
    assert "differs mask-m3-seed0/out/masks.csv: line 2: parent " in out
    assert "same    mei-m10/console" in out


@pytest.mark.parametrize("args", [[], ["src"], ["src", "tests"]])
def test_bad_arguments_exit_2(args):
    proc = subprocess.run([sys.executable, str(TOOL), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
