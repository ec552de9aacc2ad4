"""README's `python` blocks run as written, so a removed name in them fails here."""

from __future__ import annotations

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_python_blocks_run_in_one_namespace():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = [block.split("```", 1)[0] for block in text.split("```python\n")[1:]]
    assert len(blocks) >= 2
    # A later block uses the names an earlier one made, as a reader would.
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
