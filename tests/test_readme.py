"""README.md's Python examples run as written, against the karate club as
``network.edges``."""

from __future__ import annotations

import re
import shutil
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent


def test_readme_python_examples_run(monkeypatch, tmp_path):
    blocks = re.findall(r"^```python\n(.*?)^```", (_ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert blocks
    shutil.copy(_ROOT / "tests" / "data" / "karate.edges", tmp_path / "network.edges")
    monkeypatch.chdir(tmp_path)
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})
