"""The public API and the README stay in step."""

from __future__ import annotations

import re
from pathlib import Path

import mevgen as mg

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in mg.__all__ if not hasattr(mg, name)]
    assert missing == []


def test_readme_library_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, f"{README}:quick start", "exec"), {})
