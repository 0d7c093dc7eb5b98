"""The README's library quick start runs against the public API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _section(text: str, heading: str) -> str:
    start = text.index(f"\n## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def test_library_quick_start_runs(capsys):
    # The section's python blocks build on each other, so they share one namespace.
    section = _section(README.read_text(encoding="utf-8"), "Library quick start")
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert capsys.readouterr().out
