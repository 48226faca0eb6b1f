"""The README's library example runs as written against the installed API."""

import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def python_blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
