"""The README's library example runs as written, so every API it shows keeps
working."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def library_block():
    """The first ```python block of the README's "## Library" section."""
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library"
    return match.group(1)


def test_library_example_runs():
    exec(compile(library_block(), f"{README}:Library", "exec"), {})
