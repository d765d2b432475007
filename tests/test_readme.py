"""README's code examples run as written."""

import io
import re
from contextlib import redirect_stdout
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _section_code(heading):
    """The first ```python block under README's ``## heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_example_runs_as_written():
    out = io.StringIO()
    with redirect_stdout(out):
        exec(compile(_section_code("Library use"), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the fixed-point solve's (phi, a, a'), then one line per scanned root
    assert len(lines) >= 2 and len(lines[0].split()) == 3
    assert all(len(line.split()) == 2 for line in lines[1:])
