"""``tools/source_size.py``: code-only line counts, and their change against a
git revision with ``--base``."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "source_size.py"
_spec = importlib.util.spec_from_file_location("source_size", TOOL)
source_size = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(source_size)

SOURCE = b'''"""A module docstring."""

# a comment
def f(x):
    """A docstring."""
    return (x +
            1)
'''


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    # the def line and the two lines of the return statement
    assert source_size.code_lines(SOURCE) == 3
    assert source_size.code_lines(b"") == 0


def _git(cwd, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=cwd,
                   check=True, capture_output=True)


@pytest.mark.skipif(shutil.which("git") is None, reason="git is not installed")
def test_base_prints_each_change_against_a_revision(tmp_path):
    (tmp_path / "a.py").write_bytes(SOURCE)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "a.py")
    _git(tmp_path, "commit", "-q", "-m", "a")
    (tmp_path / "a.py").write_bytes(SOURCE + b"g = f(2)\n")
    (tmp_path / "b.py").write_bytes(b"x = 1\n")  # missing at the base: counts 0 there
    run = subprocess.run([sys.executable, str(TOOL), "--base", "HEAD", "a.py", "b.py"],
                         cwd=tmp_path, capture_output=True, text=True, check=True)
    assert run.stdout.splitlines() == [
        "```",
        "    4    +1 a.py",
        "    1    +1 b.py",
        "    5    +2 code-only total, change against HEAD",
        "```",
    ]
    plain = subprocess.run([sys.executable, str(TOOL), "a.py"], cwd=tmp_path,
                           capture_output=True, text=True, check=True)
    assert plain.stdout.splitlines() == ["```", "    4 a.py", "    4 code-only total", "```"]
