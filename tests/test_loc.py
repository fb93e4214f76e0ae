"""tools/loc.py: total and code-only lines of a fixed snippet."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "loc.py"

SNIPPET = '''\
"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line


# a comment-only line
class Thing:
    """Class docstring."""

    ASM = """
    addi x1, x0, 1
    """

    def method(self):
        \'\'\'Method docstring.\'\'\'
        return os.sep
'''


def test_counts_a_fixed_snippet(tmp_path):
    spec = importlib.util.spec_from_file_location("loc", TOOL)
    loc = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loc)
    # code: import, class, the three lines of ASM, def, return
    assert loc.count(SNIPPET) == (17, 7)

    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path / "pkg")],
                         check=True, capture_output=True, text=True).stdout
    assert out.splitlines()[1].split() == ["19", "8", str(tmp_path / "pkg")]
