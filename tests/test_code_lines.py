"""tools/code_lines.py: the code-line count that simplicity changes cite."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def run_tool(*args):
    run = subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    return [line.split() for line in run.stdout.splitlines()]


def test_module_lines_sum_to_the_total():
    rows = run_tool()
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} >= {"cli", "entropy", "grids", "ordering", "propagation", "synth"}
    assert all(int(n) > 0 for n, _ in modules)
    assert sum(int(n) for n, _ in modules) == int(total)


SOURCE = '''"""Module docstring,
over two lines."""

import os  # a comment after code counts


class A:
    """Class docstring."""

    # a comment line does not count
    x = """a string that is
not a docstring"""

    def f(self):
        """Function docstring."""
        return (
            1
        )
'''


def test_counts_code_lines_only(tmp_path):
    (tmp_path / "one.py").write_text(SOURCE)
    # import, class, the two lines of x, def, and the three lines of return
    assert run_tool(str(tmp_path)) == [["8", "one"], ["8", "total"]]
