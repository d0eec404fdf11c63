"""scripts/count_lines.py: the line counts of the package's modules."""

import runpy
import subprocess
import sys

from conftest import REPO

SCRIPT = REPO / "scripts" / "count_lines.py"


def test_wc_total_is_the_sum_over_the_files():
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, check=True)
    rows = {name: (int(lines), int(code)) for name, lines, code in (r.split() for r in proc.stdout.splitlines()[1:])}
    files = sorted((REPO / "src" / "agequil").glob("*.py"))
    total = rows.pop("total")
    assert sorted(rows) == [path.name for path in files]
    assert total[0] == sum(path.read_bytes().count(b"\n") for path in files)
    assert total[1] == sum(code for _, code in rows.values())
    assert all(0 < code < lines for lines, code in rows.values())


def test_code_leaves_out_blank_comment_and_docstring_lines():
    code_lines = runpy.run_path(str(SCRIPT))["code_lines"]
    text = '''"""Module
docstring."""

# a comment
x = """not a
docstring"""


def f(a,
      b):  # two lines of code
    """One line."""
    return (
        a + b
    )
'''
    # x = ... (2), def f (2), return (3)
    assert code_lines(text) == 7
