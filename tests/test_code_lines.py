"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

# a comment line
import os  # a trailing comment


class A:
    """A class docstring
    on two lines."""

    x = """a string that is not a docstring
    counts on both lines"""

    def f(self):
        "a one-line docstring"
        return os.sep
'''


def test_blank_comment_and_docstring_lines_do_not_count():
    # import, class, the two lines of x, def and return
    assert code_lines.code_lines(SOURCE) == 6


def test_total_is_the_sum_of_the_modules(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    counts = [int(line.split()[0])
              for line in capsys.readouterr().out.splitlines()]
    assert counts == [6, 2, 8]
