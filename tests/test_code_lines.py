"""``tools/code_lines.py`` counts the lines that hold code: not blank lines,
comments, or module, class and function docstrings."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import math


class Box:
    """Class docstring."""

    def area(self, side):
        """Function docstring,

        with a blank line."""
        text = """a string that is
not a docstring"""  # trailing comment
        return math.prod(
            [side, side]
        )
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line string, return and its two lines
    assert code_lines.code_lines(SOURCE) == 8


def test_counts_every_module_of_a_directory(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["8", "1", "9"]
    assert out[-1].endswith("total")
