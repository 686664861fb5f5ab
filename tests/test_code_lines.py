"""`tests/code_lines.py`, the code-line counter that ROADMAP item 12 reports with."""

from __future__ import annotations

from code_lines import code_lines, main

SAMPLE = '''"""A module docstring,
over two lines."""

import os  # a comment after code


class C:
    """A class docstring."""

    def f(self, x):
        """A function docstring,

        over three lines."""
        # a comment line
        y = (x +
             1)
        text = """a string that is
no docstring"""
        return y, text
'''


def test_only_lines_of_code_count():
    # import, class, def, the two lines of y, the two of text, return
    assert code_lines(SAMPLE) == 8
    assert code_lines("") == 0


def test_main_counts_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n", encoding="utf-8")
    main(str(tmp_path))
    assert capsys.readouterr().out.split() == ["a.py", "8", "b.py", "1", "total", "9"]
