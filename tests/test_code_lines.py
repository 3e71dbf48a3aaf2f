"""``tools/code_lines.py`` counts lines holding a token other than a comment
or a docstring."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FIXTURE = '''"""Module docstring,
over three lines.
"""
# A comment line.

import os  # a trailing comment


def f(x):
    """Function docstring."""
    s = """a string,
not a docstring"""
    return x


class C:
    \'\'\'Class docstring.\'\'\'

    y = (1,
         2)
'''


def _tool():
    spec = importlib.util.spec_from_file_location(
        "_code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, def, the two lines of the string, return, class and the two
    # lines of the tuple.
    assert _tool().code_lines(FIXTURE) == 8


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("# only a comment\nx = 1\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py", "     1  b.py", "     9  total"]
