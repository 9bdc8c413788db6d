"""tools/code_lines.py counts the lines that hold code."""

import importlib.util
import os

import pytest

_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code leaves its line counted

# a comment line


class Box:
    """A class docstring."""

    size = 1


def total(a,
          b):
    """A function docstring
    over two lines."""
    # a comment inside a function
    out = (a
           + b)
    "a string statement after the docstring is code"
    return out
'''
# the code lines: import, class, size, def (2 lines), out (2 lines), the
# string statement, return
SOURCE_LINES = 9


def test_counts_only_lines_that_hold_code():
    assert code_lines.code_lines(SOURCE) == SOURCE_LINES


@pytest.mark.parametrize("source, count", [
    ("", 0), ("# only a comment\n\n", 0), ('"""Only a docstring."""\n', 0),
    ("x = 1\n", 1), ('x = """a string\nover two lines"""\n', 2)],
    ids=["empty", "comment", "docstring", "statement", "multi-line-string"])
def test_small_sources(source, count):
    assert code_lines.code_lines(source) == count


def test_main_prints_each_module_and_the_total(tmp_path, monkeypatch, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    monkeypatch.setattr(code_lines, "PACKAGE", tmp_path)
    assert code_lines.main() == 0
    assert capsys.readouterr().out == (f"{SOURCE_LINES:5d} a.py\n    1 b.py\n"
                                       f"{SOURCE_LINES + 1:5d} total\n")
