"""tools/code_lines.py counts the code lines that size every change; pin
its rules on sources whose counts are known by hand."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Code lines: import, def, the two lines of the string assignment,
# return, class, y = 1.
PYTHON = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code

# a comment-only line


def f(x):
    """Function docstring."""
    s = """a string, not a docstring,
    over two lines"""
    return x


class C:
    """Class docstring
    on two lines."""

    # another comment
    y = 1
'''

# Code lines: #include, the string holding "//" and its trailing comment,
# f, g after its leading comment, the character literal, h, whose comment
# holds a quote.
C = r'''/* block comment
   over two lines */
#include <stdio.h>

// line comment
static const char *url = "http://example.org // no comment";  // one
int f(void) { /* inline */ return 1; }
/* leading */ int g; /* a comment that
   ends here */
char q = '"';
int h; // "not a string
'''


def test_python_skips_docstrings_comments_and_blank_lines():
    assert code_lines.python_lines(PYTHON) == 7


def test_c_skips_comments_but_not_strings_that_hold_them():
    assert code_lines.c_lines(C) == 6


def test_main_prints_files_and_totals(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(PYTHON)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    (tmp_path / "_kernel.c").write_text(C)
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     6  _kernel.c", "     0  empty.py", "     7  mod.py",
        "     7  python", "     6  c", "    13  total"]
