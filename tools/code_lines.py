"""Count the code lines of the gf2mat package, one way for every change.

A code line is a line that holds code: blank lines, comment-only lines
and docstring lines are left out. Python files are read with tokenize
(which lines carry a token other than a comment) and ast (which lines a
module, class or function docstring spans); in `_kernel.c`, `//` and
`/* */` comments are stripped before blank lines are dropped.

Usage: python tools/code_lines.py [package directory]
(default: src/gf2mat next to this script's directory). Prints one line
per file, then the Python and C subtotals and the total.
"""

import ast
import io
import re
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
# A C comment, or a string or character literal that may hold "//".
_C_TOKEN = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"'
                      r"|'(?:\\.|[^'\\\n])*'", re.S)


def python_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) \
                    and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def c_lines(source: str) -> int:
    def strip(match):
        text = match.group()
        if text.startswith("/*"):
            return "\n" * text.count("\n")
        return "" if text.startswith("//") else text
    return sum(1 for line in _C_TOKEN.sub(strip, source).splitlines()
               if line.strip())


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else \
        Path(__file__).resolve().parent.parent / "src" / "gf2mat"
    totals = {".py": 0, ".c": 0}
    for path in sorted([*root.glob("*.py"), *root.glob("*.c")]):
        source = path.read_text()
        count = python_lines(source) if path.suffix == ".py" \
            else c_lines(source)
        totals[path.suffix] += count
        print(f"{count:6d}  {path.name}")
    print(f"{totals['.py']:6d}  python\n{totals['.c']:6d}  c\n"
          f"{sum(totals.values()):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
