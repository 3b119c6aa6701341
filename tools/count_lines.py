"""Count the lines of each module of ``src/infosep``: raw and code only.

Usage, from the root of a checkout:

    python3 tools/count_lines.py

Prints one row per module and a total.  ``raw`` counts every line of the
file.  ``code`` leaves out blank lines, lines that hold only a comment,
and the lines of docstrings (the string that opens a module, class or
function body); a line that holds code and a comment counts as code.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "infosep")

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree) -> set:
    """Line numbers covered by the docstrings in a parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """``(raw, code)`` line counts of one Python source text."""
    docs = _docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docs:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> int:
    total_raw = total_code = 0
    print(f"{'module':<16} {'raw':>6} {'code':>6}")
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            raw, code = count(fh.read())
        total_raw += raw
        total_code += code
        print(f"{name:<16} {raw:>6} {code:>6}")
    print(f"{'total':<16} {total_raw:>6} {total_code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
