"""Count the code lines of Python files.

A code line holds at least one token other than a comment or layout
(newlines, indentation), and is not part of a docstring of a module,
class or function. Prints one ``<path> <count>`` line per file, then the
total when more than one file is given:

    python3 tools/code_lines.py src/chanapprox/*.py
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize

_LAYOUT = (
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
)
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    """The number of code lines of ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(paths: list[str]) -> int:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        print(path, count)
        total += count
    if len(paths) > 1:
        print("total", total)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
