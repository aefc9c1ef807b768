"""Count the code lines of Python files.

A code line holds a token other than a comment or a line break; the lines
of module, class and function docstrings do not count, and neither do blank
lines. A directory stands for its own *.py files, in sorted order. Prints
each file's count, then the total.

    python tools/code_lines.py src/gravscatter
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source``."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def _files(paths: list[str]) -> list[str]:
    """``paths`` with each directory replaced by its *.py files, sorted."""
    return [str(file) for path in paths
            for file in (sorted(Path(path).glob("*.py")) if Path(path).is_dir() else [path])]


def main(paths: list[str]) -> int:
    total = 0
    for path in _files(paths):
        with open(path, encoding="utf-8") as handle:
            count = code_lines(handle.read())
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
