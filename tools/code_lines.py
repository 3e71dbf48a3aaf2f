#!/usr/bin/env python3
"""Count the code lines of the ``stiefelscf`` package.

A code line is a line that holds a token other than a comment or a
docstring: blank lines, comment-only lines and the lines of a module, class
or function docstring do not count.  Tokens come from ``tokenize``, and
docstrings are found with ``ast``.  A token spanning several lines (a
multi-line string) counts on each of them.

Usage::

    python tools/code_lines.py [PACKAGE_DIR]

prints one ``<lines>  <module>`` row per module of PACKAGE_DIR (default
``src/stiefelscf`` next to this script's parent) and a ``total`` row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "stiefelscf"

# Tokens that carry no code: layout, comments and the stream markers.
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Number of code lines in the Python ``source`` text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (tok.type == tokenize.STRING
                                    and tok.start[0] in docs):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    package = Path(argv[0]) if argv else PACKAGE
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
