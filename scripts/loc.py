#!/usr/bin/env python3
"""Count the code lines of Python files.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of docstrings (the leading string of a
module, class or function) are left out.  Prints one count per file and,
for more than one file, their total.  A directory stands for every
``.py`` file under it.

Usage: python3 scripts/loc.py PATH [PATH ...]
"""
from __future__ import annotations

import ast
import io
import os
import sys
import tokenize

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def python_files(paths: list[str]) -> list[str]:
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(
                os.path.join(root, name)
                for root, _, names in os.walk(path)
                for name in names
                if name.endswith(".py")
            )
        else:
            files.append(path)
    return files


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    total = 0
    files = python_files(argv)
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:7d}  {path}")
    if len(files) > 1:
        print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
