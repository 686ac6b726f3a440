#!/usr/bin/env python3
"""Count the code lines of Python files.

A code line holds at least one token that is not a comment; blank lines,
comment lines and the lines of docstrings (the leading string of a
module, class or function) are left out.  Prints one count per file and,
for more than one file, their total.  A directory stands for every
``.py`` file under it.  With ``--names``, each file's count is split
into one line per top-level function or class (``PATH::name``, its
decorators included) and one for the module-level rest
(``PATH::<module>``).

Usage: python3 scripts/loc.py [--names] PATH [PATH ...]
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


def code_line_numbers(source: str, tree: ast.Module) -> set[int]:
    """Numbers of the code lines of ``source``, parsed as ``tree``."""
    docstrings = set()
    for node in ast.walk(tree):
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
    return lines - docstrings


def code_lines(source: str) -> int:
    """Number of code lines in ``source``."""
    return len(code_line_numbers(source, ast.parse(source)))


def name_lines(source: str) -> dict[str, int]:
    """Code lines of each top-level function or class of ``source``, in
    source order, then of the rest under ``<module>``."""
    tree = ast.parse(source)
    lines = code_line_numbers(source, tree)
    counts = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            span = set(range(first, node.end_lineno + 1))
            counts[node.name] = counts.get(node.name, 0) + len(lines & span)
            lines -= span
    counts["<module>"] = len(lines)
    return counts


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
    names = argv[:1] == ["--names"]
    paths = argv[1:] if names else argv
    if not paths:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    total = 0
    files = python_files(paths)
    for path in files:
        with open(path, "r", encoding="utf-8") as fh:
            source = fh.read()
        if names:
            for name, count in name_lines(source).items():
                total += count
                print(f"{count:7d}  {path}::{name}")
        else:
            count = code_lines(source)
            total += count
            print(f"{count:7d}  {path}")
    if len(files) > 1:
        print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
