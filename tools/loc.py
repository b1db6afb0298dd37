#!/usr/bin/env python3
"""Line counts of the library: total lines and code lines per module of src/.

Run from anywhere:

    python3 tools/loc.py

Code lines are the lines that are not blank, hold only a comment, or lie in
a docstring (the string that opens a module, class or function, with every
line it spans).  One line per module, then the sum.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by the docstrings of a module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = source.splitlines()
    code = sum(1 for k, line in enumerate(lines, 1)
               if k not in skip and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code


def main() -> int:
    totals = [0, 0]
    for path in sorted(SRC.rglob("*.py")):
        lines, code = count(path.read_text(encoding="utf-8"))
        totals[0] += lines
        totals[1] += code
        print(f"{path.relative_to(SRC)}\t{lines}\t{code}")
    print(f"total\t{totals[0]}\t{totals[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
