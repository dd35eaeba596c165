"""Split the lines of Python files into docstrings, comments, blank lines and code.

A docstring is the first string statement of a module, class or function, all
the lines it spans; a comment line holds only a comment; a blank line holds
nothing; every other line is code.  Usage:

    python tools/line_split.py [PATH ...]    # files or directories, default src/

prints one row per file and a total row.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("docstrings", "comments", "blank", "code")


def split(source: str) -> dict[str, int]:
    """The number of lines of each kind in one file's source."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and body:
            first = body[0]
            value = getattr(first, "value", None) if isinstance(first, ast.Expr) else None
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                doc.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for no, line in enumerate(source.splitlines(), 1):
        text = line.strip()
        kind = "docstrings" if no in doc else "blank" if not text else "comments" if text.startswith("#") else "code"
        counts[kind] += 1
    return counts


def main(argv: list[str]) -> int:
    paths = [Path(p) for p in argv or ["src"]]
    files = sorted(f for p in paths for f in (p.rglob("*.py") if p.is_dir() else [p]))
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<40}{'total':>7}" + "".join(f"{k:>12}" for k in KINDS))
    for f in files:
        counts = split(f.read_text())
        for k in KINDS:
            total[k] += counts[k]
        print(f"{str(f):<40}{sum(counts.values()):>7}" + "".join(f"{counts[k]:>12}" for k in KINDS))
    print(f"{'total':<40}{sum(total.values()):>7}" + "".join(f"{total[k]:>12}" for k in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
