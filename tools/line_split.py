"""Split the lines of Python files into docstrings, comments, blank lines and code.

A docstring is the first string statement of a module, class or function, all
the lines it spans; a comment line holds only a comment; a blank line holds
nothing; every other line is code.  Usage:

    python tools/line_split.py [PATH ...]                  # files or directories, default src/
    python tools/line_split.py --against REV [PATH ...]    # the same files at git revision REV and now

The first prints one row per file and a total row.  The second reads the
files under PATH at REV with ``git show``, run from the current directory,
and prints the total at REV, the total now and the change, kind by kind; an
unknown REV, or no git checkout, is a usage error (exit 2) that quotes git.
A PATH that does not exist is a usage error too.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
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


def sources_now(paths: list[str]) -> dict[str, str]:
    """{file name: source} of the .py files under paths in the working tree."""
    files = sorted(f for p in map(Path, paths) for f in (p.rglob("*.py") if p.is_dir() else [p]))
    return {str(f): f.read_text() for f in files}


def sources_at(rev: str, paths: list[str]) -> dict[str, str]:
    """{file name: source} of the .py files under paths at git revision rev."""
    def git(*args):
        return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout
    names = git("ls-tree", "-r", "--name-only", "--full-name", rev, "--", *paths).splitlines()
    return {name: git("show", f"{rev}:{name}") for name in names if name.endswith(".py")}


def total(sources: dict[str, str]) -> dict[str, int]:
    counts = [split(s) for s in sources.values()]
    return {k: sum(c[k] for c in counts) for k in KINDS}


def row(name: str, counts: dict[str, int], sign: str = "") -> str:
    return f"{name:<40}{sum(counts.values()):>{sign}7}" + "".join(f"{counts[k]:>{sign}12}" for k in KINDS)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count docstring, comment, blank and code lines.")
    parser.add_argument("--against", metavar="REV", help="also count the files at this git revision")
    parser.add_argument("paths", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    if missing := [p for p in args.paths if not Path(p).exists()]:
        parser.error(f"no such file or directory: {', '.join(missing)}")
    try:
        before = args.against and total(sources_at(args.against, args.paths))
    except subprocess.CalledProcessError as exc:  # an unknown revision, or no git checkout here
        parser.error(f"git {exc.cmd[1]}: {exc.stderr.strip()}")
    now = sources_now(args.paths)
    print(f"{'file':<40}{'total':>7}" + "".join(f"{k:>12}" for k in KINDS))
    if args.against:
        after = total(now)
        print(row(f"at {args.against}"[:39], before))
        print(row("now", after))
        print(row("change", {k: after[k] - before[k] for k in KINDS}, "+"))
        return 0
    for name, source in now.items():
        print(row(name, split(source)))
    print(row("total", total(now)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
