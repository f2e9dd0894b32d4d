"""Count the lines of a Python package by kind: code, docstring, comment and blank.

A docstring line is one spanned by the docstring of a module, class or
function (found by ``ast``); a comment line holds a comment token and no
other token (found by ``tokenize``); a blank line holds only whitespace;
every other line is code.  The total is the package's line count.

Usage:
    python3 scripts/line_count.py [package_dir]    # default: src/mevgen
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
DEFAULT_DIR = Path(__file__).resolve().parent.parent / "src" / "mevgen"


def count_lines(source: str) -> dict[str, int]:
    """The number of lines of each kind in one module's source."""
    lines = source.splitlines()
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    comment, other = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in (tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                              tokenize.DEDENT, tokenize.ENDMARKER):
            other.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        if number in docstring:
            kind = "docstring"
        elif not line.strip():
            kind = "blank"
        elif number in comment and number not in other:
            kind = "comment"
        else:
            kind = "code"
        counts[kind] += 1
    return counts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("package_dir", nargs="?", type=Path, default=DEFAULT_DIR)
    args = parser.parse_args(argv)
    total = dict.fromkeys(KINDS, 0)
    print(f"{'file':<16}{'lines':>7}" + "".join(f"{k:>11}" for k in KINDS))
    for path in sorted(args.package_dir.glob("*.py")):
        counts = count_lines(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += counts[kind]
        row = f"{path.name:<16}{sum(counts.values()):>7,}"
        print(row + "".join(f"{counts[k]:>11,}" for k in KINDS))
    lines = sum(total.values())
    print(f"{args.package_dir.name}: {lines:,} = " + " + ".join(f"{total[k]:,}" for k in KINDS)
          + " (" + " + ".join(KINDS) + ")")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
