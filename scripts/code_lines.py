#!/usr/bin/env python3
"""Code lines per module of a Python package (standard library only).

A code line holds at least one token that is not a comment: blank lines,
comment-only lines and the lines of docstrings (the string that opens a
module, class or function body) are not counted; every line of any other
multi-line string is.  Prints one row per module, largest first, and the
total.

    python3 scripts/code_lines.py               # src/satcover
    python3 scripts/code_lines.py path/to/package
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "satcover"


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> int:
    package = Path(sys.argv[1]) if len(sys.argv) > 1 else DEFAULT
    rows = sorted(((code_lines(p.read_text()), p.name) for p in package.glob("*.py")),
                  key=lambda row: (-row[0], row[1]))
    if not rows:
        print(f"no modules under {package}", file=sys.stderr)
        return 2
    for lines, name in rows:
        print(f"{name:<16} {lines:>6}")
    print(f"{'total':<16} {sum(lines for lines, _ in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
