"""Count the code lines of Python sources: lines that hold a token other than
a comment, minus the lines of docstrings.

    python tools/code_lines.py src/agtrack

prints each file's count and the total.  A line counts once, however many
tokens it holds; a string token counts every line it spans.  A docstring is
the string statement that opens a module, class or function body.
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {line for tok in tokens if tok.type not in _NOT_CODE
             for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines -= set(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    total = 0
    for root in argv or ["src/agtrack"]:
        root = Path(root)
        for path in sorted(root.rglob("*.py")) if root.is_dir() else [root]:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
