"""Count the code lines of each ``src/smpnet`` module and in total.

A code line holds at least one token of code: blank lines, comment lines
and docstring lines (the string that opens a module, class or function) do
not count. Tokens come from ``tokenize`` and docstrings from ``ast``.

Usage: python tools/code_lines.py [ROOT]   (ROOT defaults to the repository)
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.difference_update(range(first.lineno, first.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else Path(__file__).resolve().parent.parent)
    counts = {path.name: code_lines(path) for path in sorted((root / "src" / "smpnet").glob("*.py"))}
    width = max(map(len, counts), default=5)
    for name, count in counts.items():
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
