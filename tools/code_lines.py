"""Count the code lines of Python files.

    python3 tools/code_lines.py PATH...

Prints, for each file and then in total, the lines that are not blank,
not comments and not part of a docstring (of a module, class or
function). A line counts once however many tokens it holds, and every
line of a multi-line statement or of a string that is not a docstring
counts, blank or not. This is the size that a design change to `src/`
reports, before and after.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        first = node.body[0] if node.body else None
        if isinstance(first, ast.Expr) and \
                isinstance(first.value, ast.Constant) and \
                isinstance(first.value.value, str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    for name in argv:
        count = code_lines(Path(name).read_text(encoding="utf-8"))
        total += count
        print(f"{count:7d}  {name}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
