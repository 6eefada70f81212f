"""List the imported names that a Python file never uses.

    python3 tools/unused_imports.py PATH...

Prints one line per name that an `import` or `from ... import` binds and
that no other line of the same file reads, as `path:line: name`, and
exits 1 if there is any. `import a.b` binds `a`, and
`from __future__ import ...` binds nothing. The check reads each file's
syntax tree alone, so a name imported only to be imported again from
this module counts as unused: import it from where it is defined
instead.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def imported_names(tree: ast.AST) -> dict[str, int]:
    """Each name an import binds, with the line of its last binding."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                             ast.Store)}
    return sorted((line, name) for name, line in imported_names(tree).items()
                  if name not in read)


def main(argv: list[str]) -> int:
    if not argv or any(arg.startswith("-") for arg in argv):
        print("usage: unused_imports.py PATH...", file=sys.stderr)
        return 2
    found = 0
    for name in argv:
        for line, unused in unused_imports(
                Path(name).read_text(encoding="utf-8")):
            print(f"{name}:{line}: {unused}")
            found += 1
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
