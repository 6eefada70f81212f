"""No module of the package, no test and no tool imports a name it never
uses.

`tools/unused_imports.py` reads each file's syntax tree; this runs it
over `src/gridfs/*.py`, `tests/*.py` and `tools/*.py`, and over a sample
to show what it reports."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "unused_imports.py"

SAMPLE = '''from __future__ import annotations

import os
import os.path
import json as js
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class C:
    where: Path


def f() -> None:
    from collections import deque
    return os.getcwd()
'''


def run(*paths):
    return subprocess.run([sys.executable, str(SCRIPT), *map(str, paths)],
                          capture_output=True, text=True)


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted((ROOT / "src" / "gridfs").glob("*.py"))
    assert modules
    result = run(*modules)
    assert (result.returncode, result.stdout) == (0, "")


def test_no_test_or_tool_imports_a_name_it_never_uses():
    scripts = sorted([*(ROOT / "tests").glob("*.py"),
                      *(ROOT / "tools").glob("*.py")])
    assert scripts
    result = run(*scripts)
    assert (result.returncode, result.stdout) == (0, "")


def test_each_unused_binding_is_named_with_its_line(tmp_path):
    """`import os.path` binds `os`, which is read; `js`, `field` and the
    function's `deque` are not; `from __future__` binds nothing."""
    sample = tmp_path / "sample.py"
    sample.write_text(SAMPLE)
    result = run(sample)
    assert result.returncode == 1
    assert result.stdout.splitlines() == [
        f"{sample}:5: js", f"{sample}:6: field", f"{sample}:16: deque"]
    assert run().returncode == 2
