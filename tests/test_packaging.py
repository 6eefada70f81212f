"""The package metadata points at code that exists.

A console script in `pyproject.toml` whose target was removed installs
cleanly and only fails when someone runs it; this catches it in the fast
suite."""

from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")    # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_every_console_script_resolves_to_a_callable():
    with open(PYPROJECT, "rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        entry = EntryPoint(name, target, "console_scripts")
        assert callable(entry.load()), f"{name} = {target!r}"
