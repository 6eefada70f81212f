"""The benchmark's tracing hooks still find what they wrap.

`perfbench/spans.py` wraps gridfs functions by name from outside the
program. A rename under `src/` would detach a wrapper; this catches it in
the fast suite. It reads `perfbench/` and starts no node."""

import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_target_resolves():
    spans = load_spans()
    for module_name, attribute, _ in spans.WRAPS:
        owner = importlib.import_module(f"gridfs.{module_name}")
        for part in attribute.split("."):
            owner = inspect.getattr_static(owner, part)    # AttributeError
        assert callable(owner), f"{module_name}.{attribute}"


def test_thread_modules_start_threads_through_their_own_import():
    spans = load_spans()
    for module_name in spans.THREAD_MODULES:
        module = importlib.import_module(f"gridfs.{module_name}")
        assert inspect.getattr_static(module, "threading") is threading
