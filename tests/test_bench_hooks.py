"""The benchmark's tracing hooks and calls still find what they use.

`perfbench/spans.py` wraps gridfs functions by name from outside the
program, and the workloads call gridfs by name and keyword. A rename or a
removed keyword under `src/` would detach a wrapper or break a run; this
catches it in the fast suite. It reads `perfbench/` and starts no node."""

import ast
import importlib
import importlib.util
import inspect
import threading
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def gridfs_bindings(tree: ast.AST) -> dict[str, object]:
    """Every name a perfbench module binds by importing from gridfs, at
    any depth, mapped to the object it is bound to."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "gridfs":
                    module = importlib.import_module(alias.name)
                    bound[alias.asname or "gridfs"] = \
                        module if alias.asname else \
                        importlib.import_module("gridfs")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.partition(".")[0] == "gridfs":
            module = importlib.import_module(node.module)
            for alias in node.names:
                assert hasattr(module, alias.name), \
                    f"{node.module}.{alias.name} is gone"
                bound[alias.asname or alias.name] = getattr(module,
                                                            alias.name)
    return bound


def resolve(expr: ast.expr, bound: dict[str, object]):
    """The object a Name or dotted Attribute chain rooted at a gridfs
    binding names, or None for any other expression."""
    if isinstance(expr, ast.Name):
        return bound.get(expr.id)
    if isinstance(expr, ast.Attribute):
        owner = resolve(expr.value, bound)
        if owner is None:
            return None
        assert hasattr(owner, expr.attr), \
            f"{ast.unparse(expr)} does not resolve"
        return getattr(owner, expr.attr)
    return None


def test_every_gridfs_name_and_keyword_perfbench_uses_exists():
    checked = 0
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = gridfs_bindings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                resolve(node, bound)
            if not isinstance(node, ast.Call):
                continue
            target = resolve(node.func, bound)
            keywords = [k.arg for k in node.keywords if k.arg is not None]
            if target is None or not keywords:
                continue
            parameters = inspect.signature(target).parameters
            if any(p.kind == p.VAR_KEYWORD for p in parameters.values()):
                continue
            for keyword in keywords:
                assert keyword in parameters, \
                    f"{path.name}:{node.lineno}: {ast.unparse(node.func)}" \
                    f" takes no keyword {keyword!r}"
                checked += 1
    assert checked > 0    # the walk did find perfbench's keyword calls
