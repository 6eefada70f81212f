"""Span recording around calls into gridfs, installed from outside the program.

A `Tracer` keeps every span in memory: (id, parent id, op id, name, start,
end, bytes, failed). Times come from `time.monotonic`, which on Linux is
one system-wide clock, so spans from the client and from node processes
can be cut to the same measured window. The op id is the id of the
outermost span on the thread; threads started by the patched modules
inherit the span that was open when they were created, so the data
streams of one transfer share its op id.

`install` replaces each function named in `WRAPS` with a recording
wrapper. Nothing under `src/` changes: module functions are rebound on
their module (and wherever another gridfs module imported them by name,
or bound them as a default argument), methods are rebound on their class.
A target that no longer exists raises at install time; a wrapper that is
installed but no longer reached shows up in `missing_spans`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
import types

# (module, attribute, bytes-of-args or None). The bytes function sees the
# call's positional arguments, `self` first for methods.
WRAPS = (
    ("wire", "encode_frame", None),
    ("wire", "decode_frame", None),
    ("wire", "encode_fields", None),
    ("wire", "decode_fields", None),
    ("wire", "negotiate", None),
    ("secchan", "connect", None),
    ("secchan", "ChannelKeys.seal", lambda args: len(args[1])),
    ("secchan", "ChannelKeys.open", None),
    ("secchan", "Channel.send", None),
    ("secchan", "Channel.recv", None),
    ("perms", "check", None),
    ("ftsm", "md5_region", None),
    ("ftsm", "save_state", None),
    ("ftsm", "RegionReceiver.write_chunk", None),
    ("ftsm", "RegionReceiver.finish", None),
    ("ftsm", "TransferSession.wait_quiesce", None),
    ("ftsm", "TransferClient.push", None),
    ("ftsm", "TransferClient.pull", None),
    ("ftsm", "TransferClient._push_once", None),
    ("ftsm", "TransferClient._pull_once", None),
    ("ftsm", "TransferClient.push_on", None),
    ("ftsm", "TransferClient.pull_on", None),
    ("ftsm", "TransferClient._run_senders", None),
    ("ftsm", "TransferClient._run_receivers", None),
    ("dfsm", "LockTable.acquire", None),
    ("dfsm", "FsClient.read", None),
    ("dfsm", "FsClient.write", None),
    ("dfsm", "FsClient.stat", None),
    ("dfsm", "FsClient.lock", None),
    ("taskexec", "TaskClient.submit", None),
    ("taskexec", "TaskClient.collect", None),
    ("taskexec", "run_builtin_task", None),
    ("cryptengine", "encrypt_block_stream", None),
    ("cryptengine", "stream_decrypt", None),
    ("cryptengine", "distribute", None),
    ("cryptengine", "reassemble", None),
    ("cryptengine", "_run_queue", lambda args: len(args[1])),
)

# modules whose threads carry their creator's span into the new thread
THREAD_MODULES = ("ftsm", "cryptengine")

ID, PARENT, OP, NAME, START, END, NBYTES, FAILED = range(8)


def span_name(module: str, attribute: str) -> str:
    return f"{module}.{attribute}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int, int] | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def adopt(self, frame: tuple[int, int] | None) -> None:
        """Make `frame` (span id, op id) the parent of this thread's spans."""
        self._local.stack = [frame] if frame else []

    def wrap(self, name: str, fn, nbytes=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent, op = stack[-1] if stack else (0, 0)
            sid = next(ids)
            stack.append((sid, op or sid))
            failed = False
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, op or sid, name, start, end,
                              nbytes(args) if nbytes else 0, failed))
        traced.__wrapped_by_tracer__ = fn
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            json.dump(self.spans, handle)


def load_spans(path) -> list[tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def _traced_thread_class(tracer: Tracer):
    class TracedThread(threading.Thread):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._creator_span = tracer.current()

        def run(self):
            tracer.adopt(self._creator_span)
            super().run()
    return TracedThread


def install(tracer: Tracer) -> None:
    """Wrap every target in WRAPS."""
    modules = {name: importlib.import_module(f"gridfs.{name}")
               for name in ("wire", "secchan", "perms", "node", "ftsm", "dfsm",
                            "taskexec", "cryptengine")}
    replaced: dict[int, object] = {}
    for module_name, attribute, nbytes in WRAPS:
        module = modules[module_name]
        owner_name, _, member = attribute.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = inspect.getattr_static(owner, member)   # AttributeError
        if hasattr(original, "__wrapped_by_tracer__"):
            raise RuntimeError(f"{module_name}.{attribute} is wrapped twice")
        wrapped = tracer.wrap(span_name(module_name, attribute), original,
                              nbytes)
        setattr(owner, member, wrapped)
        replaced[id(original)] = wrapped

    # names imported with `from .x import f`, and defaults bound to them
    for module in modules.values():
        for key, value in list(vars(module).items()):
            if id(value) in replaced:
                setattr(module, key, replaced[id(value)])
            if inspect.isclass(value) and value.__module__ == module.__name__:
                for member in vars(value).values():
                    _rebind_defaults(member, replaced)
            _rebind_defaults(value, replaced)

    thread_class = _traced_thread_class(tracer)
    for module_name in THREAD_MODULES:
        shim = types.SimpleNamespace(**{
            key: getattr(threading, key) for key in dir(threading)
            if not key.startswith("__")})
        shim.Thread = thread_class
        modules[module_name].threading = shim


def _rebind_defaults(fn, replaced: dict[int, object]) -> None:
    if not isinstance(fn, types.FunctionType) or not fn.__defaults__:
        return
    if any(id(d) in replaced for d in fn.__defaults__):
        fn.__defaults__ = tuple(replaced.get(id(d), d)
                                for d in fn.__defaults__)


def all_span_names() -> set[str]:
    return {span_name(module, attribute) for module, attribute, _ in WRAPS}


def missing_spans(spans: list[tuple], expected: set[str]) -> set[str]:
    return expected - {span[NAME] for span in spans}
