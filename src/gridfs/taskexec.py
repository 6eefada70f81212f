"""Remote task execution: staged dependencies, isolated runs, ordered results.

A client submits an ordered set of tasks over one authenticated session.
Dependencies are staged into a per-set work directory using the transfer
engine (same OFFER/chunk/DONE choreography, riding the task channel), each
verified by digest before anything runs. Tasks are either built-ins from a
fixed registry or external processes launched with the work directory as
their context. Results come back as an array with one slot per task, in
submission order; produced output files can then be pulled back over the
same session.

A client holds its authenticated TASK session from set to set (see
`TaskClient`), so a run of sets to one node authenticates once, and a
set takes three client waits: SUBMIT's decision, the staging and RUN
sent back to back, and the results and FINISH sent back to back. Each
transfer's first stream rides the task session, so a single-stream set
stages and collects over that one connection. Any further stream is a
data session of its own, authenticated on its own: an FTSM session in
the transfer's direction (FTSM_PUSH to stage, FTSM_PULL to collect) that
joins the transfer with XFER_JOIN, so it needs no TASK mode. A set runs
only once every dependency it declares has landed and been verified.

The pi built-in extracts hexadecimal digits of pi with a BBP-family series
using pure integer arithmetic; any digit range is computable without its
predecessors, which is what makes the SPMD fan-out demo honest: workers
compute disjoint ranges and the distributor just concatenates.
"""

from __future__ import annotations

import logging
import os
import shutil
import stat
import subprocess
import threading
import time
from collections import deque
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path
from typing import TypeVar

from . import wire
from .errors import (
    BadRequest,
    ConnectionLost,
    GridfsError,
    IntegrityFailure,
    LaunchFailed,
    NoSuchFile,
    PermissionDenied,
    ProtocolError,
    SetExpired,
    StagingFailed,
    WorkerFailed,
)
from .ftsm import (
    X_CHUNK_SIZE,
    X_PATH,
    X_REGION_LENGTH,
    X_TRUNCATE,
    FtsmService,
    StaleSession,
    TransferClient,
    drop_pushed,
)
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import FrameType, Mode, SecurityMode

log = logging.getLogger("gridfs.taskexec")

T = TypeVar("T")

KIND_BUILTIN = 0
KIND_PROCESS = 1

CAP_NETWORK = 0x01

MAX_TASKS_PER_SET = 1000
MAX_CAPTURE = 65536          # stdout/stderr bytes kept per process task

# TaskSpec field tags
K_KIND = 1
K_NAME = 2
K_PARAMS = 3
K_COMMAND = 4
K_ARGS = 5
K_CAPS = 6
K_DEPS = 7
K_OUTPUTS = 8
K_TIMEOUT = 9

# TASK_SUBMIT fields
SUB_SET = 1
SUB_COUNT = 2
SUB_TASKS = 3

# TASK_STATUS fields (both directions)
ST_SET = 1
ST_PHASE = 2
ST_DONE = 3
ST_TOTAL = 4
ST_ACTION = 5

ACT_QUERY = 0
ACT_ATTACH = 1
ACT_RUN = 2
ACT_FINISH = 3
ACT_ABORT = 4

# TASK_RESULT fields
RES_SET = 1
RES_RESULTS = 2

# TaskResult record tags
R_INDEX = 1
R_STATUS = 2
R_EXIT = 3
R_RESULT = 4
R_STDOUT = 5
R_STDERR = 6
R_OUTPUTS = 7
R_MESSAGE = 8

PH_STAGING = 0
PH_RUNNING = 1
PH_DONE = 2


class TaskStatus(IntEnum):
    OK = 0
    FAILED = 1
    DENIED = 2
    TIMEOUT = 3


# -- SPMD helpers -----------------------------------------------------------

def split_spmd(total: int, workers: int) -> list[tuple[int, int]]:
    """Partition [1, total] into per-worker (start, count) ranges of
    ceiling size; fewer ranges than workers when total is small."""
    if workers < 1:
        raise BadRequest("worker count must be at least 1")
    if total < 0:
        raise BadRequest("total must not be negative")
    if total == 0:
        return []
    per = -(-total // workers)
    ranges = []
    start = 1
    while start <= total:
        count = min(per, total - start + 1)
        ranges.append((start, count))
        start += count
    return ranges


_HEX = "0123456789ABCDEF"


def _bbp_series(j: int, skip: int, bits: int) -> int:
    """Fractional part of 16^skip * sum_k 16^-k/(8k+j), scaled to 2^bits.

    Integer arithmetic throughout: the modular power keeps the left sum
    exact, and the tail converges geometrically so it stops on its own.
    """
    scale = 1 << bits
    total = 0
    for k in range(skip + 1):
        m = 8 * k + j
        total = (total + pow(16, skip - k, m) * scale // m) % scale
    k = skip + 1
    while True:
        term = scale // ((1 << (4 * (k - skip))) * (8 * k + j))
        if term == 0:
            return total
        total = (total + term) % scale
        k += 1


def pi_hex_digits(start: int, count: int) -> str:
    """Hexadecimal digits of pi's fractional part at 1-based positions
    [start, start+count)."""
    if start < 1:
        raise BadRequest("positions are 1-based")
    if count < 0:
        raise BadRequest("count must not be negative")
    if count == 0:
        return ""
    skip = start - 1
    bits = 4 * count + 64       # guard bits against truncation carries
    scale = 1 << bits
    acc = (4 * _bbp_series(1, skip, bits)
           - 2 * _bbp_series(4, skip, bits)
           - _bbp_series(5, skip, bits)
           - _bbp_series(6, skip, bits)) % scale
    digits = []
    for _ in range(count):
        acc *= 16
        digits.append(_HEX[acc >> bits])
        acc &= scale - 1
    return "".join(digits)


# -- built-in registry ------------------------------------------------------

def _builtin_pi(params: dict[int, bytes]) -> dict[int, bytes]:
    start = wire.read_uint(params, 1, 1)
    count = wire.read_uint(params, 2, 0)
    return {1: pi_hex_digits(start, count).encode("ascii")}


def _builtin_echo(params: dict[int, bytes]) -> dict[int, bytes]:
    return dict(params)


BUILTINS = {
    "pi_hex_digits": _builtin_pi,
    "echo": _builtin_echo,
}


# -- task specs and results -------------------------------------------------

@dataclass
class TaskSpec:
    kind: int = KIND_BUILTIN
    name: str = ""                                   # builtin registry key
    params: dict = field(default_factory=dict)       # builtin parameters
    command: str = ""                                # process executable
    args: tuple = ()
    network_access: bool = False
    dependencies: tuple = ()                         # (remote name, source)
    outputs: tuple = ()
    timeout: float = 0.0


def builtin_task(name: str, params: dict[int, bytes] | None = None,
                 dependencies=(), outputs=()) -> TaskSpec:
    return TaskSpec(kind=KIND_BUILTIN, name=name, params=dict(params or {}),
                    dependencies=tuple(dependencies), outputs=tuple(outputs))


def process_task(command: str, args=(), dependencies=(), outputs=(),
                 timeout: float = 0.0, network_access: bool = False
                 ) -> TaskSpec:
    return TaskSpec(kind=KIND_PROCESS, command=command, args=tuple(args),
                    dependencies=tuple(dependencies), outputs=tuple(outputs),
                    timeout=timeout, network_access=network_access)


def encode_spec(spec: TaskSpec) -> bytes:
    caps = CAP_NETWORK if spec.network_access else 0
    return wire.encode_fields({
        K_KIND: wire.u8(spec.kind),
        K_NAME: spec.name.encode("utf-8"),
        K_PARAMS: wire.encode_fields(spec.params),
        K_COMMAND: spec.command.encode("utf-8"),
        K_ARGS: wire.pack_strings(list(spec.args)),
        K_CAPS: wire.u8(caps),
        K_DEPS: wire.pack_strings([name for name, _ in spec.dependencies]),
        K_OUTPUTS: wire.pack_strings(list(spec.outputs)),
        K_TIMEOUT: wire.f64(spec.timeout),
    })


def decode_spec(raw: bytes) -> TaskSpec:
    fields = wire.decode_fields(raw)
    kind = wire.read_uint(fields, K_KIND, KIND_BUILTIN)
    if kind not in (KIND_BUILTIN, KIND_PROCESS):
        raise BadRequest(f"unknown task kind {kind}")
    names = wire.unpack_strings(fields.get(K_DEPS, b""))
    return TaskSpec(
        kind=kind,
        name=fields.get(K_NAME, b"").decode("utf-8"),
        params=wire.decode_fields(fields.get(K_PARAMS, b"")),
        command=fields.get(K_COMMAND, b"").decode("utf-8"),
        args=tuple(wire.unpack_strings(fields.get(K_ARGS, b""))),
        network_access=bool(wire.read_uint(fields, K_CAPS, 0) & CAP_NETWORK),
        dependencies=tuple((name, "") for name in names),
        outputs=tuple(wire.unpack_strings(fields.get(K_OUTPUTS, b""))),
        timeout=wire.read_f64(fields, K_TIMEOUT, 0.0),
    )


@dataclass
class TaskResult:
    index: int
    status: TaskStatus
    exit_code: int | None = None
    result: dict = field(default_factory=dict)
    stdout: bytes = b""
    stderr: bytes = b""
    outputs: tuple = ()          # names actually produced (OK only)
    message: str = ""


def encode_result(result: TaskResult) -> bytes:
    fields = {
        R_INDEX: wire.u16(result.index),
        R_STATUS: wire.u8(int(result.status)),
        R_RESULT: wire.encode_fields(result.result),
        R_STDOUT: result.stdout,
        R_STDERR: result.stderr,
        R_OUTPUTS: wire.pack_strings(list(result.outputs)),
        R_MESSAGE: result.message.encode("utf-8"),
    }
    if result.exit_code is not None:
        fields[R_EXIT] = result.exit_code.to_bytes(8, "big", signed=True)
    return wire.encode_fields(fields)


def decode_result(raw: bytes) -> TaskResult:
    fields = wire.decode_fields(raw)
    exit_code = None
    if R_EXIT in fields:
        exit_code = int.from_bytes(fields[R_EXIT], "big", signed=True)
    return TaskResult(
        index=wire.read_uint(fields, R_INDEX),
        status=TaskStatus(wire.read_uint(fields, R_STATUS)),
        exit_code=exit_code,
        result=wire.decode_fields(fields.get(R_RESULT, b"")),
        stdout=fields.get(R_STDOUT, b""),
        stderr=fields.get(R_STDERR, b""),
        outputs=tuple(wire.unpack_strings(fields.get(R_OUTPUTS, b""))),
        message=fields.get(R_MESSAGE, b"").decode("utf-8", errors="replace"),
    )


def _safe_name(name: str) -> bool:
    return (0 < len(name) <= 128 and "/" not in name and "\\" not in name
            and "\x00" not in name and name not in (".", ".."))


def _regular_file(path: Path) -> bool:
    """Whether `path` is itself a regular file: a symlink is not an
    output, wherever it points."""
    try:
        return stat.S_ISREG(os.lstat(path).st_mode)
    except OSError:
        return False


# -- process execution ------------------------------------------------------

def run_process_task(spec: TaskSpec, workdir: Path, index: int = 0,
                     account: Account | None = None) -> TaskResult:
    """Run one external process task in `workdir`. The capability gate is
    applied when an account is given; a missing executable raises
    LaunchFailed so set execution can record it as a failure."""
    if spec.network_access and account is not None:
        denial = check(account, GuardedAction(ActionKind.SOCKET))
        if denial is not None:
            return TaskResult(index, TaskStatus.DENIED, message=denial)
    argv = [spec.command, *spec.args]
    try:
        proc = subprocess.run(
            argv, cwd=workdir, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            timeout=spec.timeout if spec.timeout > 0 else None)
    except subprocess.TimeoutExpired as exc:
        return TaskResult(index, TaskStatus.TIMEOUT,
                          stdout=(exc.stdout or b"")[:MAX_CAPTURE],
                          stderr=(exc.stderr or b"")[:MAX_CAPTURE],
                          message=f"killed after {spec.timeout:g}s")
    except (FileNotFoundError, PermissionError, NotADirectoryError) as exc:
        raise LaunchFailed(f"cannot launch {spec.command!r}: {exc}") from None
    status = TaskStatus.OK if proc.returncode == 0 else TaskStatus.FAILED
    produced = ()
    if status == TaskStatus.OK:
        produced = tuple(name for name in spec.outputs
                         if _regular_file(workdir / name))
    return TaskResult(index, status, exit_code=proc.returncode,
                      stdout=proc.stdout[:MAX_CAPTURE],
                      stderr=proc.stderr[:MAX_CAPTURE],
                      outputs=produced)


def run_builtin_task(spec: TaskSpec, index: int = 0) -> TaskResult:
    fn = BUILTINS.get(spec.name)
    if fn is None:
        return TaskResult(index, TaskStatus.FAILED,
                          message=f"unknown builtin {spec.name!r}")
    try:
        return TaskResult(index, TaskStatus.OK, result=fn(spec.params))
    except GridfsError as exc:
        return TaskResult(index, TaskStatus.FAILED, message=str(exc))
    except Exception as exc:
        log.exception("builtin %s blew up", spec.name)
        return TaskResult(index, TaskStatus.FAILED,
                          message=f"internal: {exc}")


# -- server -----------------------------------------------------------------

def _pushed_behind(fields: dict[int, bytes], buffer_size: int) -> bool:
    """Whether an offer a task session refuses has its chunk and
    XFER_DONE behind it, sent without waiting for a reply, as a push of at
    most one chunk does. A task session tells a push from a pull only by
    its set's phase, and a refused offer has no phase that fits; but of
    all offers only a whole-file push, which is what staging sends,
    carries X_TRUNCATE, so no other offer is ever read past."""
    if not wire.read_uint(fields, X_TRUNCATE, 0):
        return False
    chunk_size = wire.read_uint(fields, X_CHUNK_SIZE, buffer_size)
    return 0 < chunk_size and \
        wire.read_uint(fields, X_REGION_LENGTH, 0) <= chunk_size


class TaskSetRecord:
    """A set from its submission until ACT_FINISH: its tasks, its work
    directory, its results so far and its phase. `resolve` is the path
    gate of the offers that stage and collect the set's files."""

    def __init__(self, set_id: bytes, account: Account, workdir: Path,
                 specs: list[TaskSpec]):
        self.set_id = set_id
        self.account = account
        self.workdir = workdir
        self.specs = specs
        self.dep_names = {name for spec in specs
                          for name, _ in spec.dependencies}
        self.landed: set[str] = set()    # dependencies pushed and verified
        self.results: list[TaskResult | None] = [None] * len(specs)
        self.produced: set[str] = set()
        self.phase = PH_STAGING
        self.expiry: float | None = None
        self.cond = threading.Condition()

    def resolve(self, account: Account, relative: str) -> Path:
        """The work directory's file `relative` names: a declared
        dependency while the set stages, a produced output once it is
        done, and nothing while it runs."""
        if not _safe_name(relative):
            raise BadRequest("staging names are flat file names")
        with self.cond:
            phase = self.phase
        if phase == PH_STAGING:
            if relative not in self.dep_names:
                raise PermissionDenied("not a declared dependency")
        elif phase == PH_DONE:
            if relative not in self.produced:
                raise PermissionDenied("not a produced output")
        else:
            raise BadRequest("set is running")
        return self.workdir / relative

    def done_count(self) -> int:
        return sum(1 for result in self.results if result is not None)

    def record(self, result: TaskResult, retention: float) -> bool:
        """Store `result`; returns whether it completed the set, which
        then expires `retention` seconds from now."""
        with self.cond:
            self.results[result.index] = result
            self.produced.update(result.outputs)
            done = all(entry is not None for entry in self.results)
            if done:
                self.phase = PH_DONE
                self.expiry = time.monotonic() + retention
            self.cond.notify_all()
        return done

    def status_payload(self) -> bytes:
        with self.cond:
            return wire.encode_fields({
                ST_SET: self.set_id,
                ST_PHASE: wire.u8(self.phase),
                ST_DONE: wire.u16(self.done_count()),
                ST_TOTAL: wire.u16(len(self.specs)),
            })

    def result_payload(self) -> bytes:
        """The TASK_RESULT payload, once every task is terminal."""
        with self.cond:
            if self.phase == PH_STAGING:
                raise BadRequest("set was never started")
            self.cond.wait_for(lambda: self.phase == PH_DONE)
            results = list(self.results)
        return wire.encode_fields({
            RES_SET: self.set_id,
            RES_RESULTS: wire.pack_blobs(
                [encode_result(result) for result in results]),
        })


@dataclass(slots=True, eq=False)
class FinishedSet:
    """What a node keeps of a set from ACT_FINISH until it expires: whose
    it is, when it expires, and its results as the TASK_RESULT payload
    that answers a collect. Its work directory, outputs and all, is
    gone."""
    set_id: bytes
    account: Account
    expiry: float
    results: bytes

    def status_payload(self) -> bytes:
        total = len(wire.unpack_blobs(
            wire.decode_fields(self.results).get(RES_RESULTS, b"")))
        return wire.encode_fields({
            ST_SET: self.set_id,
            ST_PHASE: wire.u8(PH_DONE),
            ST_DONE: wire.u16(total),
            ST_TOTAL: wire.u16(total),
        })

    def result_payload(self) -> bytes:
        return self.results


class TaskService:
    """Server side of TASK mode; one instance per node, shared by every
    task session.

    Staging and collection transfers are offers to the node's one
    FtsmService, `ftsm`, each resolved by its set's `TaskSetRecord.resolve`
    rather than by the sandbox gate; every data session that joins one is
    an FTSM session, which that service admits like any other.

    A set is kept for `retention` seconds after its last task ends, to be
    collected or reattached. Once ACT_FINISH has collected it, only a
    `FinishedSet` stays. Sets expire in the order they completed, so the
    sweep pops them from the front of a queue and never scans the rest."""

    def __init__(self, ftsm: FtsmService, workers: int = 4,
                 retention: float = 600.0):
        self.pool = ThreadPoolExecutor(max_workers=max(1, workers),
                                       thread_name_prefix="task")
        self.retention = retention
        self.ftsm = ftsm
        self._lock = threading.Lock()
        self._sets: dict[bytes, TaskSetRecord | FinishedSet] = {}
        # (expiry, set id) of each completed set, in the order they completed
        self._expiring: deque[tuple[float, bytes]] = deque()

    def serve(self, channel: Channel, account: Account) -> None:
        """Serve one task session. A set the session leaves still in
        staging can never run, so it is dropped when the session ends."""
        current: TaskSetRecord | None = None

        def handle(frame) -> None:
            nonlocal current
            if frame.frame_type == FrameType.TASK_SUBMIT:
                current = self._submit(channel, account, frame.payload)
            elif frame.frame_type == FrameType.XFER_OFFER:
                self._offer(channel, account, current, frame.payload)
            elif frame.frame_type == FrameType.TASK_STATUS:
                current = self._status(channel, account, current,
                                       frame.payload)
            else:
                self._collect(channel, current, frame.payload)

        try:
            channel.serve(handle, FrameType.TASK_SUBMIT, FrameType.XFER_OFFER,
                          FrameType.TASK_STATUS, FrameType.TASK_RESULT)
        finally:
            if isinstance(current, TaskSetRecord):
                with current.cond:
                    staging = current.phase == PH_STAGING
                if staging:
                    self._drop(current)

    def _drop(self, record: TaskSetRecord | FinishedSet) -> None:
        """Forget `record` and delete its work directory, if it still has
        one."""
        with self._lock:
            self._sets.pop(record.set_id, None)
        if isinstance(record, TaskSetRecord):
            shutil.rmtree(record.workdir, ignore_errors=True)

    def _sweep(self) -> None:
        """Forget the sets whose retention has run out, oldest first; an
        entry whose set was dropped, or whose id a newer set took, is
        skipped."""
        now = time.monotonic()
        expired = []
        with self._lock:
            while self._expiring and self._expiring[0][0] < now:
                expiry, set_id = self._expiring.popleft()
                record = self._sets.get(set_id)
                if record is not None and record.expiry == expiry:
                    del self._sets[set_id]
                    expired.append(record)
        for record in expired:
            if isinstance(record, TaskSetRecord):
                shutil.rmtree(record.workdir, ignore_errors=True)

    def _submit(self, channel: Channel, account: Account,
                payload: bytes) -> TaskSetRecord:
        self._sweep()
        denial = check(account, GuardedAction(ActionKind.EXECUTION))
        if denial is not None:
            raise PermissionDenied(denial)    # before any staging
        fields = wire.decode_fields(payload)
        set_id = fields.get(SUB_SET, b"")
        if len(set_id) != 16:
            raise BadRequest("set id must be 16 bytes")
        blobs = wire.unpack_blobs(fields.get(SUB_TASKS, b""))
        count = wire.read_uint(fields, SUB_COUNT, len(blobs))
        if count != len(blobs) or not 0 < count <= MAX_TASKS_PER_SET:
            raise BadRequest("task count disagrees with the submitted list")
        specs = [decode_spec(blob) for blob in blobs]
        for spec in specs:
            if spec.kind == KIND_BUILTIN and spec.name not in BUILTINS:
                raise BadRequest(f"unknown builtin {spec.name!r}")
            for name, _ in spec.dependencies:
                if not _safe_name(name):
                    raise BadRequest("dependency names are flat file names")
            for name in spec.outputs:
                if not _safe_name(name):
                    raise BadRequest("output names are flat file names")

        workdir = account.sandbox_root / ".tasksets" / set_id.hex()
        # before the set registers: a set whose directory cannot be made
        # leaves nothing behind
        workdir.mkdir(parents=True, exist_ok=True)
        record = TaskSetRecord(set_id, account, workdir, specs)
        with self._lock:
            if set_id in self._sets:
                raise BadRequest("set id already in use")
            self._sets[set_id] = record
        channel.send(FrameType.TASK_STATUS, record.status_payload())
        return record

    def _offer(self, channel: Channel, account: Account,
               record: TaskSetRecord | FinishedSet | None,
               payload: bytes) -> None:
        """Run an offer as the set's phase says: a staging push, or a pull
        of an output once the set is done. A push that lands verified
        counts its dependency as staged. An offer with no such phase is
        refused, and a one-chunk push refused so is first read through
        its XFER_DONE (`_pushed_behind`), so the session stays in step."""
        refusal = None
        if record is None:
            refusal = BadRequest("no task set on this session")
        elif isinstance(record, FinishedSet):
            refusal = NoSuchFile("the set is finished: its outputs are gone")
        else:
            with record.cond:
                phase = record.phase
            if phase == PH_RUNNING:
                refusal = BadRequest("no transfers while the set is running")
        if refusal is not None:
            if _pushed_behind(wire.decode_fields(payload),
                              channel.params.buffer_size):
                drop_pushed(channel)
            raise refusal
        mode = Mode.FTSM_PUSH if phase == PH_STAGING else Mode.FTSM_PULL
        self.ftsm.offer(channel, account, mode, payload, record.resolve)
        if mode == Mode.FTSM_PUSH:    # a push that failed has raised
            name = wire.decode_fields(payload).get(X_PATH, b"")
            with record.cond:
                record.landed.add(name.decode("utf-8"))

    def _status(self, channel: Channel, account: Account,
                record: TaskSetRecord | FinishedSet | None,
                payload: bytes) -> TaskSetRecord | FinishedSet | None:
        fields = wire.decode_fields(payload)
        action = wire.read_uint(fields, ST_ACTION, ACT_QUERY)
        if action == ACT_ATTACH:
            record = self._attach(account, fields.get(ST_SET, b""))
        if record is None:
            raise BadRequest("no task set on this session")

        if action == ACT_RUN:
            self._start(record)
        elif action == ACT_FINISH and isinstance(record, TaskSetRecord):
            record = self._finish(record)
        elif action == ACT_ABORT:
            self._drop(record)
            if isinstance(record, TaskSetRecord):
                with record.cond:
                    record.phase = PH_DONE
            channel.send(FrameType.TASK_STATUS, record.status_payload())
            return None
        channel.send(FrameType.TASK_STATUS, record.status_payload())
        return record

    def _finish(self, record: TaskSetRecord) -> FinishedSet:
        """Delete the work directory of a collected set and keep only its
        `FinishedSet` in its place."""
        with record.cond:
            if record.phase != PH_DONE:
                raise BadRequest("set is not finished")
        shutil.rmtree(record.workdir, ignore_errors=True)
        finished = FinishedSet(record.set_id, record.account, record.expiry,
                               record.result_payload())
        with self._lock:
            if self._sets.get(record.set_id) is record:
                self._sets[record.set_id] = finished
        return finished

    def _attach(self, account: Account,
                set_id: bytes) -> TaskSetRecord | FinishedSet:
        self._sweep()
        with self._lock:
            record = self._sets.get(set_id)
        if record is None:
            raise SetExpired("unknown or expired set")
        if record.account.username != account.username:
            raise PermissionDenied("not your task set")
        return record

    def _start(self, record: TaskSetRecord | FinishedSet) -> None:
        if isinstance(record, FinishedSet):
            raise BadRequest("set already started")
        with record.cond:
            if record.phase != PH_STAGING:
                raise BadRequest("set already started")
            missing = record.dep_names - record.landed
            if missing:
                self._drop(record)
                raise StagingFailed(
                    f"{len(missing)} dependencies never arrived")
            record.phase = PH_RUNNING
        for index, spec in enumerate(record.specs):
            self.pool.submit(self._execute, record, index, spec)

    def _execute(self, record: TaskSetRecord, index: int,
                 spec: TaskSpec) -> None:
        try:
            if spec.kind == KIND_BUILTIN:
                result = run_builtin_task(spec, index)
            else:
                try:
                    result = run_process_task(spec, record.workdir, index,
                                              record.account)
                except LaunchFailed as exc:
                    result = TaskResult(index, TaskStatus.FAILED,
                                        message=str(exc))
        except Exception as exc:    # a task must never take the pool down
            log.exception("task %d crashed the runner", index)
            result = TaskResult(index, TaskStatus.FAILED,
                                message=f"internal: {exc}")
        if record.record(result, self.retention):
            with self._lock:
                self._expiring.append((record.expiry, record.set_id))

    def _collect(self, channel: Channel,
                 record: TaskSetRecord | FinishedSet | None,
                 payload: bytes) -> None:
        fields = wire.decode_fields(payload)
        set_id = fields.get(RES_SET, b"")
        if record is None or (set_id and set_id != record.set_id):
            raise BadRequest("no task set on this session")
        channel.send(FrameType.TASK_RESULT, record.result_payload())


# -- client -----------------------------------------------------------------

# what puts a session out of step: after one of these, no later reply can
# be matched to its request
_OUT_OF_STEP = (ConnectionLost, ProtocolError, IntegrityFailure)


def _action(set_id: bytes, action: int) -> bytes:
    """The payload of a TASK_STATUS that asks `action` of `set_id`."""
    return wire.encode_fields({ST_SET: set_id, ST_ACTION: wire.u8(action)})


def _set_action(channel: Channel, set_id: bytes,
                action: int) -> dict[int, bytes]:
    """Send one TASK_STATUS action for `set_id`; returns the reply's
    fields."""
    channel.send(FrameType.TASK_STATUS, _action(set_id, action))
    return wire.decode_fields(channel.expect(FrameType.TASK_STATUS).payload)


def _refusal(read: Callable[[], object]) -> GridfsError | None:
    """Read one request's replies with `read`; returns the error that an
    ERROR frame among them raised, after which the session is still in
    step, or None. A session lost or out of step raises."""
    try:
        read()
    except _OUT_OF_STEP:
        raise
    except GridfsError as exc:
        return exc
    return None


@dataclass
class TaskHandle:
    channel: Channel
    set_id: bytes
    total: int
    # collected, every reply read: the session is in step for a next set
    finished: bool = field(default=False, init=False)


class TaskClient:
    """Submits task sets and collects their results.

    One authenticated TASK session carries a set's whole lifecycle:
    submit, stage every dependency, run, collect, pull outputs back.
    Between sets the client holds that session through its mover's
    holder (`TransferClient.take` and `give`), so a run of sets to one
    node dials and authenticates once. A set costs three client waits:

    1. `submit` sends TASK_SUBMIT and waits for its TASK_STATUS, so the
       node decides on the set before any dependency byte leaves.
    2. `submit` sends each dependency's push, then ACT_RUN, and reads
       their replies in order after. A one-chunk push goes out whole; a
       larger one reads the replies still owed, then waits for its own
       XFER_ACCEPT before its chunks.
    3. `collect` with no `output_dir` sends TASK_RESULT and ACT_FINISH
       back to back and reads both replies; with one, it pulls the
       outputs before ACT_FINISH.

    The node serves one request at a time, in order, and answers each on
    its own, so a refusal is one ERROR in its place among the replies. A
    refused submit, or a staging with an ERROR among its replies (RUN's
    own check then drops the set), leaves the session in step, and it
    goes back to the holder. A session lost or out of step is closed,
    which drops a set still staging. A held session found dead before
    SUBMIT's reply is dialled again at once, under a fresh set id.
    `close(handle)`, once per handle, gives the session back if `collect`
    read every reply, and closes it otherwise; `mover.close()` closes the
    held one.
    """

    def __init__(self, address: tuple[str, int], username: str, psk: bytes,
                 security: SecurityMode = SecurityMode.NONSECURE,
                 streams: int = 1, buffer_size: int = wire.DEFAULT_MAX_PAYLOAD,
                 chunk_size: int | None = None):
        self.mover = TransferClient(address, username, psk, security=security,
                                    streams=streams, buffer_size=buffer_size,
                                    chunk_size=chunk_size)

    def _take(self, request: Callable[[Channel], T]) -> tuple[Channel, T]:
        """The TASK session, as `TransferClient.take` hands it over after
        `request`; a held one found stale is replaced by a fresh dial at
        once."""
        while True:
            try:
                return self.mover.take(Mode.TASK, request)
            except StaleSession:
                continue

    def submit(self, tasks: list[TaskSpec]) -> TaskHandle:
        if not tasks:
            raise BadRequest("empty task set")
        dependencies: dict[str, str] = {}
        for spec in tasks:
            for name, source in spec.dependencies:
                if dependencies.get(name, source) != source:
                    raise BadRequest(
                        f"dependency {name!r} declared with two sources")
                dependencies[name] = source
        for name, source in dependencies.items():
            if not Path(source).is_file():
                raise StagingFailed(f"dependency source missing: {source}")
        blobs = wire.pack_blobs([encode_spec(spec) for spec in tasks])

        def request(channel: Channel) -> tuple[bytes, GridfsError | None]:
            set_id = os.urandom(16)
            channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
                SUB_SET: set_id,
                SUB_COUNT: wire.u16(len(tasks)),
                SUB_TASKS: blobs,
            }))
            return set_id, _refusal(
                lambda: channel.expect(FrameType.TASK_STATUS))

        channel, (set_id, refusal) = self._take(request)
        if refusal is not None:
            self.mover.give(Mode.TASK, channel)
            raise refusal
        self._stage(channel, set_id, dependencies)
        return TaskHandle(channel, set_id, len(tasks))

    def _stage(self, channel: Channel, set_id: bytes,
               dependencies: dict[str, str]) -> None:
        """Push every dependency and send ACT_RUN back to back, then read
        the replies still owed, in order. A push that could not be sent,
        or an ERROR among the replies, raises StagingFailed naming the
        first, once every reply is read: RUN finds that dependency never
        landed and drops the set, and the session goes back to the
        holder. A session lost or out of step is closed first."""
        owed: deque[Callable[[], object]] = deque()
        failures: list[GridfsError | OSError] = []

        def settle() -> None:
            while owed:
                refusal = _refusal(owed.popleft())
                if refusal is not None:
                    failures.append(refusal)

        try:
            for name, source in dependencies.items():
                try:
                    owed.append(self.mover.send_push(
                        channel, Path(source), name, None, settle))
                except _OUT_OF_STEP:
                    raise
                except (GridfsError, OSError) as exc:
                    # it never landed, so RUN drops the set; a push cut
                    # off after its offer makes the node end the session
                    # at the next frame, and a read below raises
                    failures.append(exc)
            channel.send(FrameType.TASK_STATUS, _action(set_id, ACT_RUN))
            owed.append(lambda: channel.expect(FrameType.TASK_STATUS))
            settle()
        except BaseException as exc:
            channel.close()
            if not isinstance(exc, (GridfsError, OSError)):
                raise
            failures.append(exc)
        if failures:
            if not channel.closed:
                self.mover.give(Mode.TASK, channel)
            raise StagingFailed(f"staging failed: {failures[0]}") \
                from failures[0]

    def reattach(self, set_id: bytes, total: int = 0) -> TaskHandle:
        """Reopen a handle after a lost connection, within the retention
        window."""
        channel, status = self._take(
            lambda channel: _set_action(channel, set_id, ACT_ATTACH))
        return TaskHandle(channel, set_id,
                          wire.read_uint(status, ST_TOTAL, total))

    def status(self, handle: TaskHandle) -> tuple[int, int, int]:
        """(phase, done, total) for a submitted set."""
        fields = _set_action(handle.channel, handle.set_id, ACT_QUERY)
        return (wire.read_uint(fields, ST_PHASE),
                wire.read_uint(fields, ST_DONE),
                wire.read_uint(fields, ST_TOTAL))

    def collect(self, handle: TaskHandle,
                output_dir: Path | None = None) -> list[TaskResult]:
        """Block until every task is terminal; fetch produced outputs into
        `output_dir` when given; release the server work directory. With
        no `output_dir`, ACT_FINISH goes out right behind TASK_RESULT."""
        channel = handle.channel
        channel.send(FrameType.TASK_RESULT,
                     wire.encode_fields({RES_SET: handle.set_id}))
        if output_dir is None:
            channel.send(FrameType.TASK_STATUS,
                         _action(handle.set_id, ACT_FINISH))
        reply = wire.decode_fields(
            channel.expect(FrameType.TASK_RESULT).payload)
        results = [decode_result(blob)
                   for blob in wire.unpack_blobs(reply.get(RES_RESULTS, b""))]
        if output_dir is None:
            channel.expect(FrameType.TASK_STATUS)
        else:
            output_dir = Path(output_dir)
            output_dir.mkdir(parents=True, exist_ok=True)
            fetched = set()
            for result in results:
                for name in result.outputs:
                    if name not in fetched:
                        self.mover.pull_on(channel, name, output_dir / name)
                        fetched.add(name)
            _set_action(channel, handle.set_id, ACT_FINISH)
        handle.finished = True
        return results

    def close(self, handle: TaskHandle) -> None:
        """Give the handle's session back to the holder if `collect` read
        every reply, or close it: a set not collected may still owe a
        reply that the next set would read as its own."""
        if handle.finished:
            handle.finished = False
            self.mover.give(Mode.TASK, handle.channel)
        else:
            handle.channel.close()


def pi_across(addresses, start: int, count: int, username: str, psk: bytes,
              *, security: SecurityMode = SecurityMode.NONSECURE,
              buffer_size: int = wire.DEFAULT_MAX_PAYLOAD) -> str:
    """Fan one digit range out over several nodes, SPMD style, and stitch
    the pieces back together in position order. Every subtask is submitted
    before the first collect so the nodes compute in parallel."""
    addresses = list(addresses)
    if not addresses:
        raise BadRequest("no nodes given")
    ranges = split_spmd(count, len(addresses))
    clients: list[TaskClient] = []
    handles: list[TaskHandle] = []
    try:
        for index, (sub_start, sub_count) in enumerate(ranges):
            client = TaskClient(addresses[index], username, psk,
                                security=security, buffer_size=buffer_size)
            task = builtin_task("pi_hex_digits",
                                {1: wire.u64(start - 1 + sub_start),
                                 2: wire.u32(sub_count)})
            clients.append(client)
            handles.append(client.submit([task]))
        pieces = []
        for client, handle in zip(clients, handles):
            result = client.collect(handle)[0]
            if result.status != TaskStatus.OK:
                raise WorkerFailed("pi subtask failed: "
                                   f"{result.message or result.status.name}")
            pieces.append(result.result.get(1, b"").decode("ascii"))
        return "".join(pieces)
    finally:
        for client, handle in zip(clients, handles):
            try:
                client.close(handle)
            except (GridfsError, OSError):
                pass
        for client in clients:
            client.mover.close()
