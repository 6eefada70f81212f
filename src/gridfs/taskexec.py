"""Remote task execution: staged dependencies, isolated runs, ordered results.

A client submits an ordered set of tasks over one authenticated session.
Dependencies are staged into a per-set work directory using the transfer
engine (same OFFER/chunk/DONE choreography, riding the task channel), each
verified by digest before anything runs. Tasks are either built-ins from a
fixed registry or external processes launched with the work directory as
their context. Results come back as an array with one slot per task, in
submission order; produced output files can then be pulled back over the
same session.

Authentication happens exactly once per set, on the control session; the
data connections used for staging ride the transfer rendezvous.

The pi built-in extracts hexadecimal digits of pi with a BBP-family series
using pure integer arithmetic; any digit range is computable without its
predecessors, which is what makes the SPMD fan-out demo honest: workers
compute disjoint ranges and the distributor just concatenates.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import IntEnum
from pathlib import Path

from . import secchan, wire
from .errors import (
    BadRequest,
    ConnectionLost,
    GridfsError,
    LaunchFailed,
    PermissionDenied,
    ProtocolError,
    SetExpired,
    StagingFailed,
    WorkerFailed,
)
from .ftsm import FtsmService, TransferClient, TransferRegistry
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import FrameType, Mode, SecurityMode, SessionParams

log = logging.getLogger("gridfs.taskexec")

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


# -- process execution ------------------------------------------------------

def run_process_task(spec: TaskSpec, workdir: Path, index: int = 0,
                     account: Account | None = None,
                     gate=check) -> TaskResult:
    """Run one external process task in `workdir`. The capability gate is
    applied when an account is given; a missing executable raises
    LaunchFailed so set execution can record it as a failure."""
    if spec.network_access and account is not None:
        denial = gate(account, GuardedAction(ActionKind.SOCKET))
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
                         if (workdir / name).is_file())
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

class TaskSetRecord:
    def __init__(self, set_id: bytes, account: Account, workdir: Path,
                 specs: list[TaskSpec], registry: TransferRegistry,
                 drain_timeout: float):
        self.set_id = set_id
        self.username = account.username
        self.account = account
        self.workdir = workdir
        self.specs = specs
        self.dep_names = {name for spec in specs
                          for name, _ in spec.dependencies}
        self.results: list[TaskResult | None] = [None] * len(specs)
        self.produced: set[str] = set()
        self.phase = PH_STAGING
        self.expiry: float | None = None
        self.cond = threading.Condition()
        self.ftsm = FtsmService(registry, drain_timeout=drain_timeout,
                                resolver=self._resolve)

    def _resolve(self, account: Account, relative: str) -> Path:
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

    def record(self, result: TaskResult, retention: float) -> None:
        with self.cond:
            self.results[result.index] = result
            self.produced.update(result.outputs)
            if all(entry is not None for entry in self.results):
                self.phase = PH_DONE
                self.expiry = time.monotonic() + retention
            self.cond.notify_all()

    def status_payload(self) -> bytes:
        with self.cond:
            return wire.encode_fields({
                ST_SET: self.set_id,
                ST_PHASE: wire.u8(self.phase),
                ST_DONE: wire.u16(self.done_count()),
                ST_TOTAL: wire.u16(len(self.specs)),
            })


class TaskService:
    """Server side of TASK mode; one instance per node, shared by every
    task session.

    Staging and collection transfers register in `registry`, which the
    node shares with its own FtsmService: every data connection goes to
    that service, which finds the transfer there."""

    def __init__(self, workers: int = 4, retention: float = 600.0,
                 registry: TransferRegistry | None = None,
                 drain_timeout: float = 10.0):
        self.pool = ThreadPoolExecutor(max_workers=max(1, workers),
                                       thread_name_prefix="task")
        self.retention = retention
        self.registry = registry or TransferRegistry()
        self.drain_timeout = drain_timeout
        self._lock = threading.Lock()
        self._sets: dict[bytes, TaskSetRecord] = {}

    def serve(self, channel: Channel, account: Account) -> None:
        current: TaskSetRecord | None = None
        while True:
            try:
                frame = channel.recv()
            except ConnectionLost:
                return
            try:
                if frame.frame_type == FrameType.TASK_SUBMIT:
                    current = self._submit(channel, account, frame.payload)
                elif frame.frame_type == FrameType.XFER_OFFER:
                    self._offer(channel, account, current, frame.payload)
                elif frame.frame_type == FrameType.TASK_STATUS:
                    current = self._status(channel, account, current,
                                           frame.payload)
                elif frame.frame_type == FrameType.TASK_RESULT:
                    self._collect(channel, current, frame.payload)
                else:
                    raise ProtocolError(
                        f"unexpected frame {frame.frame_type} on a task "
                        "session")
            except ProtocolError:
                raise
            except GridfsError as exc:
                channel.send_error(exc)

    def _sweep(self) -> None:
        now = time.monotonic()
        with self._lock:
            expired = [record for record in self._sets.values()
                       if record.expiry is not None and now > record.expiry]
            for record in expired:
                del self._sets[record.set_id]
        for record in expired:
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
        record = TaskSetRecord(set_id, account, workdir, specs,
                               self.registry, self.drain_timeout)
        with self._lock:
            if set_id in self._sets:
                raise BadRequest("set id already in use")
            self._sets[set_id] = record
        workdir.mkdir(parents=True, exist_ok=True)
        channel.send(FrameType.TASK_STATUS, record.status_payload())
        return record

    def _offer(self, channel: Channel, account: Account,
               record: TaskSetRecord | None, payload: bytes) -> None:
        if record is None:
            raise BadRequest("no task set on this session")
        with record.cond:
            phase = record.phase
        if phase == PH_RUNNING:
            raise BadRequest("no transfers while the set is running")
        mode = Mode.FTSM_PUSH if phase == PH_STAGING else Mode.FTSM_PULL
        record.ftsm.offer(channel, account, mode, payload)

    def _status(self, channel: Channel, account: Account,
                record: TaskSetRecord | None,
                payload: bytes) -> TaskSetRecord | None:
        fields = wire.decode_fields(payload)
        action = wire.read_uint(fields, ST_ACTION, ACT_QUERY)
        if action == ACT_ATTACH:
            record = self._attach(account, fields.get(ST_SET, b""))
        if record is None:
            raise BadRequest("no task set on this session")

        if action == ACT_RUN:
            self._start(record)
        elif action == ACT_FINISH:
            with record.cond:
                if record.phase != PH_DONE:
                    raise BadRequest("set is not finished")
            shutil.rmtree(record.workdir, ignore_errors=True)
        elif action == ACT_ABORT:
            with self._lock:
                self._sets.pop(record.set_id, None)
            shutil.rmtree(record.workdir, ignore_errors=True)
            with record.cond:
                record.phase = PH_DONE
                record.expiry = time.monotonic()    # nothing to retain
            channel.send(FrameType.TASK_STATUS, record.status_payload())
            return None
        channel.send(FrameType.TASK_STATUS, record.status_payload())
        return record

    def _attach(self, account: Account, set_id: bytes) -> TaskSetRecord:
        self._sweep()
        with self._lock:
            record = self._sets.get(set_id)
        if record is None:
            raise SetExpired("unknown or expired set")
        if record.username != account.username:
            raise PermissionDenied("not your task set")
        return record

    def _start(self, record: TaskSetRecord) -> None:
        with record.cond:
            if record.phase != PH_STAGING:
                raise BadRequest("set already started")
            missing = [name for name in record.dep_names
                       if not (record.workdir / name).is_file()]
            if missing:
                with self._lock:
                    self._sets.pop(record.set_id, None)
                shutil.rmtree(record.workdir, ignore_errors=True)
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
        record.record(result, self.retention)

    def _collect(self, channel: Channel, record: TaskSetRecord | None,
                 payload: bytes) -> None:
        fields = wire.decode_fields(payload)
        set_id = fields.get(RES_SET, b"")
        if record is None or (set_id and set_id != record.set_id):
            raise BadRequest("no task set on this session")
        with record.cond:
            if record.phase == PH_STAGING:
                raise BadRequest("set was never started")
            while record.phase != PH_DONE:
                record.cond.wait()
            results = list(record.results)
        channel.send(FrameType.TASK_RESULT, wire.encode_fields({
            RES_SET: record.set_id,
            RES_RESULTS: wire.pack_blobs(
                [encode_result(result) for result in results]),
        }))


# -- client -----------------------------------------------------------------

@dataclass
class TaskHandle:
    channel: Channel
    set_id: bytes
    total: int


class TaskClient:
    """Submits task sets and collects their results.

    One authenticated session carries the whole lifecycle: submit, stage
    every dependency, run, collect, pull outputs back.
    """

    def __init__(self, address: tuple[str, int], username: str, psk: bytes,
                 security: SecurityMode = SecurityMode.NONSECURE,
                 streams: int = 1, buffer_size: int = wire.DEFAULT_MAX_PAYLOAD,
                 chunk_size: int | None = None):
        self.address = address
        self.username = username
        self.psk = psk
        self.security = security
        self.mover = TransferClient(address, username, psk, security=security,
                                    streams=streams, buffer_size=buffer_size,
                                    chunk_size=chunk_size)
        self.buffer_size = buffer_size
        self.streams = streams

    def _connect(self) -> Channel:
        params = SessionParams(Mode.TASK, self.security,
                               buffer_size=self.buffer_size,
                               stream_count=self.streams)
        return secchan.connect(self.address, params, self.username, self.psk)

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

        set_id = os.urandom(16)
        channel = self._connect()
        try:
            channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
                SUB_SET: set_id,
                SUB_COUNT: wire.u16(len(tasks)),
                SUB_TASKS: wire.pack_blobs(
                    [encode_spec(spec) for spec in tasks]),
            }))
            channel.expect(FrameType.TASK_STATUS)
            try:
                for name, source in dependencies.items():
                    self.mover.push_on(channel, Path(source), name)
            except (GridfsError, OSError) as exc:
                try:
                    channel.send(FrameType.TASK_STATUS, wire.encode_fields({
                        ST_SET: set_id, ST_ACTION: wire.u8(ACT_ABORT)}))
                    channel.expect(FrameType.TASK_STATUS)
                except GridfsError:
                    pass
                raise StagingFailed(f"staging failed: {exc}") from exc
            channel.send(FrameType.TASK_STATUS, wire.encode_fields({
                ST_SET: set_id, ST_ACTION: wire.u8(ACT_RUN)}))
            channel.expect(FrameType.TASK_STATUS)
        except BaseException:
            channel.close()
            raise
        return TaskHandle(channel, set_id, len(tasks))

    def reattach(self, set_id: bytes, total: int = 0) -> TaskHandle:
        """Reopen a handle after a lost connection, within the retention
        window."""
        channel = self._connect()
        try:
            channel.send(FrameType.TASK_STATUS, wire.encode_fields({
                ST_SET: set_id, ST_ACTION: wire.u8(ACT_ATTACH)}))
            status = wire.decode_fields(
                channel.expect(FrameType.TASK_STATUS).payload)
        except BaseException:
            channel.close()
            raise
        return TaskHandle(channel, set_id,
                          wire.read_uint(status, ST_TOTAL, total))

    def status(self, handle: TaskHandle) -> tuple[int, int, int]:
        """(phase, done, total) for a submitted set."""
        handle.channel.send(FrameType.TASK_STATUS, wire.encode_fields({
            ST_SET: handle.set_id, ST_ACTION: wire.u8(ACT_QUERY)}))
        fields = wire.decode_fields(
            handle.channel.expect(FrameType.TASK_STATUS).payload)
        return (wire.read_uint(fields, ST_PHASE),
                wire.read_uint(fields, ST_DONE),
                wire.read_uint(fields, ST_TOTAL))

    def collect(self, handle: TaskHandle,
                output_dir: Path | None = None) -> list[TaskResult]:
        """Block until every task is terminal; fetch produced outputs into
        `output_dir` when given; release the server work directory."""
        handle.channel.send(FrameType.TASK_RESULT,
                            wire.encode_fields({RES_SET: handle.set_id}))
        reply = wire.decode_fields(
            handle.channel.expect(FrameType.TASK_RESULT).payload)
        results = [decode_result(blob)
                   for blob in wire.unpack_blobs(reply.get(RES_RESULTS, b""))]
        if output_dir is not None:
            output_dir = Path(output_dir)
            output_dir.mkdir(parents=True, exist_ok=True)
            fetched = set()
            for result in results:
                for name in result.outputs:
                    if name not in fetched:
                        self.mover.pull_on(handle.channel, name,
                                           output_dir / name)
                        fetched.add(name)
        handle.channel.send(FrameType.TASK_STATUS, wire.encode_fields({
            ST_SET: handle.set_id, ST_ACTION: wire.u8(ACT_FINISH)}))
        handle.channel.expect(FrameType.TASK_STATUS)
        return results

    def close(self, handle: TaskHandle) -> None:
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
