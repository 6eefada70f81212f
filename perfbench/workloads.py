"""The three workloads. Each is a closed loop: one client, whose next
operation starts only after the previous one returned.

bulk   1 node, security secure, 2 streams, 256 KiB chunks, a 64 MiB file.
       A round pushes it, pulls it back, abandons a push at half and
       resumes it.
small  1 node, security semi. A shuffled deck of small-file pushes (each
       on its own session, sizes log-spaced from 1 B to 1 MiB), pulls of
       pushed files, 4 KiB DFSM reads and writes, stats and lock+unlock on
       one long-lived session, and pi_hex_digits task round trips with one
       staged 4 KiB dependency. Three zero-byte pushes, spread over the
       run, are a class of their own.
crypt  2 worker nodes, security none; the client is the distributor. A
       round runs distribute and reassemble over a 32 MiB file in 1 MiB
       aes128 blocks.

Every input comes from the seed: payload bytes, sizes, op order, offsets,
the account PSK and the cipher key and IV. The nodes receive only these
generated inputs. Every output is checked: pulled files and the rebuilt
crypt file against the source MD5, task digits against a table computed
locally, DFSM reads against a shadow of what the client last wrote.
"""

from __future__ import annotations

import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

from gridfs import cryptengine, secchan, wire
from gridfs.dfsm import FsClient
from gridfs.errors import GridfsError, StateCorrupt
from gridfs.ftsm import (X_CHUNK_SIZE, X_PATH, X_REGION_LENGTH,
                         X_REGION_OFFSET, X_STREAMS, X_TRANSFER, X_TRUNCATE,
                         ChunkGrid, TransferClient, load_state, pack_chunk,
                         state_path)
from gridfs.taskexec import TaskClient, TaskStatus, builtin_task, pi_hex_digits
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

import spans
from nodes import USERNAME, NodeSet

MiB = 1 << 20
MB = 1e6


class CheckFailed(Exception):
    """An output did not match what the inputs say it must be."""


@dataclass(frozen=True)
class Metric:
    value: float
    unit: str
    samples: int


@dataclass
class OpRecord:
    kind: str
    seconds: float
    nbytes: int
    window: int             # rounds // rounds_per_window when it ran


def md5_file(path: Path) -> bytes:
    digest = hashlib.md5()
    with open(path, "rb") as handle:
        while piece := handle.read(MiB):
            digest.update(piece)
    return digest.digest()


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs since boot, from /proc/stat.
    Steal is time the hypervisor ran other guests while this machine's
    CPUs had work to do; no program inside the machine can cause it."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()[1:9]    # user .. steal
    return int(fields[7]), sum(map(int, fields))


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (99.9, 99.0, 90.0):
        if len(values) * (1 - q / 100) >= 10:
            return f"p{q:g}", percentile(values, q)
    return None


class Inputs:
    """Seeded input generator that digests everything it hands out."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._digest = hashlib.sha256()

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.workload}/{self.seed}/{purpose}")

    def note(self, label: str, data: bytes) -> bytes:
        self._digest.update(label.encode() + len(data).to_bytes(8, "big"))
        self._digest.update(data)
        return data

    def file(self, path: Path, size: int, purpose: str) -> bytes:
        """Write `size` seeded bytes to `path`; returns their MD5."""
        rng = self.rng(purpose)
        md5 = hashlib.md5()
        self._digest.update(purpose.encode() + size.to_bytes(8, "big"))
        with open(path, "wb") as handle:
            left = size
            while left:
                piece = rng.randbytes(min(MiB, left))
                handle.write(piece)
                md5.update(piece)
                self._digest.update(piece)
                left -= len(piece)
        return md5.digest()

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


class Workload:
    """One set-up of a workload: its nodes, its inputs, and its op log.

    `start` spawns the nodes, generates the inputs and runs a warm-up
    round; `measure` runs rounds for the given time; `close` stops the
    nodes. Failures of single operations are counted, not raised.

    The measured rounds fall into windows of `rounds_per_window` rounds.
    The gated metrics are taken per window and reported as the median
    over the windows that lost no CPU time to steal (see `clean`).
    """

    name = ""
    rounds_per_window = 1
    node_names: tuple[str, ...] = ()
    security = SecurityMode.NONSECURE
    # wrapped functions this workload never calls (see spans.WRAPS)
    unused_spans: frozenset[str] = frozenset()

    def __init__(self, seed: int, scratch: Path, src: Path,
                 tracer: spans.Tracer | None):
        self.scratch = scratch
        self.tracer = tracer
        self.inputs = Inputs(self.name, seed)
        self.psk = self.inputs.note("psk", self.inputs.rng("psk").randbytes(32))
        self.nodes = NodeSet(scratch, src, self.psk, tracer is not None)
        self.ops: list[OpRecord] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.window = (0.0, 0.0)
        self.rounds = 0
        # cpu_ticks() at the start of each window, and at the end
        self.ticks: list[tuple[int, int]] = []

    @classmethod
    def expected_spans(cls) -> set[str]:
        return spans.all_span_names() - cls.unused_spans

    def start(self) -> None:
        (self.scratch / "tmp").mkdir(parents=True)
        for name in self.node_names:
            self.nodes.spawn(name)
        self.prepare()
        self.round(warm=True)

    def measure(self, seconds: float) -> None:
        self.ops.clear()
        self.attempted = 0
        self.failures.clear()
        self.ticks.clear()
        start = time.monotonic()
        deadline = start + seconds
        self.rounds = 0
        # start a round only while one of average length still fits
        while not self.rounds or time.monotonic() + (
                time.monotonic() - start) / self.rounds <= deadline:
            if self.rounds % self.rounds_per_window == 0:
                self.ticks.append(cpu_ticks())
            self.round(warm=False, start=start, seconds=seconds)
            self.rounds += 1
        self.ticks.append(cpu_ticks())
        self.window = (start, time.monotonic())

    def close(self) -> None:
        try:
            self.release()
        finally:
            self.nodes.stop()

    def release(self) -> None:
        """Close client sessions that outlive a single op."""

    def peak_rss(self) -> dict[str, float]:
        return self.nodes.peak_rss_mib()

    # one operation: timed, traced as bench.<kind>, failures counted

    def op(self, kind: str, fn, nbytes: int = 0, warm: bool = False):
        if self.tracer is not None:
            fn = self.tracer.wrap(f"bench.{kind}", fn)
        self.attempted += not warm
        began = time.monotonic()
        try:
            result = fn()
        except (GridfsError, OSError, CheckFailed) as exc:
            self._fail(kind, exc, warm)
            return None
        seconds = time.monotonic() - began
        if not warm:
            self.ops.append(OpRecord(
                kind, seconds, nbytes, self.rounds // self.rounds_per_window))
        return result

    def check(self, kind: str, ok: bool, message: str, warm: bool) -> None:
        if not ok:
            self._fail(kind, CheckFailed(message), warm)

    def _fail(self, kind: str, exc: Exception, warm: bool) -> None:
        if warm:
            raise RuntimeError(f"warm-up {kind} failed: {exc}") from exc
        self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")

    def seconds_of(self, kind: str) -> list[float]:
        return [op.seconds for op in self.ops if op.kind == kind]

    # a kind with no completed op (every one failed) reads 0

    def rate_median(self, kind: str) -> Metric:
        """Median over ops of file MB/s."""
        rates = [op.nbytes / op.seconds / MB for op in self.ops
                 if op.kind == kind]
        return Metric(median(rates), "MB/s", len(rates))

    def ops_per_s(self, kinds: tuple[str, ...]) -> Metric:
        chosen = [op for op in self.ops if op.kind in kinds]
        busy = sum(op.seconds for op in chosen)
        return Metric(len(chosen) / busy if busy else 0.0, "1/s", len(chosen))

    def median_ms(self, kinds: tuple[str, ...]) -> Metric:
        chosen = [op.seconds * 1e3 for op in self.ops if op.kind in kinds]
        return Metric(median(chosen), "ms", len(chosen))

    # gated metrics: one value per clean window, then their median

    def steal_share(self, window: int) -> float:
        (steal0, total0), (steal1, total1) = self.ticks[window:window + 2]
        return (steal1 - steal0) / max(1, total1 - total0)

    def clean(self, kinds: tuple[str, ...],
              per_window: int) -> list[list[OpRecord]]:
        """The ops of `kinds` in each clean window.

        Only complete windows count, ones that hold `per_window` of them.
        Of these, a window is clean when the machine lost no CPU time to
        steal while it ran; when none is, the one with the smallest share
        of steal stands in. On a shared host, steal comes in bursts that
        slow every op they hit by tens of percent, so windows with it
        would make runs of the same code differ by how much of it they
        caught. When no window is complete, as in runs too short to fill
        one, all ops count as one window.
        """
        windows: dict[int, list[OpRecord]] = {}
        for op in self.ops:
            if op.kind in kinds:
                windows.setdefault(op.window, []).append(op)
        complete = {window: ops for window, ops in windows.items()
                    if len(ops) == per_window}
        if not complete:
            chosen = [op for ops in windows.values() for op in ops]
            return [chosen] if chosen else []
        share = {window: self.steal_share(window) for window in complete}
        clean = [window for window in complete if share[window] == 0] \
            or [min(complete, key=share.get)]
        return [complete[window] for window in clean]

    def steal_summary(self) -> tuple[float, int, int]:
        """Steal share of the measured time, windows without steal, and
        windows."""
        (steal0, total0), (steal1, total1) = self.ticks[0], self.ticks[-1]
        windows = len(self.ticks) - 1
        clean = sum(self.steal_share(window) == 0 for window in range(windows))
        return (steal1 - steal0) / max(1, total1 - total0), clean, windows

    def window_rate(self, kind: str, per_window: int) -> Metric:
        """File MB over summed op time, per window."""
        rates = [sum(op.nbytes for op in ops) / busy / MB
                 for ops in self.clean((kind,), per_window)
                 if (busy := sum(op.seconds for op in ops))]
        return Metric(median(rates), "MB/s", len(rates))

    def window_ops_per_s(self, kinds: tuple[str, ...],
                         per_window: int) -> Metric:
        """Ops over their summed time, per window."""
        rates = [len(ops) / busy
                 for ops in self.clean(kinds, per_window)
                 if (busy := sum(op.seconds for op in ops))]
        return Metric(median(rates), "1/s", len(rates))

    def window_ms(self, kinds: tuple[str, ...], per_window: int,
                  summed: bool = False) -> Metric:
        """The median op time per window, or with `summed` the window's
        summed op time, in ms."""
        times = [(sum(seconds) if summed else median(seconds)) * 1e3
                 for ops in self.clean(kinds, per_window)
                 if (seconds := [op.seconds for op in ops])]
        return Metric(median(times), "ms", len(times))

    # per workload

    def prepare(self) -> None:
        raise NotImplementedError

    def round(self, warm: bool, start: float = 0.0,
              seconds: float = 0.0) -> None:
        raise NotImplementedError

    def results(self) -> dict[str, Metric]:
        """The workload's own end-to-end metrics (README: End-to-end)."""
        raise NotImplementedError

    def gated(self) -> dict[str, Metric]:
        """The four gated metrics every workload defines (see README),
        each the median over the run's clean windows."""
        raise NotImplementedError

    def layer_context(self) -> dict[str, float]:
        return {}


# -- bulk -----------------------------------------------------------------

class Bulk(Workload):
    name = "bulk"
    node_names = ("node0",)
    security = SecurityMode.SECURE
    size = 64 * MiB
    streams = 2
    unused_spans = frozenset(
        name for name in spans.all_span_names()
        if name.startswith(("dfsm.", "taskexec.", "cryptengine.")))

    def prepare(self) -> None:
        self.node = self.nodes.nodes[0]
        self.source = self.scratch / "bulk.bin"
        self.source_md5 = self.inputs.file(self.source, self.size, "payload")
        self.back = self.scratch / "bulk.back"
        self.mover = TransferClient(self.node.address, USERNAME, self.psk,
                                    security=self.security,
                                    streams=self.streams)
        self.chunk = wire.DEFAULT_MAX_PAYLOAD
        self.resume_skipped = 0
        self.resume_region = 0

    def round(self, warm: bool, start: float = 0.0,
              seconds: float = 0.0) -> None:
        report = self.op("push", lambda: self.mover.push(
            self.source, "bulk/a.bin"), self.size, warm)
        if report is not None:
            self.check("push", report.bytes_moved == self.size
                       and not report.resumed,
                       f"fresh push moved {report.bytes_moved} bytes", warm)

        self.back.unlink(missing_ok=True)
        state_path(self.back).unlink(missing_ok=True)
        if self.op("pull", lambda: self.mover.pull("bulk/a.bin", self.back),
                   self.size, warm) is not None:
            self.check("pull", md5_file(self.back) == self.source_md5,
                       "pulled file differs from the source", warm)

        remote = "bulk/r.bin"
        sent = self.op("abandon", lambda: self._abandon(remote), 0, warm)
        if sent is None:
            return
        try:
            self._await_state(self.node.home() / remote, sent)
        except CheckFailed as exc:
            self._fail("resume", exc, warm)
            return
        report = self.op("resume", lambda: self.mover.push(
            self.source, remote), self.size, warm)
        if report is None:
            return
        dst = self.node.home() / remote
        self.check("resume", report.resumed and
                   report.bytes_moved == self.size - sent and
                   md5_file(dst) == self.source_md5,
                   f"resume: resumed={report.resumed}, moved "
                   f"{report.bytes_moved} of {self.size - sent} missing bytes",
                   warm)
        if not warm:
            self.resume_skipped += self.size - report.bytes_moved
            self.resume_region += self.size

    def _abandon(self, remote: str) -> int:
        """A push cut at half, as a killed client leaves it: both data
        streams stop after half their chunks, and no DONE is sent."""
        params = SessionParams(Mode.FTSM_PUSH, self.security,
                               buffer_size=self.chunk,
                               stream_count=self.streams)
        address = self.node.address
        control = secchan.connect(address, params, USERNAME, self.psk)
        sent = 0
        try:
            transfer_id = os.urandom(16)
            control.send(FrameType.XFER_OFFER, wire.encode_fields({
                X_TRANSFER: transfer_id,
                X_PATH: remote.encode(),
                X_REGION_OFFSET: wire.u64(0),
                X_REGION_LENGTH: wire.u64(self.size),
                X_STREAMS: wire.u8(self.streams),
                X_CHUNK_SIZE: wire.u32(self.chunk),
                X_TRUNCATE: wire.u8(1),
            }))
            control.expect(FrameType.XFER_ACCEPT)
            grid = ChunkGrid(0, self.size, self.streams, self.chunk)
            with open(self.source, "rb") as handle:
                for index, span in enumerate(grid.chunks_by_span()):
                    data = secchan.connect(address, params, USERNAME,
                                           self.psk, transfer_id=transfer_id,
                                           stream_index=index)
                    try:
                        for offset, length in span[:len(span) // 2]:
                            handle.seek(offset)
                            data.send(FrameType.CHUNK, pack_chunk(
                                transfer_id, index, offset,
                                handle.read(length)))
                            sent += length
                    finally:
                        data.close()
        finally:
            control.close()
        return sent

    @staticmethod
    def _await_state(dst: Path, sent: int, timeout: float = 10.0) -> None:
        """Wait until the node has landed every chunk of the cut push."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            try:
                state = load_state(dst)
            except (StateCorrupt, OSError):
                state = None
            if state is not None and state.total_received >= sent:
                return
            time.sleep(0.005)
        raise CheckFailed("the cut push left no resumable state")

    def results(self) -> dict[str, Metric]:
        resume = self.seconds_of("resume")
        return {
            "push_MBps": self.rate_median("push"),
            "pull_MBps": self.rate_median("pull"),
            "resume_s": Metric(median(resume), "s", len(resume)),
        }

    def gated(self) -> dict[str, Metric]:
        return {
            "write_MBps": self.window_rate("push", 1),
            "read_MBps": self.window_rate("pull", 1),
            "op_p50_ms": self.window_ms(("resume",), 1),
            "ops_per_s": self.window_ops_per_s(("push", "pull", "resume"), 3),
        }

    def layer_context(self) -> dict[str, float]:
        skip = self.resume_skipped / self.resume_region \
            if self.resume_region else 0.0
        return {"resume_skip_ratio": skip}


# -- small ----------------------------------------------------------------

class Small(Workload):
    name = "small"
    node_names = ("node0",)
    security = SecurityMode.SEMISECURE
    pool_files = 48
    max_exponent = 20                 # sizes from 2**0 to 2**20 bytes
    dfs_size = MiB
    io_size = 4096
    # one deck of 50 ops, shuffled anew for each deck
    deck = (("push",) * 12 + ("pull",) * 12 + ("read",) * 5 + ("write",) * 5
            + ("stat",) * 5 + ("lock",) * 5 + ("task",) * 6)
    decks = 400                       # more than a run can use; then repeat
    # a window of 4 decks pushes, and pulls, every pool file exactly once;
    # a round is one op, and the warm-up one window, so windows start on
    # deck 4k of the schedule
    window_ops = rounds_per_window = 4 * len(deck)
    empty_pushes = 3
    pi_positions = 32
    pi_digits = 8
    dfs_kinds = ("read", "write", "stat", "lock")
    mix_kinds = ("push", "pull") + dfs_kinds + ("task",)
    unused_spans = frozenset(name for name in spans.all_span_names()
                             if name.startswith("cryptengine."))

    def prepare(self) -> None:
        node = self.nodes.nodes[0]
        rng = self.inputs.rng("sizes")
        self.pool = []
        for index in range(self.pool_files):
            # sizes evenly log-spaced from 1 B to 1 MiB, each moved by the
            # seed by at most 1%: a pass over the pool moves nearly the
            # same bytes for every seed
            exponent = index / (self.pool_files - 1) * self.max_exponent
            size = max(1, min(MiB, round(2 ** exponent
                                         * rng.uniform(0.99, 1.01))))
            path = self.scratch / f"pool{index:02d}.bin"
            md5 = self.inputs.file(path, size, f"pool{index}")
            self.pool.append((path, f"small/f{index:02d}.bin", size, md5))

        self.dep = self.scratch / "dep.bin"
        self.inputs.file(self.dep, self.io_size, "dependency")
        self.empty = self.scratch / "empty.bin"
        self.empty.write_bytes(b"")
        self.pulled = self.scratch / "pulled.bin"

        rng = self.inputs.rng("pi")
        # one digit position in each 1/32 of 1..512: a task's cost grows
        # with its position, so every seed gets the same spread of costs
        stride = 512 // self.pi_positions
        starts = [1 + stratum * stride + rng.randrange(stride)
                  for stratum in range(self.pi_positions)]
        self.pi_table = {start: pi_hex_digits(start, self.pi_digits)
                         for start in starts}
        self.inputs.note("pi", repr(sorted(self.pi_table.items())).encode())

        rng = self.inputs.rng("ops")
        self.buffers = [rng.randbytes(self.io_size) for _ in range(64)]
        schedule = []
        span = self.dfs_size - self.io_size
        # pushes and pulls each walk the pool in shuffled passes, one pass
        # per window, so every seed and every window moves the same sizes
        passes = {"push": [], "pull": []}
        for _ in range(self.decks):
            deck = list(self.deck)
            rng.shuffle(deck)
            for kind in deck:
                if kind in passes:
                    if not passes[kind]:
                        passes[kind] = list(range(self.pool_files))
                        rng.shuffle(passes[kind])
                    arg = passes[kind].pop()
                elif kind == "task":
                    arg = rng.choice(starts)
                else:
                    arg = rng.randrange(span + 1)
                schedule.append((kind, arg, rng.randrange(len(self.buffers))))
        self.schedule = schedule
        self.inputs.note("schedule", repr(schedule).encode())
        for buffer in self.buffers:
            self.inputs.note("buffer", buffer)
        self.next_op = 0

        self.mover = TransferClient(node.address, USERNAME, self.psk,
                                    security=self.security)
        self.tasks = TaskClient(node.address, USERNAME, self.psk,
                                security=self.security)
        self.fs = FsClient(secchan.connect(
            node.address, SessionParams(Mode.DFSM, self.security),
            USERNAME, self.psk))
        self.dfs_path = "small/dfs.bin"
        initial = self.inputs.note("dfs", self.inputs.rng("dfs").randbytes(
            self.dfs_size))
        self.fs.write(self.dfs_path, 0, initial)
        self.shadow = bytearray(initial)
        for local, remote, _, _ in self.pool:    # every pull has a source
            self.mover.push(local, remote)

    def release(self) -> None:
        if getattr(self, "fs", None) is not None:
            self.fs.__exit__(None, None, None)
            self.fs = None

    def round(self, warm: bool, start: float = 0.0,
              seconds: float = 0.0) -> None:
        if warm:
            for _ in range(self.window_ops):
                self._one(warm=True)
            return
        due = len(self.seconds_of("empty_push")) + 1
        if due <= self.empty_pushes and \
                time.monotonic() - start >= due * seconds \
                / (self.empty_pushes + 1):
            self.op("empty_push", lambda: self.mover.push(
                self.empty, "small/empty.bin"), 0)
        self._one(warm=False)

    def _one(self, warm: bool) -> None:
        kind, arg, buffer = self.schedule[self.next_op % len(self.schedule)]
        self.next_op += 1
        if kind == "push":
            local, remote, size, _ = self.pool[arg]
            report = self.op(kind, lambda: self.mover.push(local, remote),
                             size, warm)
            if report is not None:
                self.check(kind, report.bytes_moved == size,
                           f"push moved {report.bytes_moved} of {size}", warm)
        elif kind == "pull":
            _, remote, size, md5 = self.pool[arg]
            self.pulled.unlink(missing_ok=True)
            if self.op(kind, lambda: self.mover.pull(remote, self.pulled),
                       size, warm) is not None:
                self.check(kind, md5_file(self.pulled) == md5,
                           f"pulled {remote} differs from its source", warm)
        elif kind == "read":
            data = self.op(kind, lambda: self.fs.read(
                self.dfs_path, arg, self.io_size), self.io_size, warm)
            if data is not None:
                self.check(kind, data == self.shadow[arg:arg + self.io_size],
                           f"read at {arg} differs from the last write", warm)
        elif kind == "write":
            data = self.buffers[buffer]
            written = self.op(kind, lambda: self.fs.write(
                self.dfs_path, arg, data), self.io_size, warm)
            if written is not None:
                self.shadow[arg:arg + len(data)] = data
                self.check(kind, written == len(data),
                           f"wrote {written} of {len(data)} bytes", warm)
        elif kind == "stat":
            stat = self.op(kind, lambda: self.fs.stat(self.dfs_path), 0, warm)
            if stat is not None:
                self.check(kind, stat.exists and stat.size == len(self.shadow),
                           f"stat says {stat}", warm)
        elif kind == "lock":
            def lock_unlock():
                lock_id = self.fs.lock(self.dfs_path, arg, self.io_size)
                self.fs.unlock(self.dfs_path, lock_id)
                return lock_id
            self.op(kind, lock_unlock, 0, warm)
        else:
            result = self.op(kind, lambda: self._task(arg), self.io_size, warm)
            if result is not None:
                self.check(kind, result == self.pi_table[arg],
                           f"pi digits at {arg}: {result!r}", warm)

    def _task(self, start: int) -> str:
        spec = builtin_task("pi_hex_digits",
                            {1: wire.u64(start), 2: wire.u32(self.pi_digits)},
                            dependencies=[("dep.bin", str(self.dep))])
        handle = self.tasks.submit([spec])
        try:
            result = self.tasks.collect(handle)[0]
        finally:
            self.tasks.close(handle)
        if result.status != TaskStatus.OK:
            raise CheckFailed(f"task failed: {result.message}")
        return result.result.get(1, b"").decode("ascii")

    def results(self) -> dict[str, Metric]:
        mix = [op.seconds * 1e3 for op in self.ops
               if op.kind in self.mix_kinds]
        out = {
            "ops_per_s": self.ops_per_s(self.mix_kinds),
            "push_p50_ms": self.median_ms(("push",)),
            "pull_p50_ms": self.median_ms(("pull",)),
            "dfsm_p50_ms": self.median_ms(self.dfs_kinds),
            "task_p50_ms": self.median_ms(("task",)),
        }
        high = tail(mix)
        if high is not None:
            out["op_p99_ms"] = Metric(high[1], f"ms@{high[0]}", len(mix))
        out["empty_push_ms"] = self.median_ms(("empty_push",))
        return out

    def gated(self) -> dict[str, Metric]:
        return {
            "write_MBps": self.window_rate("push", self.pool_files),
            "read_MBps": self.window_rate("pull", self.pool_files),
            "op_p50_ms": self.window_ms(self.mix_kinds, self.window_ops),
            "ops_per_s": self.window_ops_per_s(self.mix_kinds,
                                               self.window_ops),
        }


# -- crypt ----------------------------------------------------------------

class Crypt(Workload):
    name = "crypt"
    node_names = ("worker0", "worker1")
    security = SecurityMode.NONSECURE
    size = 32 * MiB
    block = MiB
    unused_spans = frozenset(
        name for name in spans.all_span_names()
        if name.startswith("taskexec.")
        or name in {"dfsm.FsClient.write", "dfsm.FsClient.stat",
                    "dfsm.FsClient.lock", "dfsm.LockTable.acquire",
                    "ftsm.TransferClient.push", "ftsm.TransferClient._push_once",
                    "ftsm.TransferClient.push_on",
                    "ftsm.TransferClient._run_senders",
                    "ftsm.TransferSession.wait_quiesce"})

    def prepare(self) -> None:
        self.source = self.scratch / "crypt.bin"
        self.source_md5 = self.inputs.file(self.source, self.size, "payload")
        rng = self.inputs.rng("cipher")
        key = self.inputs.note("key", rng.randbytes(16))
        iv = self.inputs.note("iv", rng.randbytes(16))
        self.params = cryptengine.CipherParams("aes128", key, iv)
        self.workers = [node.endpoint for node in self.nodes.nodes]
        self.manifest = self.scratch / "crypt.manifest"
        self.rebuilt = self.scratch / "crypt.rebuilt"

    def round(self, warm: bool, start: float = 0.0,
              seconds: float = 0.0) -> None:
        manifest = self.op("encrypt", lambda: cryptengine.distribute(
            self.source, self.workers, self.params, USERNAME, self.psk,
            block_size=self.block, security=self.security,
            manifest_path=self.manifest), self.size, warm)
        if manifest is None:
            return
        self.check("encrypt",
                   len(manifest.placements) == self.size // self.block,
                   f"manifest places {len(manifest.placements)} blocks", warm)
        self.rebuilt.unlink(missing_ok=True)
        if self.op("decrypt", lambda: cryptengine.reassemble(
                manifest, self.params, self.rebuilt, USERNAME, self.psk,
                security=self.security), self.size, warm) is not None:
            self.check("decrypt", md5_file(self.rebuilt) == self.source_md5,
                       "rebuilt file differs from the source", warm)

    def results(self) -> dict[str, Metric]:
        return {
            "encrypt_MBps": self.rate_median("encrypt"),
            "decrypt_MBps": self.rate_median("decrypt"),
        }

    def gated(self) -> dict[str, Metric]:
        cycle = ("encrypt", "decrypt")
        return {
            "write_MBps": self.window_rate("encrypt", 1),
            "read_MBps": self.window_rate("decrypt", 1),
            "op_p50_ms": self.window_ms(cycle, 2, summed=True),
            "ops_per_s": self.window_ops_per_s(cycle, 2),
        }

    def layer_context(self) -> dict[str, float]:
        return {"blocks_per_distribute": self.size // self.block}


WORKLOADS = {cls.name: cls for cls in (Bulk, Small, Crypt)}
