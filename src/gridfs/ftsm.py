"""Parallel-stream file transfer with resume and end-to-end integrity.

A transfer is negotiated on the authenticated control connection
(XFER_OFFER / XFER_ACCEPT, or XFER_RESUME when the receiver holds partial
state), then the bytes travel over N data connections opened with
HELLO(transfer_id, stream_index). The planned region is ceiling-split into
N contiguous spans, one per stream, and each span is sent as sequential
CHUNK frames:

    transfer_id(16) | stream_index(1) | offset(8 BE) | length(4 BE) | payload

Offsets are absolute file offsets; the receiver writes each payload at
exactly its offset, so any interleaving of streams reassembles the same
bytes. After draining, the sender's XFER_DONE carries the whole-region
MD5; the receiver re-reads its region and compares before acknowledging.
A whole-file transfer replaces the destination (the offer carries a
truncate flag, so a shorter file drops any stale tail); an explicit
region only ever touches its own byte range.

The receiver persists progress beside the destination in `<dst>.xferstate`:
the transfer geometry plus a chunk-granularity bitmap, rewritten atomically
after every chunk, data first. An interrupted transfer resumes from the
sidecar — the original chunk grid is preserved and only missing chunks are
resent, round-robin across however many streams the resuming sender brings.
The sidecar is removed only on a verified completion.

A memory-to-memory mode (zero generator into a discarding sink) drives the
identical protocol path with no disk at either end, for measuring raw
protocol throughput.

On the sender's XFER_DONE the receiving node waits until its region is
complete, or until the data connections have been idle for a one-second
grace. An empty region has no data connections, so it is answered at once;
the memory sink is complete once it has counted the byte total that
XFER_DONE claims. Neither waits out the grace.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from types import MappingProxyType

from . import secchan, wire
from .errors import (
    BadRequest,
    ConnectionLost,
    EmptyRegion,
    GridfsError,
    IncompleteTransfer,
    IntegrityMismatch,
    NoSuchFile,
    PermissionDenied,
    StateCorrupt,
    Status,
    StreamLost,
)
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import FrameType, Mode, SecurityMode, SessionParams

log = logging.getLogger("gridfs.ftsm")

CHUNK_HEADER = struct.Struct(">16sBQI")    # transfer_id, stream, offset, length
STATE_SUFFIX = ".xferstate"

# XFER_* field tags
X_TRANSFER = 1
X_PATH = 2
X_REGION_OFFSET = 3
X_REGION_LENGTH = 4
X_STREAMS = 5
X_CHUNK_SIZE = 6
X_MD5 = 7
X_STATUS = 8
X_BITMAP = 9
X_SINK = 10
X_TOTAL = 11
X_TRUNCATE = 12      # whole-file transfer: drop any stale tail on finish

SINK_FILE = 0
SINK_MEM = 1

# a pull offer without a region length asks for everything from its offset
WHOLE_REST = 2**64 - 1

# client re-offers after a lost stream or connection, and the pause before
# the first one; the pause doubles on each further re-offer
RETRIES = 3
BACKOFF = 0.25


def pack_chunk(transfer_id: bytes, stream_index: int, offset: int,
               payload: bytes) -> bytes:
    return CHUNK_HEADER.pack(transfer_id, stream_index, offset,
                             len(payload)) + payload


def unpack_chunk(raw: bytes) -> tuple[bytes, int, int, bytes]:
    if len(raw) < CHUNK_HEADER.size:
        raise BadRequest("short chunk frame")
    transfer_id, stream_index, offset, length = CHUNK_HEADER.unpack(
        raw[:CHUNK_HEADER.size])
    payload = raw[CHUNK_HEADER.size:]
    if len(payload) != length:
        raise BadRequest("chunk length field disagrees with payload")
    return transfer_id, stream_index, offset, payload


def md5_region(path: Path, offset: int, length: int) -> bytes:
    digest = hashlib.md5()
    remaining = length
    with open(path, "rb") as handle:
        handle.seek(offset)
        while remaining:
            piece = handle.read(min(1 << 20, remaining))
            if not piece:
                break
            digest.update(piece)
            remaining -= len(piece)
    return digest.digest()


# -- planning ---------------------------------------------------------------

@dataclass(frozen=True)
class StreamSpan:
    index: int
    offset: int
    length: int


@dataclass(frozen=True)
class ChunkGrid:
    """The fixed chunk geometry of one transfer.

    Chunks are enumerated span-major: all of span 0's chunks first, in
    offset order, then span 1's, and so on. That ordinal numbering is what
    the resume bitmap indexes, so it must never change for a given
    (region, stream_count, chunk_size) triple. The enumeration is made
    once per grid, on first use.
    """

    region_offset: int
    region_length: int
    stream_count: int
    chunk_size: int

    def __post_init__(self):
        if self.stream_count < 1:
            raise BadRequest("stream count must be at least 1")
        if self.chunk_size < 1:
            raise BadRequest("chunk size must be at least 1")

    def spans(self) -> list[StreamSpan]:
        if self.region_length == 0:
            return []
        per = -(-self.region_length // self.stream_count)   # ceil
        spans = []
        position = self.region_offset
        end = self.region_offset + self.region_length
        index = 0
        while position < end:
            size = min(per, end - position)
            spans.append(StreamSpan(index, position, size))
            position += size
            index += 1
        return spans

    @cached_property
    def _by_span(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        grouped = []
        for span in self.spans():
            position = span.offset
            span_end = span.offset + span.length
            group = []
            while position < span_end:
                size = min(self.chunk_size, span_end - position)
                group.append((position, size))
                position += size
            grouped.append(tuple(group))
        return tuple(grouped)

    @cached_property
    def _chunks(self) -> tuple[tuple[int, int], ...]:
        return tuple(chunk for group in self._by_span for chunk in group)

    @cached_property
    def _ordinals(self) -> dict[int, int]:
        return {offset: k for k, (offset, _) in enumerate(self._chunks)}

    @cached_property
    def _full_bitmap(self) -> bytes:
        """The resume bitmap of a complete transfer."""
        whole, tail = divmod(len(self._chunks), 8)
        return b"\xff" * whole + (bytes([(1 << tail) - 1]) if tail else b"")

    def chunks(self) -> list[tuple[int, int]]:
        """All (offset, length) chunks in ordinal order, as a new list."""
        return list(self._chunks)

    def chunks_by_span(self) -> list[list[tuple[int, int]]]:
        return [list(group) for group in self._by_span]

    def ordinal_of(self) -> Mapping[int, int]:
        return MappingProxyType(self._ordinals)


def plan_transfer(file_size: int, region: tuple[int, int] | None,
                  stream_count: int, chunk_size: int) -> ChunkGrid:
    if region is None:
        offset, length = 0, file_size
    else:
        offset, length = region
    grid = ChunkGrid(offset, length, stream_count, chunk_size)
    if offset < 0 or length < 0 or offset + length > file_size:
        raise BadRequest("region lies outside the file")
    if length == 0:
        raise EmptyRegion("nothing to transfer")
    return grid


def assign_missing(grid: ChunkGrid, missing: list[int],
                   streams: int) -> list[list[tuple[int, int]]]:
    """Group missing ordinals into consecutive runs, dealt round-robin."""
    chunks = grid._chunks
    runs: list[list[tuple[int, int]]] = []
    previous = None
    for ordinal in missing:
        if previous is not None and ordinal == previous + 1:
            runs[-1].append(chunks[ordinal])
        else:
            runs.append([chunks[ordinal]])
        previous = ordinal
    assignment: list[list[tuple[int, int]]] = [[] for _ in range(streams)]
    for k, run in enumerate(runs):
        assignment[k % streams].extend(run)
    return [chunks_i for chunks_i in assignment if chunks_i]


def grid_fields(grid: ChunkGrid) -> dict[int, bytes]:
    """The XFER_* fields that carry a grid's geometry."""
    return {
        X_REGION_OFFSET: wire.u64(grid.region_offset),
        X_REGION_LENGTH: wire.u64(grid.region_length),
        X_STREAMS: wire.u8(grid.stream_count),
        X_CHUNK_SIZE: wire.u32(grid.chunk_size),
    }


def grid_from_fields(fields: dict[int, bytes]) -> ChunkGrid:
    return ChunkGrid(
        wire.read_uint(fields, X_REGION_OFFSET),
        wire.read_uint(fields, X_REGION_LENGTH),
        wire.read_uint(fields, X_STREAMS),
        wire.read_uint(fields, X_CHUNK_SIZE))


# -- persisted receiver state ----------------------------------------------

S_TRANSFER = 1
S_REGION_OFFSET = 2
S_REGION_LENGTH = 3
S_CHUNK_SIZE = 4
S_STREAMS = 5
S_BITMAP = 6
S_TOTAL = 7


@dataclass
class TransferState:
    transfer_id: bytes
    grid: ChunkGrid
    bitmap: bytearray
    total_received: int = 0

    @classmethod
    def fresh(cls, transfer_id: bytes, grid: ChunkGrid) -> "TransferState":
        return cls(transfer_id, grid, bytearray(len(grid._full_bitmap)))

    def mark(self, ordinal: int, length: int) -> None:
        self.bitmap[ordinal // 8] |= 1 << (ordinal % 8)
        self.total_received += length

    def has(self, ordinal: int) -> bool:
        return bool(self.bitmap[ordinal // 8] & (1 << (ordinal % 8)))

    def missing(self) -> list[int]:
        return [k for k in range(len(self.grid._chunks)) if not self.has(k)]

    def complete(self) -> bool:
        return self.bitmap == self.grid._full_bitmap

    def encode(self) -> bytes:
        return wire.encode_fields({
            S_TRANSFER: self.transfer_id,
            S_REGION_OFFSET: wire.u64(self.grid.region_offset),
            S_REGION_LENGTH: wire.u64(self.grid.region_length),
            S_CHUNK_SIZE: wire.u32(self.grid.chunk_size),
            S_STREAMS: wire.u8(self.grid.stream_count),
            S_BITMAP: bytes(self.bitmap),
            S_TOTAL: wire.u64(self.total_received),
        })

    @classmethod
    def decode(cls, raw: bytes, dst_size: int | None = None) -> "TransferState":
        try:
            fields = wire.decode_fields(raw)
            grid = ChunkGrid(
                wire.read_uint(fields, S_REGION_OFFSET),
                wire.read_uint(fields, S_REGION_LENGTH),
                wire.read_uint(fields, S_STREAMS),
                wire.read_uint(fields, S_CHUNK_SIZE))
            state = cls(fields.get(S_TRANSFER, b""), grid,
                        bytearray(fields.get(S_BITMAP, b"")),
                        wire.read_uint(fields, S_TOTAL, 0))
        except GridfsError as exc:
            raise StateCorrupt(f"unreadable transfer state: {exc}") from None
        full = grid._full_bitmap
        if len(state.bitmap) != len(full) or len(state.transfer_id) != 16:
            raise StateCorrupt("transfer state disagrees with its geometry")
        if full and state.bitmap[-1] & ~full[-1]:
            raise StateCorrupt("bitmap marks chunks beyond the region")
        if dst_size is not None:
            for k, (offset, length) in enumerate(grid._chunks):
                if state.has(k) and offset + length > dst_size:
                    raise StateCorrupt(
                        "state claims bytes beyond the destination size")
        return state


def state_path(dst: Path) -> Path:
    return dst.with_name(dst.name + STATE_SUFFIX)


def load_state(dst: Path) -> TransferState | None:
    sidecar = state_path(dst)
    if not sidecar.exists():
        return None
    dst_size = dst.stat().st_size if dst.exists() else 0
    return TransferState.decode(sidecar.read_bytes(), dst_size)


def save_state(dst: Path, state: TransferState) -> None:
    sidecar = state_path(dst)
    tmp = sidecar.with_name(sidecar.name + ".tmp")
    tmp.write_bytes(state.encode())
    os.replace(tmp, sidecar)


def resumable_state(dst: Path, grid: ChunkGrid) -> TransferState | None:
    """The sidecar beside `dst` if it continues a transfer of `grid`'s
    region in `grid`'s chunk size; any other sidecar is deleted."""
    try:
        state = load_state(dst)
    except StateCorrupt:
        log.warning("discarding corrupt transfer state next to %s", dst.name)
        state = None
    if state is not None and (
            state.grid.region_offset == grid.region_offset and
            state.grid.region_length == grid.region_length and
            state.grid.chunk_size == grid.chunk_size):
        return state
    # a different transfer's remnant, or none: nothing to resume
    state_path(dst).unlink(missing_ok=True)
    return None


# -- receiving end (either side, depending on direction) --------------------

class RegionReceiver:
    """Writes validated chunks at their absolute offsets and keeps the
    sidecar current. Data lands before the bitmap marks it, so a crash
    can lose at most the marking, never claim unwritten bytes."""

    def __init__(self, dst: Path, transfer_id: bytes, grid: ChunkGrid,
                 state: TransferState | None = None,
                 truncate_to: int | None = None):
        self.dst = Path(dst)
        self.grid = grid
        self.state = state or TransferState.fresh(transfer_id, grid)
        self.truncate_to = truncate_to
        self._lock = threading.Lock()
        self.state.transfer_id = transfer_id
        self.dst.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.dst, os.O_RDWR | os.O_CREAT, 0o644)

    def write_chunk(self, offset: int, payload: bytes) -> None:
        ordinal = self.grid._ordinals.get(offset)
        if ordinal is None or \
                self.grid._chunks[ordinal][1] != len(payload):
            raise BadRequest("chunk does not lie on the transfer grid")
        os.pwrite(self._fd, payload, offset)
        with self._lock:
            if self.state.has(ordinal):
                return     # duplicate delivery after a resume race: harmless
            self.state.mark(ordinal, len(payload))
            save_state(self.dst, self.state)

    def complete(self) -> bool:
        with self._lock:
            return self.state.complete()

    def finish(self, expected_md5: bytes) -> int:
        """Verify the region against the sender's digest; only a match
        removes the sidecar."""
        try:
            if self.truncate_to is not None:
                # whole-file transfer over a longer predecessor
                os.ftruncate(self._fd, self.truncate_to)
            os.fsync(self._fd)
        finally:
            os.close(self._fd)
            self._fd = -1
        if not self.state.complete():
            raise IncompleteTransfer(
                f"{len(self.state.missing())} chunks never arrived")
        actual = md5_region(self.dst, self.grid.region_offset,
                            self.grid.region_length)
        if actual != expected_md5:
            raise IntegrityMismatch("region digest differs from sender's")
        try:
            state_path(self.dst).unlink()
        except FileNotFoundError:
            pass
        return self.state.total_received

    def abort(self) -> None:
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class MemSink:
    """Discarding receiver for the memory-to-memory benchmark. It is
    complete once it has counted the byte total the sender claims."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total_received = 0
        self.claimed: int | None = None    # X_TOTAL of the sender's DONE

    def write_chunk(self, offset: int, payload: bytes) -> None:
        with self._lock:
            self.total_received += len(payload)

    def complete(self) -> bool:
        with self._lock:
            return self.claimed is not None and \
                self.total_received >= self.claimed

    def finish(self, expected_md5: bytes) -> int:
        with self._lock:
            received = self.total_received
        if received != self.claimed:
            raise IntegrityMismatch(
                f"sink counted {received} bytes, sender claims {self.claimed}")
        return received

    def abort(self) -> None:
        pass


# -- data connections, both directions --------------------------------------

def send_chunks(channel: Channel, transfer_id: bytes, stream_index: int,
                src: Path, chunks: list[tuple[int, int]]) -> int:
    """Send each (offset, length) chunk of `src` as a CHUNK frame; returns
    the payload bytes sent."""
    sent = 0
    with open(src, "rb") as handle:
        for offset, length in chunks:
            payload = os.pread(handle.fileno(), length, offset)
            if len(payload) != length:
                raise StreamLost("source shrank mid-transfer")
            channel.send(FrameType.CHUNK,
                         pack_chunk(transfer_id, stream_index, offset,
                                    payload))
            sent += length
    return sent


def receive_chunks(channel: Channel, transfer_id: bytes, receiver,
                   progress: Callable[[], None] | None = None) -> int:
    """Hand each CHUNK frame to `receiver.write_chunk` until the peer
    closes the connection, calling `progress` after each; returns the
    payload bytes received. An ERROR frame raises the peer's error."""
    received = 0
    while True:
        try:
            frame = channel.expect(FrameType.CHUNK)
        except ConnectionLost:
            return received
        chunk_transfer, _, offset, payload = unpack_chunk(frame.payload)
        if chunk_transfer != transfer_id:
            raise BadRequest("chunk for a different transfer")
        receiver.write_chunk(offset, payload)
        received += len(payload)
        if progress is not None:
            progress()


def fan_out(work: Callable[[int], object],
            count: int) -> list[BaseException | None]:
    """Run `work(0)` … `work(count - 1)`, each on its own thread, and wait
    for all of them. Returns, per index, the exception that ended that
    call, or None if it returned."""
    failures: list[BaseException | None] = [None] * count

    def run(index: int) -> None:
        try:
            work(index)
        except BaseException as exc:    # reported to the caller, who decides
            failures[index] = exc

    threads = [threading.Thread(target=run, args=(index,), daemon=True)
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return failures


# -- server side ------------------------------------------------------------

class TransferSession:
    """Server-side rendezvous record joining control and data connections."""

    def __init__(self, transfer_id: bytes, account: Account, direction: Mode,
                 security: SecurityMode, receiver=None, sender_ctx=None):
        self.transfer_id = transfer_id
        self.account = account
        self.direction = direction
        self.security = security
        self.receiver = receiver          # push: RegionReceiver or MemSink
        self.sender_ctx = sender_ctx      # pull: (src path, assignments)
        self._cond = threading.Condition()
        self._active = 0
        self._last_activity = time.monotonic()

    def attach(self) -> None:
        with self._cond:
            self._active += 1
            self._last_activity = time.monotonic()

    def detach(self) -> None:
        with self._cond:
            self._active -= 1
            self._last_activity = time.monotonic()
            self._cond.notify_all()

    def touch(self) -> None:
        with self._cond:
            self._last_activity = time.monotonic()
            self._cond.notify_all()

    def wait_quiesce(self, timeout: float, grace: float = 1.0) -> None:
        """Block until the receiver is complete, or the data connections
        have gone idle for `grace` seconds, or `timeout` expires."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                if self.receiver.complete():
                    return
                now = time.monotonic()
                if now >= deadline:
                    return
                if self._active == 0 and now - self._last_activity >= grace:
                    return
                self._cond.wait(min(0.1, deadline - now))


class TransferRegistry:
    def __init__(self):
        self._lock = threading.Lock()
        self._sessions: dict[bytes, TransferSession] = {}

    def register(self, session: TransferSession) -> None:
        with self._lock:
            if session.transfer_id in self._sessions:
                raise BadRequest("transfer id already in use")
            self._sessions[session.transfer_id] = session

    def lookup(self, transfer_id: bytes) -> TransferSession | None:
        with self._lock:
            return self._sessions.get(transfer_id)

    def remove(self, transfer_id: bytes) -> None:
        with self._lock:
            self._sessions.pop(transfer_id, None)


class FtsmService:
    """Handles FTSM control sessions and their data connections.

    `resolver(account, relative) -> Path` maps an offered path to a local
    destination; the default confines it to the account sandbox behind the
    file permission gate. The task runner substitutes its own resolver to
    stage into per-set work directories.
    """

    def __init__(self, registry: TransferRegistry, drain_timeout: float = 30.0,
                 resolver=None):
        self.registry = registry
        self.drain_timeout = drain_timeout
        self.resolver = resolver

    def _resolve(self, account: Account, relative: str) -> Path:
        if self.resolver is not None:
            return self.resolver(account, relative)
        from .dfsm import resolve_path    # local import: avoids a cycle
        target = resolve_path(account.sandbox_root, relative)
        denial = check(account, GuardedAction(ActionKind.FILE_IO, target))
        if denial is not None:
            raise PermissionDenied(denial)
        return target

    def serve(self, channel: Channel, account: Account, mode: Mode) -> None:
        """Serve a control connection in FTSM_PUSH mode (the peer sends,
        this node receives) or FTSM_PULL mode, one offer at a time."""
        while True:
            try:
                frame = channel.expect(FrameType.XFER_OFFER)
            except ConnectionLost:
                return
            try:
                self.offer(channel, account, mode, frame.payload)
            except GridfsError as exc:
                log.debug("%s transfer failed: %s", mode.name, exc)
                channel.send_error(exc)

    def offer(self, channel: Channel, account: Account, mode: Mode,
              offer_raw: bytes) -> None:
        """Run one offered transfer to its end: reply to the XFER_OFFER,
        serve its data connections, and answer the peer's XFER_DONE."""
        fields = wire.decode_fields(offer_raw)
        transfer_id = fields.get(X_TRANSFER, b"")
        if len(transfer_id) != 16:
            raise BadRequest("transfer id must be 16 bytes")
        if mode == Mode.FTSM_PUSH:
            self._receive(channel, account, transfer_id, fields)
        else:
            self._send(channel, account, transfer_id, fields)

    def _register_and_reply(self, channel: Channel, session: TransferSession,
                            frame_type: FrameType,
                            fields: dict[int, bytes]) -> None:
        self.registry.register(session)
        try:
            channel.send(frame_type, wire.encode_fields(
                {X_TRANSFER: session.transfer_id, **fields}))
        except BaseException:
            self.registry.remove(session.transfer_id)
            if session.receiver is not None:
                session.receiver.abort()
            raise

    # push: the peer sends, this node receives

    def _receive(self, channel: Channel, account: Account,
                 transfer_id: bytes, fields: dict[int, bytes]) -> None:
        frame_type, reply = FrameType.XFER_ACCEPT, {}
        if wire.read_uint(fields, X_SINK, SINK_FILE) == SINK_MEM:
            receiver = MemSink()
        else:
            dst = self._resolve(account,
                                fields.get(X_PATH, b"").decode("utf-8"))
            grid = ChunkGrid(
                wire.read_uint(fields, X_REGION_OFFSET, 0),
                wire.read_uint(fields, X_REGION_LENGTH),
                max(1, wire.read_uint(fields, X_STREAMS, 1)),
                wire.read_uint(fields, X_CHUNK_SIZE,
                               channel.params.buffer_size))
            end = grid.region_offset + grid.region_length
            whole_file = bool(wire.read_uint(fields, X_TRUNCATE, 0))
            state = resumable_state(dst, grid)
            if state is not None:
                grid = state.grid
                frame_type = FrameType.XFER_RESUME
                reply = {**grid_fields(grid), X_BITMAP: bytes(state.bitmap)}
            receiver = RegionReceiver(dst, transfer_id, grid, state,
                                      truncate_to=end if whole_file else None)
        session = TransferSession(transfer_id, account, Mode.FTSM_PUSH,
                                  channel.params.security, receiver=receiver)
        self._register_and_reply(channel, session, frame_type, reply)
        self._finish_push(channel, session)

    def _finish_push(self, channel: Channel,
                     session: TransferSession) -> None:
        receiver = session.receiver
        try:
            frame = channel.expect(FrameType.XFER_DONE)
        except ConnectionLost:
            # sender vanished: keep the sidecar, but let late or still
            # draining data connections land their chunks first
            session.wait_quiesce(min(5.0, self.drain_timeout))
            self.registry.remove(session.transfer_id)
            receiver.abort()
            return
        try:
            fields = wire.decode_fields(frame.payload)
            if isinstance(receiver, MemSink):
                receiver.claimed = wire.read_uint(fields, X_TOTAL, 0)
            # returns at once for a complete region, an empty one included
            session.wait_quiesce(self.drain_timeout)
            total = receiver.finish(fields.get(X_MD5, b""))
            channel.send(FrameType.XFER_DONE, wire.encode_fields({
                X_TRANSFER: session.transfer_id,
                X_STATUS: wire.u16(Status.OK),
                X_TOTAL: wire.u64(total),
            }))
        except GridfsError as exc:
            receiver.abort()
            channel.send_error(exc)
        finally:
            self.registry.remove(session.transfer_id)

    # pull: the peer receives, this node sends

    def _send(self, channel: Channel, account: Account, transfer_id: bytes,
              fields: dict[int, bytes]) -> None:
        relative = fields.get(X_PATH, b"").decode("utf-8")
        src = self._resolve(account, relative)
        if not src.is_file():
            raise NoSuchFile("source does not exist")
        file_size = src.stat().st_size
        streams = max(1, wire.read_uint(fields, X_STREAMS, 1))
        chunk_size = wire.read_uint(fields, X_CHUNK_SIZE,
                                    channel.params.buffer_size)
        region_offset = wire.read_uint(fields, X_REGION_OFFSET, 0)
        region_length = wire.read_uint(fields, X_REGION_LENGTH, WHOLE_REST)
        if region_length == WHOLE_REST:
            region_length = max(file_size - region_offset, 0)

        if region_length == 0:
            grid = ChunkGrid(region_offset, 0, streams, chunk_size)
        else:
            grid = plan_transfer(file_size, (region_offset, region_length),
                                 streams, chunk_size)
        bitmap = fields.get(X_BITMAP)
        if bitmap is None:
            assignments = grid.chunks_by_span()
        else:
            state = TransferState(transfer_id, grid, bytearray(bitmap))
            if len(state.bitmap) != len(grid._full_bitmap):
                raise StateCorrupt("offered bitmap disagrees with geometry")
            assignments = assign_missing(grid, state.missing(), streams)

        session = TransferSession(transfer_id, account, Mode.FTSM_PULL,
                                  channel.params.security,
                                  sender_ctx=(src, assignments))
        self._register_and_reply(channel, session, FrameType.XFER_ACCEPT,
                                 grid_fields(grid))
        try:
            self._finish_pull(channel, transfer_id, src, grid)
        finally:
            self.registry.remove(transfer_id)

    def _finish_pull(self, channel: Channel, transfer_id: bytes, src: Path,
                     grid: ChunkGrid) -> None:
        try:
            channel.expect(FrameType.XFER_DONE)
        except ConnectionLost:
            return
        channel.send(FrameType.XFER_DONE, wire.encode_fields({
            X_TRANSFER: transfer_id,
            X_STATUS: wire.u16(Status.OK),
            X_MD5: md5_region(src, grid.region_offset, grid.region_length),
            X_TOTAL: wire.u64(grid.region_length),
        }))

    # data connections (HELLO carried a transfer_id)

    def serve_data(self, channel: Channel, transfer_id: bytes,
                   stream_index: int) -> None:
        session = self.registry.lookup(transfer_id)
        if session is None:
            channel.send_error(BadRequest("unknown transfer"))
            channel.close()
            return
        if channel.params.security != session.security:
            channel.send_error(BadRequest(
                "data connection security differs from the control session"))
            channel.close()
            return
        if channel.username != session.account.username:
            channel.send_error(BadRequest(
                "data connection user differs from the transfer owner"))
            channel.close()
            return
        session.attach()
        try:
            if session.direction == Mode.FTSM_PUSH:
                receive_chunks(channel, transfer_id, session.receiver,
                               session.touch)
            else:
                src, assignments = session.sender_ctx
                if stream_index < len(assignments):
                    send_chunks(channel, transfer_id, stream_index, src,
                                assignments[stream_index])
        except ConnectionLost:
            pass    # the peer hung up: nobody is left to tell
        except (GridfsError, OSError) as exc:
            log.debug("data stream %d failed: %s", stream_index, exc)
            channel.send_error(exc if isinstance(exc, GridfsError)
                               else StreamLost(f"local file error: {exc}"))
        finally:
            session.detach()
            channel.close()


# -- client side ------------------------------------------------------------

@dataclass
class TransferReport:
    bytes_moved: int
    seconds: float
    per_stream: list[int]
    resumed: bool = False

    @property
    def mbps(self) -> float:
        return throughput_mbps(self.bytes_moved, self.seconds)


def throughput_mbps(byte_count: int, seconds: float) -> float:
    if byte_count == 0 or seconds <= 0:
        return 0.0
    return byte_count * 8 / (1e6 * seconds)


def _with_retries(attempt: Callable[[], TransferReport]) -> TransferReport:
    """Run `attempt`; after a lost stream or connection, pause and run it
    again, at most RETRIES more times."""
    for retry in range(RETRIES):
        try:
            return attempt()
        except (ConnectionLost, StreamLost):
            time.sleep(BACKOFF * 2 ** retry)
    return attempt()


class TransferClient:
    """Client engine for push, pull and the memory benchmark.

    Transient stream failures are retried with doubling backoff; each
    retry re-offers the transfer, which the receiving side answers with
    resume state, so completed chunks are never resent.
    """

    def __init__(self, address: tuple[str, int], username: str, psk: bytes,
                 security: SecurityMode = SecurityMode.NONSECURE,
                 streams: int = 1, buffer_size: int = wire.DEFAULT_MAX_PAYLOAD,
                 chunk_size: int | None = None):
        self.address = address
        self.username = username
        self.psk = psk
        self.security = security
        self.streams = max(1, min(streams, 255))    # X_STREAMS is one byte
        self.buffer_size = buffer_size
        self.chunk_size = chunk_size

    def _control(self, mode: Mode) -> Channel:
        params = SessionParams(mode, self.security,
                               buffer_size=self.buffer_size,
                               stream_count=self.streams)
        return secchan.connect(self.address, params, self.username, self.psk)

    def _data(self, control: Channel, transfer_id: bytes,
              stream_index: int) -> Channel:
        params = SessionParams(control.params.mode, self.security,
                               buffer_size=control.params.buffer_size,
                               stream_count=control.params.stream_count)
        return secchan.connect(self.address, params, self.username, self.psk,
                               transfer_id=transfer_id,
                               stream_index=stream_index)

    def _run_streams(self, control: Channel, transfer_id: bytes, count: int,
                     body: Callable[[int, Channel], int]) -> list[int]:
        """Open `count` data connections and run `body(index, channel)` on
        each in its own thread; returns the byte count each body returned.
        Any failed stream raises StreamLost naming the first cause."""
        per_stream = [0] * count

        def run(index: int) -> None:
            data = self._data(control, transfer_id, index)
            try:
                per_stream[index] = body(index, data)
            finally:
                data.close()

        failures = [exc for exc in fan_out(run, count) if exc is not None]
        if failures:
            raise StreamLost(f"{len(failures)} data streams failed: "
                             f"{failures[0]}")
        return per_stream

    def _chunk_size(self, control: Channel) -> int:
        return min(self.chunk_size or self.buffer_size,
                   control.params.buffer_size)

    def push(self, local: Path, remote: str,
             region: tuple[int, int] | None = None) -> TransferReport:
        local = Path(local)
        if not local.is_file():
            raise NoSuchFile(f"{local} does not exist")
        return _with_retries(lambda: self._push_once(local, remote, region))

    def _push_once(self, local: Path, remote: str,
                   region: tuple[int, int] | None) -> TransferReport:
        control = self._control(Mode.FTSM_PUSH)
        try:
            return self.push_on(control, local, remote, region)
        finally:
            control.close()

    def push_on(self, control: Channel, local: Path, remote: str,
                region: tuple[int, int] | None = None) -> TransferReport:
        """Run one push over an already established control channel. The
        channel stays open afterwards; the caller owns it."""
        local = Path(local)
        file_size = local.stat().st_size
        offset, length = region if region is not None else (0, file_size)
        if offset + length > file_size:
            raise BadRequest("region lies outside the file")
        grid = ChunkGrid(offset, length, self.streams,
                         self._chunk_size(control))
        transfer_id = os.urandom(16)
        start = time.monotonic()
        offer = {X_TRANSFER: transfer_id, X_PATH: remote.encode("utf-8"),
                 **grid_fields(grid)}
        if region is None:
            # replace semantics: a shorter file must not keep the old tail
            offer[X_TRUNCATE] = wire.u8(1)
        control.send(FrameType.XFER_OFFER, wire.encode_fields(offer))
        reply = control.expect(FrameType.XFER_ACCEPT, FrameType.XFER_RESUME)
        resumed = reply.frame_type == FrameType.XFER_RESUME
        if resumed:
            fields = wire.decode_fields(reply.payload)
            state = TransferState(transfer_id, grid_from_fields(fields),
                                  bytearray(fields.get(X_BITMAP, b"")))
            assignments = assign_missing(state.grid, state.missing(),
                                         self.streams)
        else:
            assignments = grid.chunks_by_span()

        per_stream = self._run_senders(control, transfer_id, local,
                                       assignments)
        control.send(FrameType.XFER_DONE, wire.encode_fields({
            X_TRANSFER: transfer_id,
            X_MD5: md5_region(local, offset, length)}))
        control.expect(FrameType.XFER_DONE)
        return TransferReport(sum(per_stream), time.monotonic() - start,
                              per_stream, resumed)

    def _run_senders(self, control: Channel, transfer_id: bytes, local: Path,
                     assignments: list[list[tuple[int, int]]]) -> list[int]:
        return self._run_streams(
            control, transfer_id, len(assignments),
            lambda index, data: send_chunks(data, transfer_id, index, local,
                                            assignments[index]))

    def pull(self, remote: str, local: Path,
             region: tuple[int, int] | None = None) -> TransferReport:
        local = Path(local)
        return _with_retries(lambda: self._pull_once(remote, local, region))

    def _pull_once(self, remote: str, local: Path,
                   region: tuple[int, int] | None) -> TransferReport:
        control = self._control(Mode.FTSM_PULL)
        try:
            return self.pull_on(control, remote, local, region)
        finally:
            control.close()

    def pull_on(self, control: Channel, remote: str, local: Path,
                region: tuple[int, int] | None = None) -> TransferReport:
        """Run one pull over an already established control channel. The
        channel stays open afterwards; the caller owns it."""
        local = Path(local)
        chunk_size = self._chunk_size(control)
        start = time.monotonic()
        state = load_state(local)
        transfer_id = os.urandom(16)
        offer = {
            X_TRANSFER: transfer_id,
            X_PATH: remote.encode("utf-8"),
            X_STREAMS: wire.u8(self.streams),
            X_CHUNK_SIZE: wire.u32(chunk_size),
        }
        if region is not None:
            offer[X_REGION_OFFSET] = wire.u64(region[0])
            offer[X_REGION_LENGTH] = wire.u64(region[1])
        if state is not None:
            # only reuse state that matches what we are asking for now
            if state.grid.chunk_size == chunk_size and (
                    region is None or
                    (state.grid.region_offset, state.grid.region_length)
                    == region):
                offer.update(grid_fields(state.grid))
                offer[X_BITMAP] = bytes(state.bitmap)
            else:
                state_path(local).unlink(missing_ok=True)
                state = None
        resumed = state is not None
        control.send(FrameType.XFER_OFFER, wire.encode_fields(offer))
        grid = grid_from_fields(wire.decode_fields(
            control.expect(FrameType.XFER_ACCEPT).payload))
        end = grid.region_offset + grid.region_length
        receiver = RegionReceiver(local, transfer_id, grid, state,
                                  truncate_to=end if region is None
                                  else None)
        try:
            # an empty region has nothing to send: no data connections
            per_stream = self._run_receivers(control, transfer_id, receiver) \
                if grid.region_length else []
            control.send(FrameType.XFER_DONE,
                         wire.encode_fields({X_TRANSFER: transfer_id}))
            done = wire.decode_fields(
                control.expect(FrameType.XFER_DONE).payload)
            receiver.finish(done.get(X_MD5, b""))
        finally:
            receiver.abort()    # a no-op once finish has closed the file
        return TransferReport(sum(per_stream), time.monotonic() - start,
                              per_stream, resumed)

    def _run_receivers(self, control: Channel, transfer_id: bytes,
                       receiver: RegionReceiver) -> list[int]:
        per_stream = self._run_streams(
            control, transfer_id, self.streams,
            lambda index, data: receive_chunks(data, transfer_id, receiver))
        if not receiver.complete():
            raise StreamLost("streams drained but chunks are missing")
        return per_stream

    def bench_mem(self, seconds: float) -> TransferReport:
        """Zero generator to discarding sink: protocol throughput with no
        disk at either end."""
        transfer_id = os.urandom(16)
        start = time.monotonic()
        control = self._control(Mode.FTSM_PUSH)
        try:
            chunk_size = self._chunk_size(control)
            control.send(FrameType.XFER_OFFER, wire.encode_fields({
                X_TRANSFER: transfer_id,
                X_SINK: wire.u8(SINK_MEM),
                X_STREAMS: wire.u8(self.streams),
                X_CHUNK_SIZE: wire.u32(chunk_size),
            }))
            control.expect(FrameType.XFER_ACCEPT)
            deadline = start + seconds
            zeros = bytes(chunk_size)

            def flood(index: int, data: Channel) -> int:
                # synthetic offsets keep each stream in a private range
                sent = 0
                while time.monotonic() < deadline:
                    data.send(FrameType.CHUNK,
                              pack_chunk(transfer_id, index,
                                         (index << 48) + sent, zeros))
                    sent += chunk_size
                return sent

            per_stream = self._run_streams(control, transfer_id, self.streams,
                                           flood)
            control.send(FrameType.XFER_DONE, wire.encode_fields({
                X_TRANSFER: transfer_id,
                X_TOTAL: wire.u64(sum(per_stream)),
            }))
            done = wire.decode_fields(
                control.expect(FrameType.XFER_DONE).payload)
            total = wire.read_uint(done, X_TOTAL, 0)
            return TransferReport(total, time.monotonic() - start, per_stream)
        finally:
            control.close()
