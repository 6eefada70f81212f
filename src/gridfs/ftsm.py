"""Parallel-stream file transfer with resume and end-to-end integrity.

Each transfer has one sending end, a `RegionSender`, and one receiving
end, a `RegionReceiver` (or, in the memory benchmark, a `MemSink`), and
either side of a connection holds either end: on a push the client sends
and the node receives, on a pull the node sends and the client receives.

A transfer is negotiated on the authenticated control connection
(XFER_OFFER / XFER_ACCEPT, or XFER_RESUME when a pushing node holds a
sidecar that continues the offer), then the bytes travel over N streams.
Stream 0 rides the control connection itself, between the reply and
XFER_DONE; streams 1..N-1 each open an FTSM session of their own, in the
transfer's direction, that joins the transfer with XFER_JOIN(transfer_id,
stream_index), so a single-stream transfer opens no second session at
all. The planned region is ceiling-split into N
contiguous spans, one per stream, and each span is sent as sequential
CHUNK frames:

    transfer_id(16) | stream_index(1) | offset(8 BE) | length(4 BE) | payload

Offsets are absolute file offsets; the receiver writes each payload at
exactly its offset, so any interleaving of streams reassembles the same
bytes. The sender's XFER_DONE carries the region digest under
X_REGION_DIGEST: DIGEST (SHA-256) over one entry per chunk in ordinal
order, a hash list like the pieces of BitTorrent v2 (BEP 52). Each byte
moved is checked once. A chunk that moves in this session takes its
entry from the frame that carried it, on both sides: under SECURE the
frame's AEAD tag (see secchan), which the receiver's open has already
checked, so neither side hashes it; in the clear modes, whose CHUNKs
nothing else checks, the DIGEST of its bytes, which the sender takes
from the frame it sends and the receiver from the payload it lands. A
chunk that does not move in this session is read back from disk and
hashed, one at a time: on the receiver those that landed in an earlier
session of a resumed transfer, on the sender those a resume does not
send again. Each side reads them on stream 0's thread before its first
chunk, while the other streams run. A source whose stat changes while
the streams run is hashed again from disk, so a torn copy fails; under
SECURE such a region fails even if its bytes did not change, as a hash
never equals a tag, and the client's retry sends it afresh. The first
delivery of a chunk wins, so no duplicate replaces bytes whose entry is
taken. An XFER_DONE without X_REGION_DIGEST is refused with BadRequest
and not retried.
Each sending stream reads its chunks into one reused frame buffer, the
29-byte header packed in front of the payload, and a receiving channel
reads frames into one reused buffer too (see secchan.Channel), so a chunk
is copied once on its way from the socket to its pwrite.

The receiver flushes behind its writes: each time WRITE_BEHIND bytes
have landed since it last did, the chunk that crossed the mark calls
`start_writeback` on the file (sync_file_range with
SYNC_FILE_RANGE_WRITE where libc has it), which queues the dirty pages
for writing and does not wait for them. So by XFER_DONE most of a large
region is on its way to disk, and the fsync in `RegionReceiver.finish`
waits only for the rest. That fsync still comes before the digest check
and before any acknowledgement: a pushing node answers XFER_DONE, and a
pull returns, only once the whole region is on disk. A region under
WRITE_BEHIND leaves all its flushing to that fsync.

A whole-file transfer replaces the destination (the offer carries a
truncate flag, so a shorter file drops any stale tail); an explicit
region only ever touches its own byte range.

The receiver persists progress beside the destination in `<dst>.xferstate`:
the transfer geometry plus a chunk-granularity bitmap, replaced atomically
on the first chunk, then at most once per SIDECAR_INTERVAL, and once more
when the receiver is dropped short of a verified finish. Data lands before
its mark, so a sidecar never claims an unwritten chunk; a receiving
process killed outright loses at most one interval of marks, and those
chunks are sent again. An interrupted transfer resumes from the
sidecar — the original chunk grid is preserved and only missing chunks are
resent, round-robin across however many streams the resuming session opens.
The sidecar is removed once every chunk has landed, whether or not the
digest then matches: a complete sidecar has nothing left to resume, so the
sender's retry starts afresh. A transfer whose bitmap would not fit one
frame at the session's buffer size could never resume, so its offer is
refused before any chunk is enumerated. Likewise a resume record is
refused unless its bitmap is as long as its geometry's chunk count,
worked out without enumerating a chunk, so a record never names more
chunks than the frame or sidecar that carried it has bits.

The node alone decides whether a sidecar continues a transfer, in both
directions, by one rule (`continues`: the same region in the same chunk
size as the grid it plans now). The sidecar's record travels in its own
encoding under X_STATE. On a push the node holds the sidecar: it answers
a continuing offer with XFER_RESUME and the record, and deletes any other
sidecar. On a pull the client holds it: the offer carries the request as
the caller made it plus the record, the node plans from the request and
the file as it is now, and it continues the record only if the rule
holds; otherwise it plans afresh, and the client, seeing another grid in
XFER_ACCEPT, deletes its sidecar. So a pull whose remote file changed
size since the record was written receives the whole new file.

A memory-to-memory mode (zero generator into a discarding sink) drives the
identical protocol path with no disk at either end, for measuring raw
protocol throughput.

A data stream is an ordinary authenticated FTSM session whose first
request is XFER_JOIN; the node attaches it to the transfer before it
answers with XFER_JOIN, and the sender sends no chunk before that answer
and no XFER_DONE before its data sessions have closed. So on XFER_DONE
the receiving node waits only until every joined stream has drained and
detached; whatever the region then lacks was never sent, and the push is
refused at once. The chunks of stream 0 need no such wait: they precede
XFER_DONE on the same connection, and the node lands each one as it
reads it. A joined session ends with its stream.

A join is admitted only with the transfer's id, security mode and owner,
and in its direction: an FTSM_PUSH session joins a push, an FTSM_PULL
session a pull. A pushing node takes CHUNK frames on the control
connection, and a joined stream for any stream index. A pulling node
sends stream 0's share of its plan (`sender_plan`, which the client
computes too) on the control connection, and admits joins only for
streams 1..n-1.

The node serves offers on a control session one after another until the
client hangs up, so a client keeps its authenticated session between
transfers: `TransferClient` holds one idle session per direction, so a
run of pushes and pulls to one node dials and authenticates once per
direction.
"""

from __future__ import annotations

import errno
import hashlib
import logging
import os
import struct
import threading
import time
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path

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
    StreamLost,
)
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import Frame, FrameType, Mode, SecurityMode, SessionParams

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
# tag 7 (X_MD5) is retired: it carried the region's MD5; do not reuse it
# tag 8 (XFER_DONE's status code, which no peer read) is retired; do not
# reuse it
# tag 9 (a resume bitmap beside the grid fields) is retired; do not reuse it
X_SINK = 10
X_TOTAL = 11
X_TRUNCATE = 12      # whole-file transfer: drop any stale tail on finish
# tag 13 (X_CONTROL_STREAM, stream 0 on control) is retired; do not reuse it
# tag 14 (X_SHA256, DIGEST of the region's bytes) is retired; do not reuse it
X_REGION_DIGEST = 15    # XFER_DONE: DIGEST over the chunk digests
X_STATE = 16    # XFER_RESUME, a resuming pull's XFER_OFFER: the sidecar record

SINK_FILE = 0
SINK_MEM = 1

# the transfer digest: of each chunk, and of the region over its chunks'
# digests
DIGEST = hashlib.sha256

# a pull offer without a region length asks for everything from its offset
WHOLE_REST = 2**64 - 1

# client re-offers after a lost stream or connection or a digest mismatch,
# and the pause before the first one; the pause doubles on each further
# re-offer
RETRIES = 3
BACKOFF = 0.25

# a receiver replaces its sidecar at most once per this many seconds
SIDECAR_INTERVAL = 0.05

# a receiver starts writeback of its file each time this many bytes have
# landed since it last did
WRITE_BEHIND = 4 << 20

# room an XFER_RESUME, or a resuming pull XFER_OFFER, needs beside its
# record's bitmap: the record's other fields, the frame's other fields, a
# path and an AEAD tag
BITMAP_MARGIN = 512


def pack_chunk(transfer_id: bytes, stream_index: int, offset: int,
               payload: bytes) -> bytes:
    return CHUNK_HEADER.pack(transfer_id, stream_index, offset,
                             len(payload)) + payload


def unpack_chunk(raw: bytes) -> tuple[bytes, int, int, memoryview]:
    """Split a CHUNK payload; the chunk's bytes come back as a view of
    `raw`, not a copy."""
    if len(raw) < CHUNK_HEADER.size:
        raise BadRequest("short chunk frame")
    transfer_id, stream_index, offset, length = \
        CHUNK_HEADER.unpack_from(raw)
    payload = memoryview(raw)[CHUNK_HEADER.size:]
    if len(payload) != length:
        raise BadRequest("chunk length field disagrees with payload")
    return transfer_id, stream_index, offset, payload


def chunk_digest(data: bytes | memoryview) -> bytes:
    digest = DIGEST()
    digest.update(data)
    return digest.digest()


def disk_digests(path: Path,
                 chunks: list[tuple[int, int]]) -> dict[int, bytes]:
    """The DIGEST of each (offset, length) chunk of `path`, by offset, read
    back one chunk at a time; a chunk cut short on disk hashes short, so
    it fails the region digest."""
    if not chunks:
        return {}
    with open(path, "rb", buffering=0) as handle:
        return {offset: chunk_digest(os.pread(handle.fileno(), length,
                                              offset))
                for offset, length in chunks}


def md5_region(path: Path, grid: ChunkGrid,
               digests: Mapping[int, bytes]) -> bytes:
    """The region digest of `grid`: DIGEST over each chunk's hash-list
    entry, in ordinal order. `digests` holds entries by offset; any chunk
    it lacks is read back from `path` and hashed. The name predates the
    hash list and stays until the benchmark's span list, which wraps this
    function by name, is renamed with it."""
    read = disk_digests(path, [chunk for chunk in grid._chunks
                               if chunk[0] not in digests])
    region = DIGEST()
    for offset, _ in grid._chunks:
        region.update(digests.get(offset) or read[offset])
    return region.digest()


def pwrite_all(fd: int, data: bytes, offset: int) -> None:
    """Write all of `data` to `fd` at `offset`, carrying on after a short
    write; a write that makes no progress raises OSError, so no caller
    mistakes a partial write for a whole one."""
    view = memoryview(data)
    while view:
        written = os.pwrite(fd, view, offset)
        if written <= 0:
            raise OSError(errno.EIO, f"short write: {len(view)} bytes of "
                                     f"{len(data)} unwritten at {offset}")
        view = view[written:]
        offset += written


SYNC_FILE_RANGE_WRITE = 2    # <linux/fs.h>


def _skip_writeback(fd: int) -> None:
    """Where libc has no sync_file_range: the fsync at finish flushes
    everything."""


def writeback_from(libc: object) -> Callable[[int], None]:
    """The `start_writeback` that `libc` supports: sync_file_range with
    SYNC_FILE_RANGE_WRITE over the whole file, which queues the file's
    dirty pages for writing and returns without waiting for them, as
    PostgreSQL's `*_flush_after` and RocksDB's `bytes_per_sync` do; or
    `_skip_writeback` where `libc` lacks it. A failed call is ignored: it
    only leaves more for the fsync."""
    call = getattr(libc, "sync_file_range", None)
    if call is None:
        return _skip_writeback
    import ctypes
    call.argtypes = (ctypes.c_int, ctypes.c_int64, ctypes.c_int64,
                     ctypes.c_uint)
    call.restype = ctypes.c_int

    def start_writeback(fd: int) -> None:
        call(fd, 0, 0, SYNC_FILE_RANGE_WRITE)

    return start_writeback


@cache
def _libc_writeback() -> Callable[[int], None]:
    import ctypes
    return writeback_from(ctypes.CDLL(None))


def start_writeback(fd: int) -> None:
    """Start writeback of `fd` by `writeback_from` this process's libc,
    which `ctypes` loads and resolves on the first call and not before:
    a process that never lands WRITE_BEHIND bytes never loads it."""
    _libc_writeback()(fd)


def _stamp(path: Path) -> tuple[int, int, int, int]:
    stat = os.stat(path)
    return stat.st_ino, stat.st_size, stat.st_mtime_ns, stat.st_ctime_ns


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

    @property
    def chunk_count(self) -> int:
        """The number of chunks, worked out without enumerating one: every
        span is a full ceil-split share but the last."""
        if self.region_length == 0:
            return 0
        share = -(-self.region_length // self.stream_count)
        full, rest = divmod(self.region_length, share)
        return (full * -(-share // self.chunk_size) +
                -(-rest // self.chunk_size))

    @cached_property
    def _full_bitmap(self) -> bytes:
        """The resume bitmap of a complete transfer."""
        whole, tail = divmod(self.chunk_count, 8)
        return b"\xff" * whole + (bytes([(1 << tail) - 1]) if tail else b"")

    def chunks(self) -> list[tuple[int, int]]:
        """All (offset, length) chunks in ordinal order, as a new list."""
        return list(self._chunks)

    def chunks_by_span(self) -> list[list[tuple[int, int]]]:
        return [list(group) for group in self._by_span]

    def check_resumable(self, buffer_size: int) -> None:
        """Refuse, without enumerating a chunk, a grid whose resume bitmap
        would not fit one frame at the negotiated `buffer_size`."""
        count = self.chunk_count
        limit = 8 * (buffer_size - BITMAP_MARGIN)
        if count > limit:
            raise BadRequest(f"{count} chunks exceed the {limit} a resume "
                             f"bitmap can carry at buffer size {buffer_size}")


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
        # the bitmap's length bounds the chunks any later step enumerates
        if (len(state.bitmap) != -(-grid.chunk_count // 8) or
                len(state.transfer_id) != 16):
            raise StateCorrupt("transfer state disagrees with its geometry")
        full = grid._full_bitmap
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


def readable_state(dst: Path) -> TransferState | None:
    """The sidecar beside `dst`, or None if there is none or it cannot be
    trusted; an untrusted one is deleted with a warning."""
    try:
        return load_state(dst)
    except StateCorrupt:
        log.warning("discarding corrupt transfer state next to %s", dst.name)
        state_path(dst).unlink(missing_ok=True)
        return None


def continues(state: TransferState | None, grid: ChunkGrid) -> bool:
    """Whether the resume record `state` continues the transfer the node
    plans now, `grid`: the same region in the same chunk size. The record
    keeps its own stream count, which is geometry. The node alone decides
    this, for a push and a pull alike."""
    return state is not None and (
        state.grid.region_offset, state.grid.region_length,
        state.grid.chunk_size) == (
        grid.region_offset, grid.region_length, grid.chunk_size)


def resumable_state(dst: Path, grid: ChunkGrid) -> TransferState | None:
    """The sidecar beside `dst` if it `continues` `grid`; any other
    sidecar is deleted."""
    state = readable_state(dst)
    if continues(state, grid):
        return state
    # a different transfer's remnant, or none: nothing to resume
    state_path(dst).unlink(missing_ok=True)
    return None


def sender_plan(grid: ChunkGrid, state: TransferState | None,
                streams: int) -> list[list[tuple[int, int]]]:
    """The chunks each stream carries: the grid span by span, or, given
    the receiver's resume record, its missing chunks dealt over the
    `streams` the session opens (the grid's stream count is then the
    record's geometry). A pushing client and a pulling node send by this
    plan, and a pulling client reads stream 0's share of it on the control
    session."""
    if state is None:
        return grid.chunks_by_span()
    return assign_missing(grid, state.missing(), streams)


def earlier_chunks(grid: ChunkGrid,
                   state: TransferState | None) -> list[tuple[int, int]]:
    """The chunks of `grid` that an earlier session landed, by the resume
    record `state`: the chunks `sender_plan` gives no stream, which each
    end reads back from its file to fold the region digest."""
    if state is None:
        return []
    return [chunk for k, chunk in enumerate(grid._chunks) if state.has(k)]


# -- receiving end (either side, depending on direction) --------------------

class RegionReceiver:
    """Writes validated chunks at their absolute offsets, keeps each
    chunk's hash-list entry as it lands, and records progress in the
    sidecar.

    The first delivery of a chunk wins: a chunk whose ordinal has landed,
    or is being written at that moment, is dropped unwritten and
    unhashed, so landed bytes never change under their digest. The
    chunks that landed in an earlier session of a resumed transfer are
    read back from the file by `hash_earlier`, which the thread of
    stream 0 calls before its first chunk, beside the other streams.
    `finish` folds the chunk digests into the region digest, reading back
    only a chunk that has none.

    Each time WRITE_BEHIND bytes have landed since the last time, the
    chunk that crossed the mark starts writeback of the file
    (`start_writeback`), outside the lock, on the descriptor its pwrite
    used, and does not wait for it. `finish` still fsyncs the file before
    the fold, so its caller acknowledges only a region that is on disk;
    the writeback only leaves that fsync less to wait for.

    The sidecar is replaced on the first chunk, then at most once per
    SIDECAR_INTERVAL, and once more, if any chunk landed since, when the
    receiver is dropped short of a verified finish (`abort`, or `finish`
    of an incomplete region). Data lands before the bitmap marks it, so a
    sidecar never claims unwritten bytes; a process killed outright loses
    at most one interval of marks, and those chunks are sent again."""

    def __init__(self, dst: Path, transfer_id: bytes, grid: ChunkGrid,
                 state: TransferState | None = None,
                 truncate_to: int | None = None):
        self.dst = Path(dst)
        self.grid = grid
        self.state = state or TransferState.fresh(transfer_id, grid)
        self.truncate_to = truncate_to
        self._lock = threading.Lock()
        self._saved_at: float | None = None   # monotonic, last sidecar write
        self._unsaved = False                 # marks made since then
        self._unflushed = 0                   # bytes landed since writeback
        self._writing: set[int] = set()       # ordinals being written now
        self._digests: dict[int, bytes] = {}  # by offset
        self._earlier = earlier_chunks(grid, state)
        self.state.transfer_id = transfer_id
        self.dst.parent.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(self.dst, os.O_RDWR | os.O_CREAT, 0o644)

    def write_chunk(self, offset: int, payload: bytes | memoryview,
                    digest: bytes | None = None) -> None:
        """Land one chunk, with `digest` as its hash-list entry: the AEAD
        tag of the sealed frame that carried it, or, given None, the
        DIGEST of `payload`, taken after the pwrite."""
        ordinal = self.grid._ordinals.get(offset)
        if ordinal is None or \
                self.grid._chunks[ordinal][1] != len(payload):
            raise BadRequest("chunk does not lie on the transfer grid")
        with self._lock:
            if self.state.has(ordinal) or ordinal in self._writing:
                return     # a duplicate: the first delivery wins
            self._writing.add(ordinal)
        fd = self._fd
        try:
            pwrite_all(fd, payload, offset)
            if digest is None:
                digest = chunk_digest(payload)
        except BaseException:
            with self._lock:
                self._writing.discard(ordinal)
            raise
        with self._lock:
            self._writing.discard(ordinal)
            self._digests[offset] = digest
            self.state.mark(ordinal, len(payload))
            self._unsaved = True
            if self._saved_at is None or \
                    time.monotonic() - self._saved_at >= SIDECAR_INTERVAL:
                self._save()
            self._unflushed += len(payload)
            flush = self._unflushed >= WRITE_BEHIND
            if flush:
                self._unflushed = 0
        if flush:
            start_writeback(fd)

    def hash_earlier(self) -> None:
        """Hash the chunks of an earlier session, read back from the
        file."""
        digests = disk_digests(self.dst, self._earlier)
        with self._lock:
            self._digests.update(digests)

    def _save(self) -> None:
        """Replace the sidecar; the caller holds the lock."""
        save_state(self.dst, self.state)
        self._saved_at = time.monotonic()
        self._unsaved = False

    def _save_unsaved(self) -> None:
        with self._lock:
            if self._unsaved:
                self._save()

    def complete(self) -> bool:
        with self._lock:
            return self.state.complete()

    def finish(self, expected: bytes) -> int:
        """Verify the region against the sender's digest. A complete region
        drops its sidecar, match or not: resuming it would send nothing
        and fail the same way."""
        try:
            if self.truncate_to is not None:
                # whole-file transfer over a longer predecessor
                os.ftruncate(self._fd, self.truncate_to)
            os.fsync(self._fd)
            actual = (md5_region(self.dst, self.grid, self._digests)
                      if self.complete() else None)
        finally:
            os.close(self._fd)
            self._fd = -1
        if actual is None:
            self._save_unsaved()
            raise IncompleteTransfer(
                f"{len(self.state.missing())} chunks never arrived")
        with self._lock:
            self._unsaved = False    # the sidecar goes, and stays gone
        state_path(self.dst).unlink(missing_ok=True)
        if actual != expected:
            raise IntegrityMismatch("region digest differs from sender's")
        return self.state.total_received

    def abort(self) -> None:
        """Drop the receiver: record the chunks landed since the last
        sidecar write, unless `finish` verified the region, and close the
        file."""
        self._save_unsaved()
        if self._fd >= 0:
            os.close(self._fd)
            self._fd = -1


class MemSink:
    """Discarding receiver for the memory-to-memory benchmark. It finishes
    only if it counted the byte total the sender claims."""

    def __init__(self):
        self._lock = threading.Lock()
        self.total_received = 0
        self.claimed: int | None = None    # X_TOTAL of the sender's DONE

    def write_chunk(self, offset: int, payload: bytes | memoryview,
                    digest: bytes | None = None) -> None:
        with self._lock:
            self.total_received += len(payload)

    def finish(self, expected: bytes) -> int:
        with self._lock:
            received = self.total_received
        if received != self.claimed:
            raise IntegrityMismatch(
                f"sink counted {received} bytes, sender claims {self.claimed}")
        return received

    def hash_earlier(self) -> None:
        pass

    def abort(self) -> None:
        pass


# -- sending end (either side, depending on direction) ----------------------

class RegionSender:
    """Sends the chunks of `src` by `sender_plan`, keeps the hash-list
    entry `send_chunks` returns for each chunk, and folds the region
    digest.

    `send(index, channel)` sends stream `index`'s share, `assignments[index]`,
    and stores its entries in that stream's own slot, so no two streams
    write one object. The chunks that an earlier session of a resumed
    transfer landed at the receiver are sent by no stream; `hash_earlier`
    reads them back from `src`, and the thread of stream 0 calls it before
    its first chunk, beside the other streams. `digest` folds the entries
    once every stream has returned. The stat of `src` is taken when the
    sender is made: if it differs at `digest`, the whole region is hashed
    from what the file holds then instead, so a copy torn by the change
    fails, and under SECURE, whose entries were tags, any such copy."""

    def __init__(self, src: Path, transfer_id: bytes, grid: ChunkGrid,
                 state: TransferState | None, streams: int):
        self.src = src
        self.transfer_id = transfer_id
        self.grid = grid
        self.assignments = sender_plan(grid, state, streams)
        self._earlier = earlier_chunks(grid, state)
        self._before = _stamp(src)
        self._sent: list[list[bytes]] = [[] for _ in self.assignments]
        self._read: dict[int, bytes] = {}    # the earlier chunks, by offset

    def send(self, index: int, channel: Channel) -> None:
        self._sent[index] = send_chunks(channel, self.transfer_id, index,
                                        self.src, self.assignments[index])

    def hash_earlier(self) -> None:
        """Hash the chunks of an earlier session, read back from `src`."""
        self._read = disk_digests(self.src, self._earlier)

    def digest(self) -> bytes:
        """The region digest, to be taken once every stream has returned."""
        if _stamp(self.src) != self._before:
            return md5_region(self.src, self.grid, {})
        digests = dict(self._read)
        for chunks, sent in zip(self.assignments, self._sent):
            digests.update(zip((offset for offset, _ in chunks), sent))
        return md5_region(self.src, self.grid, digests)


# -- streams, both directions -----------------------------------------------

def send_chunks(channel: Channel, transfer_id: bytes, stream_index: int,
                src: Path, chunks: list[tuple[int, int]]) -> list[bytes]:
    """Send each (offset, length) chunk of `src` as a CHUNK frame; returns
    each chunk's hash-list entry, in the order of `chunks`: the AEAD tag
    of its sealed frame, or, for a clear frame, its DIGEST. Every chunk
    is read into one buffer, behind its header, and sent from there; a
    clear one is hashed there after it is sent."""
    head = CHUNK_HEADER.size
    frame = bytearray(head + max((length for _, length in chunks), default=0))
    view = memoryview(frame)
    digests = []
    with open(src, "rb") as handle:
        for offset, length in chunks:
            payload = view[head:head + length]
            if os.preadv(handle.fileno(), [payload], offset) != length:
                raise StreamLost("source shrank mid-transfer")
            CHUNK_HEADER.pack_into(frame, 0, transfer_id, stream_index,
                                   offset, length)
            tag = channel.send(FrameType.CHUNK, view[:head + length])
            digests.append(tag or chunk_digest(payload))
    return digests


def land_chunk(frame: Frame, transfer_id: bytes, receiver) -> int:
    """Hand one CHUNK frame's payload, and its AEAD tag if it was sealed,
    to `receiver.write_chunk`; returns its payload bytes."""
    chunk_transfer, _, offset, data = unpack_chunk(frame.payload)
    if chunk_transfer != transfer_id:
        raise BadRequest("chunk for a different transfer")
    receiver.write_chunk(offset, data, frame.tag)
    return len(data)


def done_digest(fields: dict[int, bytes]) -> bytes:
    """The region digest an XFER_DONE carries; one without
    X_REGION_DIGEST is refused, since it cannot be verified and a re-offer
    would fail too."""
    digest = fields.get(X_REGION_DIGEST)
    if digest is None:
        raise BadRequest("XFER_DONE carries no SHA-256 region digest "
                         f"(tag {X_REGION_DIGEST})")
    return digest


def receive_chunks(channel: Channel, transfer_id: bytes, receiver,
                   count: int | None = None) -> int:
    """Hand each CHUNK frame to `receiver.write_chunk` until the peer
    closes the connection, or, given `count`, for exactly that many
    frames; returns the payload bytes received. An ERROR frame raises the
    peer's error."""
    received = 0
    while count is None or count > 0:
        try:
            frame = channel.expect(FrameType.CHUNK)
        except ConnectionLost:
            if count is not None:
                raise
            return received
        received += land_chunk(frame, transfer_id, receiver)
        if count is not None:
            count -= 1
    return received


def fan_out(work: Callable[[int], object], count: int,
            inline: bool = False) -> list[BaseException | None]:
    """Run `work(0)` … `work(count - 1)`, each on its own thread, and wait
    for all of them; with `inline`, `work(0)` runs on the calling thread
    instead, beside the others. Returns, per index, the exception that
    ended that call, or None if it returned; only a KeyboardInterrupt or
    other non-Exception raised by the inline call propagates, at once."""
    failures: list[BaseException | None] = [None] * count

    def run(index: int) -> None:
        try:
            work(index)
        except BaseException as exc:    # reported to the caller, who decides
            failures[index] = exc

    first = 1 if inline else 0
    threads = [threading.Thread(target=run, args=(index,), daemon=True)
               for index in range(first, count)]
    for thread in threads:
        thread.start()
    if inline and count:
        try:
            work(0)
        except Exception as exc:
            failures[0] = exc
    for thread in threads:
        thread.join()
    return failures


# -- server side ------------------------------------------------------------

class TransferSession:
    """Server-side rendezvous record joining control and data connections.
    It holds the node's end of the transfer, one of the two: on a push
    the receiving end (`receiver`, a RegionReceiver or MemSink), on a pull
    the sending end (`sender`, a RegionSender); which one it holds says
    which way the transfer runs. Only joined streams attach: stream 0's
    chunks on the control connection are handled by the thread that
    serves it."""

    def __init__(self, transfer_id: bytes, account: Account,
                 security: SecurityMode, receiver=None,
                 sender: RegionSender | None = None):
        self.transfer_id = transfer_id
        self.account = account
        self.security = security
        self.receiver = receiver
        self.sender = sender
        self._cond = threading.Condition()
        self._active = 0

    def attach(self) -> None:
        with self._cond:
            self._active += 1

    def detach(self) -> None:
        with self._cond:
            self._active -= 1
            self._cond.notify_all()

    def wait_quiesce(self, timeout: float) -> None:
        """Block until no joined stream is attached, or `timeout`
        expires. A stream attaches before the node answers its XFER_JOIN,
        and its sender sends no chunk before that answer, so once none is
        attached, none has a chunk in flight."""
        with self._cond:
            self._cond.wait_for(lambda: self._active == 0, timeout)


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
    """Handles FTSM sessions: control sessions, and the data sessions
    that join their transfers.

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
        """Serve a session in FTSM_PUSH mode (the peer sends, this node
        receives) or FTSM_PULL mode: one offer at a time, or the one stream
        that an XFER_JOIN joins."""
        answer = {FrameType.XFER_OFFER: self.offer,
                  FrameType.XFER_JOIN: self.join}
        channel.serve(lambda frame: answer[frame.frame_type](
            channel, account, mode, frame.payload), *answer)

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
            grid.check_resumable(channel.params.buffer_size)
            end = grid.region_offset + grid.region_length
            whole_file = bool(wire.read_uint(fields, X_TRUNCATE, 0))
            state = resumable_state(dst, grid)
            if state is not None:
                grid = state.grid
                frame_type = FrameType.XFER_RESUME
                reply = {X_STATE: state.encode()}
            receiver = RegionReceiver(dst, transfer_id, grid, state,
                                      truncate_to=end if whole_file else None)
        session = TransferSession(transfer_id, account,
                                  channel.params.security, receiver=receiver)
        self._register_and_reply(channel, session, frame_type, reply)
        self._finish_push(channel, session)

    def _finish_push(self, channel: Channel,
                     session: TransferSession) -> None:
        receiver = session.receiver
        try:
            receiver.hash_earlier()    # beside the data connections
            # stream 0's chunks, if the sender put them on this session,
            # arrive before XFER_DONE and land as they are read
            frame = channel.expect(FrameType.CHUNK, FrameType.XFER_DONE)
            while frame.frame_type == FrameType.CHUNK:
                land_chunk(frame, session.transfer_id, receiver)
                frame = channel.expect(FrameType.CHUNK, FrameType.XFER_DONE)
            fields = wire.decode_fields(frame.payload)
            if isinstance(receiver, MemSink):
                receiver.claimed = wire.read_uint(fields, X_TOTAL, 0)
                expected = b""
            else:
                expected = done_digest(fields)
            # the sender closed its data connections before XFER_DONE:
            # once they have drained, every chunk it sent has landed
            session.wait_quiesce(self.drain_timeout)
            total = receiver.finish(expected)
        except BaseException as exc:
            # let the data connections still joined land their chunks
            # before the file closes; a vanished sender keeps its sidecar
            session.wait_quiesce(min(5.0, self.drain_timeout))
            if isinstance(exc, ConnectionLost):
                return
            if isinstance(exc, OSError):
                raise StreamLost(f"local file error: {exc}") from None
            raise
        finally:
            self.registry.remove(session.transfer_id)
            receiver.abort()    # a no-op once finish has closed the file
        channel.send(FrameType.XFER_DONE, wire.encode_fields({
            X_TRANSFER: session.transfer_id, X_TOTAL: wire.u64(total)}))

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
        grid.check_resumable(channel.params.buffer_size)
        record = fields.get(X_STATE)
        state = None if record is None else TransferState.decode(record)
        if continues(state, grid):
            grid = state.grid
        else:
            state = None    # the puller sees a new grid and starts afresh
        sender = RegionSender(src, transfer_id, grid, state,
                              channel.params.stream_count)
        session = TransferSession(transfer_id, account,
                                  channel.params.security, sender=sender)
        self._register_and_reply(channel, session, FrameType.XFER_ACCEPT,
                                 grid_fields(grid))
        try:
            # beside the data connections, before stream 0's chunks
            sender.hash_earlier()
            if sender.assignments:
                sender.send(0, channel)
            # the client sends XFER_DONE once every stream has drained, so
            # every stream's digests are stored by now
            channel.expect(FrameType.XFER_DONE)
            digest = sender.digest()
        except ConnectionLost:
            return
        except OSError as exc:
            raise StreamLost(f"local file error: {exc}") from None
        finally:
            self.registry.remove(transfer_id)
        channel.send(FrameType.XFER_DONE, wire.encode_fields({
            X_TRANSFER: transfer_id, X_REGION_DIGEST: digest}))

    # data sessions: XFER_JOIN

    def join(self, channel: Channel, account: Account, mode: Mode,
             payload: bytes) -> None:
        """Admit this session to a live transfer as one of its streams,
        move that stream, and end the session: receive its chunks for a
        push, send its share for a pull. Only the transfer's id, security
        mode, owner and direction are admitted, and for a pull only
        streams 1..n-1 of its plan. The stream attaches before the reply,
        and detaches once it has moved."""
        transfer_id, stream_index = wire.parse_join(payload)
        session = self.registry.lookup(transfer_id)
        if session is None:
            raise BadRequest("unknown transfer")
        if channel.params.security != session.security:
            raise BadRequest("data connection security differs from the "
                             "control session")
        if account.username != session.account.username:
            raise BadRequest(
                "data connection user differs from the transfer owner")
        sender = session.sender
        if mode != (Mode.FTSM_PUSH if sender is None else Mode.FTSM_PULL):
            raise BadRequest(f"an {mode.name} session cannot join a "
                             f"{'push' if sender is None else 'pull'}")
        if sender is not None and \
                not 0 < stream_index < len(sender.assignments):
            raise BadRequest(f"pull stream {stream_index} takes no data "
                             "connection")
        session.attach()
        try:
            channel.send(FrameType.XFER_JOIN)
            if sender is not None:
                sender.send(stream_index, channel)
            else:
                receive_chunks(channel, transfer_id, session.receiver)
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


class StaleSession(ConnectionLost):
    """A held control session was lost before the node's first reply to
    the offer, as when the node closed it while it sat idle: nothing of
    the transfer ran."""


def _with_retries(attempt: Callable[[], TransferReport]) -> TransferReport:
    """Run `attempt`; after a lost stream or connection, or a digest
    mismatch (whose receiver has dropped its sidecar, so the next offer
    starts afresh), pause and run it again, at most RETRIES more times.
    A stale held session costs neither a pause nor a retry: the attempt
    runs again at once, on a freshly dialled session."""
    retry = 0
    while True:
        try:
            return attempt()
        except StaleSession:
            continue
        except (ConnectionLost, StreamLost, IntegrityMismatch):
            if retry == RETRIES:
                raise
            time.sleep(BACKOFF * 2 ** retry)
            retry += 1


class TransferClient:
    """Client engine for push, pull and the memory benchmark.

    Transient stream failures are retried with doubling backoff; each
    retry re-offers the transfer, so completed chunks are never resent.
    The node decides whether a transfer resumes, in both directions: a
    push's XFER_RESUME carries the node's sidecar record, and a pull's
    offer carries the client's, which the node continues or replaces by a
    fresh plan (see `pull_on`). A record travels as the sidecar's own
    bytes (`TransferState.encode`), and its reader checks the bitmap
    against the geometry, so a bad record raises StateCorrupt.

    The client holds at most one idle authenticated control session per
    mode (FTSM_PUSH, FTSM_PULL), so a run of transfers to one node
    dials and authenticates once per mode. A transfer takes the held
    session out of the client under a lock, or dials one if none is
    held, and gives it back only when it ends normally; any exception
    closes it, an ERROR reply included. A held session that turns out
    to be dead before the node's first reply is dialled again at once,
    without backoff. A client used from several threads at once dials a
    session for each transfer that finds none held; when a second one
    comes back it is closed rather than kept. An idle held session keeps
    a connection, and a session thread, open on the node, and counts
    against the node's `max_sessions` until `close()` (or the end of a
    `with` block) closes it; the client stays usable, and dials anew.
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
        self._held: dict[Mode, Channel] = {}
        self._held_lock = threading.Lock()

    def close(self) -> None:
        """Close the held sessions. Idempotent."""
        with self._held_lock:
            held, self._held = list(self._held.values()), {}
        for control in held:
            control.close()

    def __enter__(self) -> "TransferClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _on_held(self, mode: Mode,
                 transfer: Callable[[Channel], TransferReport]
                 ) -> TransferReport:
        """Run `transfer` on the held session for `mode`, or on a new one,
        and hold the session afterwards if it ended normally."""
        with self._held_lock:
            control = self._held.pop(mode, None)
        reused = control is not None
        if control is None:
            control = self.dial(mode)
        replies = control.frames_received
        try:
            report = transfer(control)
        except BaseException as exc:
            control.close()
            if reused and isinstance(exc, ConnectionLost) \
                    and control.frames_received == replies:
                raise StaleSession(str(exc)) from exc
            raise
        with self._held_lock:
            if mode not in self._held:
                self._held[mode], control = control, None
        if control is not None:
            control.close()
        return report

    def dial(self, mode: Mode, transfer_id: bytes | None = None,
             stream_index: int = 0) -> Channel:
        """Open an authenticated control session in `mode` (task sessions
        dial through here too), or, given a transfer id, the session of one
        of that transfer's streams 1..n-1, joined to it; its `mode` is the
        transfer's direction."""
        params = SessionParams(mode, self.security,
                               buffer_size=self.buffer_size,
                               stream_count=self.streams)
        return secchan.connect(self.address, params, self.username, self.psk,
                               transfer_id=transfer_id,
                               stream_index=stream_index)

    def _run_streams(self, control: Channel, mode: Mode, transfer_id: bytes,
                     count: int, body: Callable[[int, Channel], object],
                     first: Callable[[], object] | None = None) -> list:
        """Run `body(index, channel)` for `count` streams at once: stream 0
        on `control` in this thread, each other stream on a data session of
        its own, dialled in `mode`, the transfer's direction, whatever the
        mode of `control`, in a thread of its own. Stream 0 runs
        `first()`, if given, before its body, beside the other streams.
        Returns what each body returned. Any failed stream raises
        StreamLost naming the first cause."""
        results: list = [None] * count

        def run(index: int) -> None:
            if index == 0:
                if first is not None:
                    first()
                results[0] = body(0, control)
                return
            data = self.dial(mode, transfer_id, index)
            try:
                results[index] = body(index, data)
            finally:
                data.close()

        failures = [exc for exc in fan_out(run, count, inline=True)
                    if exc is not None]
        if failures:
            raise StreamLost(f"{len(failures)} streams failed: "
                             f"{failures[0]}")
        return results

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
        return self._on_held(Mode.FTSM_PUSH, lambda control: self.push_on(
            control, local, remote, region))

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
        state = None
        if reply.frame_type == FrameType.XFER_RESUME:
            state = TransferState.decode(
                wire.decode_fields(reply.payload).get(X_STATE, b""))
            grid = state.grid    # its chunks make the region digest
        sender = RegionSender(local, transfer_id, grid, state, self.streams)
        self._run_senders(control, sender)
        control.send(FrameType.XFER_DONE, wire.encode_fields({
            X_TRANSFER: transfer_id, X_REGION_DIGEST: sender.digest()}))
        control.expect(FrameType.XFER_DONE)
        per_stream = [sum(length for _, length in chunks)
                      for chunks in sender.assignments]
        return TransferReport(sum(per_stream), time.monotonic() - start,
                              per_stream, state is not None)

    def _run_senders(self, control: Channel, sender: RegionSender) -> None:
        self._run_streams(control, Mode.FTSM_PUSH, sender.transfer_id,
                          len(sender.assignments), sender.send,
                          sender.hash_earlier)

    def pull(self, remote: str, local: Path,
             region: tuple[int, int] | None = None) -> TransferReport:
        local = Path(local)
        return _with_retries(lambda: self._pull_once(remote, local, region))

    def _pull_once(self, remote: str, local: Path,
                   region: tuple[int, int] | None) -> TransferReport:
        return self._on_held(Mode.FTSM_PULL, lambda control: self.pull_on(
            control, remote, local, region))

    def pull_on(self, control: Channel, remote: str, local: Path,
                region: tuple[int, int] | None = None) -> TransferReport:
        """Run one pull over an already established control channel. The
        channel stays open afterwards; the caller owns it.

        The offer carries the request as the caller made it (a region only
        if `region` is given), and the sidecar's record if `local` has a
        readable one. The node plans the grid from the request and the
        remote file as it is now, and continues the record only if it
        `continues` that grid. So the XFER_ACCEPT grid is the answer: if it
        equals the record's, the pull resumes; if not, the sidecar is
        deleted and the whole plan is received, as when the remote file
        changed size since the record was written."""
        local = Path(local)
        start = time.monotonic()
        state = readable_state(local)
        transfer_id = os.urandom(16)
        offer = {
            X_TRANSFER: transfer_id,
            X_PATH: remote.encode("utf-8"),
            X_STREAMS: wire.u8(self.streams),
            X_CHUNK_SIZE: wire.u32(self._chunk_size(control)),
        }
        if region is not None:
            offer[X_REGION_OFFSET] = wire.u64(region[0])
            offer[X_REGION_LENGTH] = wire.u64(region[1])
        if state is not None:
            offer[X_STATE] = state.encode()
        control.send(FrameType.XFER_OFFER, wire.encode_fields(offer))
        grid = grid_from_fields(wire.decode_fields(
            control.expect(FrameType.XFER_ACCEPT).payload))
        if state is not None and state.grid != grid:
            # the node planned afresh: the sidecar does not continue it
            state_path(local).unlink(missing_ok=True)
            state = None
        # the node's plan: stream 0's share arrives on `control`, and an
        # empty region has nothing to send
        assignments = sender_plan(grid, state, control.params.stream_count)
        end = grid.region_offset + grid.region_length
        receiver = RegionReceiver(local, transfer_id, grid, state,
                                  truncate_to=end if region is None
                                  else None)
        try:
            per_stream = self._run_receivers(control, transfer_id, receiver,
                                             assignments)
            control.send(FrameType.XFER_DONE,
                         wire.encode_fields({X_TRANSFER: transfer_id}))
            done = wire.decode_fields(
                control.expect(FrameType.XFER_DONE).payload)
            receiver.finish(done_digest(done))
        finally:
            receiver.abort()    # a no-op once finish has closed the file
        return TransferReport(sum(per_stream), time.monotonic() - start,
                              per_stream, state is not None)

    def _run_receivers(self, control: Channel, transfer_id: bytes,
                       receiver: RegionReceiver,
                       assignments: list[list[tuple[int, int]]]
                       ) -> list[int]:
        per_stream = self._run_streams(
            control, Mode.FTSM_PULL, transfer_id, len(assignments),
            lambda index, channel: receive_chunks(
                channel, transfer_id, receiver,
                len(assignments[0]) if index == 0 else None),
            receiver.hash_earlier)
        if not receiver.complete():
            raise StreamLost("streams drained but chunks are missing")
        return per_stream

    def bench_mem(self, seconds: float) -> TransferReport:
        """Zero generator to discarding sink: protocol throughput with no
        disk at either end."""
        transfer_id = os.urandom(16)
        start = time.monotonic()
        control = self.dial(Mode.FTSM_PUSH)
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

            per_stream = self._run_streams(control, Mode.FTSM_PUSH,
                                           transfer_id, self.streams, flood)
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
