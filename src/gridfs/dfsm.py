"""Remote file system mode: stateless per-request file operations.

Nine operations (READ, WRITE, FLUSH, LOCK, UNLOCK, SEEK, CLOSE, SETLENGTH,
STAT) travel as DFS_REQ/DFS_RESP FieldMaps. Every request names the full
sandbox-relative path and absolute offset; the server opens, acts and
closes per request, holding no cursor or position between requests. The
only server-side session state is the lock table, and a session's locks
vanish when its connection does. A lock is owned by its session's id,
16 random bytes the server makes when it starts serving the session and
never sends, so no peer can name another session's locks.

Byte-range locks are advisory and non-blocking: an overlapping request is
refused immediately with LOCK_CONFLICT and the client retries. Overlap is
checked against live locks of all sessions, the requester's own included;
reads and writes from other sessions also respect lock ranges. length
0xFFFF_FFFF_FFFF_FFFF locks to end of file, whatever the file size becomes.
A READ, WRITE or SETLENGTH checks its range and does its I/O under one
guard, the lock table's own lock, so no LOCK over that range can be
granted between the check and the I/O.

Seek never reaches the server as state: it is client-side arithmetic over
a stat snapshot, and the resulting absolute offset rides in the next
request. The SEEK wire op is answered exactly like STAT so a client can
fold the size fetch into the same round trip.

A failed request (a missing file, a lock conflict, a denial, fields that
cannot be decoded) gets one ERROR frame in place of its DFS_RESP, as a
failed request of any other session does (see `secchan.Channel.serve`),
and the session goes on; the client raises the node's error, which names
the cause, such as "no such file". The session ends when the client hangs
up, after the reply to its CLOSE, or on a frame of another type than
DFS_REQ. An ERROR's message carries no path: ERROR is clear in every
mode, SECURE included.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path, PurePosixPath

from . import wire
from .errors import (
    BadRequest,
    ConnectionLost,
    GridfsError,
    LockConflict,
    NegativeOffset,
    NotOwner,
    PermissionDenied,
)
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import Frame, FrameType

WHOLE_FILE = 0xFFFFFFFFFFFFFFFF
MAX_PATH_BYTES = 255
# Room a WRITE request needs beside its data: fixed fields plus path.
REQUEST_MARGIN = 512
# Reads a client keeps in flight when it reads a range ahead. The server
# answers one request at a time and stops reading requests while a reply
# waits to be sent, so the requests in flight must fit in the socket
# buffers on their own: 16 of them take about 1 KiB.
READ_WINDOW = 16


class Op(IntEnum):
    READ = 1
    WRITE = 2
    FLUSH = 3
    LOCK = 4
    UNLOCK = 5
    SEEK = 6
    CLOSE = 7
    SETLENGTH = 8
    STAT = 9


class SeekOrigin(IntEnum):
    BEGIN = 0
    CURRENT_HINT = 1
    END = 2


# DFS_REQ / DFS_RESP field tags
F_OP = 1
F_REQUEST_ID = 2
F_PATH = 3
F_OFFSET = 4
F_LENGTH = 5
F_DATA = 6
F_SEEK_ORIGIN = 7
# tag 8 (F_STATUS, a reply's status code) is retired: a failed request
# gets an ERROR frame; do not reuse it
F_LOCK_ID = 9
F_SIZE = 10


@dataclass(frozen=True)
class FileStat:
    size: int
    exists: bool


def resolve_seek(origin: SeekOrigin, delta: int, stat: FileStat,
                 current: int = 0) -> int:
    if origin == SeekOrigin.BEGIN:
        position = delta
    elif origin == SeekOrigin.CURRENT_HINT:
        position = current + delta
    elif origin == SeekOrigin.END:
        position = stat.size + delta
    else:
        raise BadRequest(f"unknown seek origin {origin}")
    if position < 0:
        raise NegativeOffset(f"seek resolves to {position}")
    return position


def resolve_path(sandbox_root: Path, relative: str) -> Path:
    """Map a request path into the sandbox; traversal is a denial, not an
    os error, so the namespace stays closed before any filesystem touch.
    A failed resolve, as when a rename races it, raises its OSError, which
    the session answers as any failed file operation."""
    if not relative or "\x00" in relative:
        raise BadRequest("empty or malformed path")
    if len(relative.encode("utf-8")) > MAX_PATH_BYTES:
        raise BadRequest("path too long")
    pure = PurePosixPath(relative)
    if pure.is_absolute() or ".." in pure.parts:
        raise PermissionDenied("path escapes the sandbox")
    return (sandbox_root / pure).resolve()


def sandboxed(account: Account, relative: str) -> Path:
    """The sandbox gate for a path a peer offers, in DFSM and FTSM alike:
    `resolve_path` in the account's sandbox, then the FILE_IO check."""
    path = resolve_path(account.sandbox_root, relative)
    denial = check(account, GuardedAction(ActionKind.FILE_IO, path))
    if denial is not None:
        raise PermissionDenied(denial)
    return path


# -- byte-range lock table --------------------------------------------------

@dataclass(frozen=True)
class RangeLock:
    lock_id: int
    path: str
    offset: int
    length: int
    owner_session: bytes

    @property
    def end(self) -> int:
        return self.offset + self.length

    def overlaps(self, offset: int, length: int) -> bool:
        return self.offset < offset + length and offset < self.end


class LockTable:
    """All live byte-range locks, across every session of one server.

    `audit` is called as audit(event, snapshot) under the table lock on
    every grant and release; tests hang invariant checks off it.
    """

    def __init__(self, audit=None):
        self._lock = threading.Lock()
        self._locks: dict[int, RangeLock] = {}
        self._released: dict[bytes, set[int]] = {}
        self._next_id = 1
        self.audit = audit

    def acquire(self, path: str, offset: int, length: int,
                session: bytes) -> int:
        if length == 0:
            raise BadRequest("lock length must be positive")
        with self._lock:
            for live in self._locks.values():
                if live.path == path and live.overlaps(offset, length):
                    raise LockConflict(
                        f"range [{offset}, {offset + length}) is locked")
            lock_id = self._next_id
            self._next_id += 1
            self._locks[lock_id] = RangeLock(lock_id, path, offset, length,
                                             session)
            if self.audit:
                self.audit("acquire", tuple(self._locks.values()))
            return lock_id

    def release(self, lock_id: int, session: bytes) -> None:
        with self._lock:
            live = self._locks.get(lock_id)
            if live is None:
                if lock_id in self._released.get(session, ()):
                    return    # repeat unlock by the owner: fine
                raise NotOwner(f"lock {lock_id} is not held by this session")
            if live.owner_session != session:
                raise NotOwner(f"lock {lock_id} belongs to another session")
            del self._locks[lock_id]
            self._released.setdefault(session, set()).add(lock_id)
            if self.audit:
                self.audit("release", tuple(self._locks.values()))

    def release_session(self, session: bytes) -> None:
        with self._lock:
            gone = [i for i, l in self._locks.items()
                    if l.owner_session == session]
            for lock_id in gone:
                del self._locks[lock_id]
            self._released.pop(session, None)
            if gone and self.audit:
                self.audit("release_session", tuple(self._locks.values()))

    @contextmanager
    def guard(self, path: str, offset: int, length: int,
              session: bytes) -> Iterator[None]:
        """Run the with-block on [offset, offset+length) of `path` under
        the table lock, after checking that no foreign lock overlaps it;
        raises LockConflict if one does. No lock is granted or released
        until the block ends, so keep it to the I/O the check guards."""
        with self._lock:
            if self._foreign_overlap(path, offset, length, session):
                raise LockConflict(
                    f"range [{offset}, {offset + length}) is locked")
            yield

    def _foreign_overlap(self, path: str, offset: int, length: int,
                         session: bytes) -> bool:
        return length > 0 and any(
            l.path == path and l.owner_session != session
            and l.overlaps(offset, length) for l in self._locks.values())


# -- server side ------------------------------------------------------------

def _stat(path: Path) -> FileStat:
    try:
        return FileStat(path.stat().st_size, True)
    except FileNotFoundError:
        return FileStat(0, False)


@contextmanager
def _opened(path: Path, flags: int) -> Iterator[int]:
    """A descriptor on `path` for one request, closed when the with-block
    ends. O_CREAT also creates the parent directories."""
    if flags & os.O_CREAT:
        path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, flags, 0o644)
    try:
        yield fd
    finally:
        os.close(fd)


class DfsServer:
    """Answers the requests of one authenticated DFSM session, each as it
    arrives, through `Channel.serve`, which answers a request that raises
    with an ERROR frame; the reply to a CLOSE closes the channel. The
    session's locks are owned by an id the server makes here, and are
    released when it ends."""

    def __init__(self, channel: Channel, account: Account,
                 locks: LockTable):
        self.channel = channel
        self.account = account
        self.locks = locks
        self.session = os.urandom(16)
        self._last_request_id: int | None = None

    def serve(self) -> None:
        try:
            self.channel.serve(lambda frame: self._handle(frame.payload),
                               FrameType.DFS_REQ)
        finally:
            self.locks.release_session(self.session)

    def _handle(self, payload: bytes) -> None:
        """Answer one request with its DFS_RESP, or raise why not."""
        fields = wire.decode_fields(payload)
        request_id = wire.read_uint(fields, F_REQUEST_ID)
        if self._last_request_id is not None and \
                request_id <= self._last_request_id:
            raise BadRequest("request ids must strictly increase")
        self._last_request_id = request_id
        reply: dict[int, bytes] = {F_REQUEST_ID: wire.u64(request_id)}
        try:
            op = Op(wire.read_uint(fields, F_OP))
            self._dispatch(op, fields, reply)
        except (ValueError, OverflowError):
            # an unknown op, a path that is not UTF-8, or an offset or
            # size past what the OS takes
            raise BadRequest("malformed request") from None
        self.channel.send(FrameType.DFS_RESP, wire.encode_fields(reply))
        if op == Op.CLOSE:
            self.channel.close()

    def _dispatch(self, op: Op, fields: dict[int, bytes],
                  reply: dict[int, bytes]) -> None:
        if op == Op.CLOSE:
            self.locks.release_session(self.session)
            return

        path_raw = fields.get(F_PATH)
        if path_raw is None:
            raise BadRequest("missing path")
        path = sandboxed(self.account, path_raw.decode("utf-8"))
        key = str(path)
        offset = wire.read_uint(fields, F_OFFSET, 0)

        if op == Op.READ:
            length = min(wire.read_uint(fields, F_LENGTH, 0),
                         self.channel.params.buffer_size)
            with self.locks.guard(key, offset, length, self.session), \
                    _opened(path, os.O_RDONLY) as fd:
                reply[F_DATA] = os.pread(fd, length, offset)
        elif op == Op.WRITE:
            data = fields.get(F_DATA, b"")
            with self.locks.guard(key, offset, len(data), self.session), \
                    _opened(path, os.O_WRONLY | os.O_CREAT) as fd:
                reply[F_LENGTH] = wire.u64(os.pwrite(fd, data, offset))
        elif op == Op.FLUSH:
            with _opened(path, os.O_RDONLY) as fd:
                os.fsync(fd)
        elif op == Op.LOCK:
            length = wire.read_uint(fields, F_LENGTH, 0)
            lock_id = self.locks.acquire(key, offset, length, self.session)
            reply[F_LOCK_ID] = wire.u64(lock_id)
        elif op == Op.UNLOCK:
            lock_id = wire.read_uint(fields, F_LOCK_ID)
            self.locks.release(lock_id, self.session)
        elif op == Op.SETLENGTH:
            new_len = wire.read_uint(fields, F_SIZE)
            old = _stat(path).size
            low, high = sorted((old, new_len))
            with self.locks.guard(key, low, max(high - low, 1),
                                  self.session), \
                    _opened(path, os.O_WRONLY | os.O_CREAT) as fd:
                # the range came from a size read before the guard
                if os.fstat(fd).st_size != old:
                    raise LockConflict("file size changed; retry")
                os.ftruncate(fd, new_len)
        elif op in (Op.STAT, Op.SEEK):
            # SEEK carries no server state; it is a stat by another name
            st = _stat(path)
            reply[F_SIZE] = wire.u64(st.size)
            reply[F_LENGTH] = wire.u64(1 if st.exists else 0)
        else:
            raise BadRequest(f"unhandled op {op}")


class FileShare(DfsServer):
    """Answers DFS requests for one local file on a channel opened for
    another mode: a READ of `name` is served from `path`, and any other
    op or name is denied. The peer's request ids count from 1 for each
    share."""

    def __init__(self, channel: Channel, path: Path, name: str):
        super().__init__(channel, None, LockTable())
        self.path = path
        self.name = name.encode("utf-8")

    def answer_until(self, frame_type: int) -> Frame:
        """Answer DFS_REQ frames until a `frame_type` frame arrives, and
        return it; an ERROR frame raises. A request that fails is answered
        with an ERROR frame, as `Channel.serve` answers one."""
        while True:
            frame = self.channel.expect(FrameType.DFS_REQ, frame_type)
            if frame.frame_type != FrameType.DFS_REQ:
                return frame
            try:
                self._handle(frame.payload)
            except (GridfsError, OSError) as exc:
                self.channel.send_error(exc)

    def _dispatch(self, op: Op, fields: dict[int, bytes],
                  reply: dict[int, bytes]) -> None:
        if op != Op.READ or fields.get(F_PATH) != self.name:
            raise PermissionDenied("the share serves READ of one file")
        length = min(wire.read_uint(fields, F_LENGTH, 0),
                     self.channel.params.buffer_size)
        with _opened(self.path, os.O_RDONLY) as fd:
            reply[F_DATA] = os.pread(fd, length,
                                     wire.read_uint(fields, F_OFFSET, 0))


# -- client side ------------------------------------------------------------

def _stat_reply(reply: dict[int, bytes]) -> FileStat:
    """The FileStat a STAT or SEEK reply carries."""
    return FileStat(wire.read_uint(reply, F_SIZE, 0),
                    bool(wire.read_uint(reply, F_LENGTH, 0)))


class FsClient:
    """Client handle for one DFSM session; bound to a single connection.

    Tracks a position purely for CURRENT_HINT seeks; the server never
    sees it. Requests wait for their replies one at a time, except reads
    sent ahead: a crypt worker plans the reads of its block's whole range
    with `read_ahead`, which keeps READ_WINDOW of them in flight, and
    `read` takes their replies in order and returns each piece's data as
    decoded, with no further copy.
    """

    def __init__(self, channel: Channel):
        self.channel = channel
        self.position = 0
        self._next_request_id = 1
        # (request id, path, offset, length) of each read sent ahead
        self._ahead: deque[tuple[int, str, int, int]] = deque()
        # (path, offset, end) of the planned reads not yet sent
        self._unsent = ("", 0, 0)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        try:
            self.close()
        except (GridfsError, OSError):
            pass

    def _send(self, op: Op, extra: dict[int, bytes] | None = None) -> int:
        """Send one request and return its id, without waiting."""
        request_id = self._next_request_id
        self._next_request_id += 1
        fields = {F_OP: wire.u8(op), F_REQUEST_ID: wire.u64(request_id)}
        if extra:
            fields.update(extra)
        self.channel.send(FrameType.DFS_REQ, wire.encode_fields(fields))
        return request_id

    def _reply(self, request_id: int) -> dict[int, bytes]:
        """Take the next reply, which must answer `request_id`; an ERROR
        frame in its place raises the node's error."""
        reply = wire.decode_fields(
            self.channel.expect(FrameType.DFS_RESP).payload)
        if wire.read_uint(reply, F_REQUEST_ID) != request_id:
            raise ConnectionLost("response for a different request")
        return reply

    def _call(self, op: Op, extra: dict[int, bytes] | None = None) -> dict[int, bytes]:
        if self._ahead:
            raise BadRequest("reads sent ahead are still unanswered")
        return self._reply(self._send(op, extra))

    def _read_request(self, path: str, offset: int, length: int) -> int:
        return self._send(Op.READ, {F_PATH: path.encode("utf-8"),
                                    F_OFFSET: wire.u64(offset),
                                    F_LENGTH: wire.u64(length)})

    def read_ahead(self, path: str, offset: int, length: int) -> None:
        """Plan the READ requests of [offset, offset+length), one per
        buffer step, and send the first READ_WINDOW of them without
        waiting. `read` then takes their replies in order, one step per
        call, and sends the next planned READ after each; no other request
        may be made until it has taken them all."""
        if self._ahead:
            raise BadRequest("reads sent ahead are still unanswered")
        self._unsent = (path, offset, offset + length)
        self._send_ahead()

    def _send_ahead(self) -> None:
        path, start, end = self._unsent
        step = self.channel.params.buffer_size
        while start < end and len(self._ahead) < READ_WINDOW:
            want = min(step, end - start)
            self._ahead.append((self._read_request(path, start, want),
                                path, start, want))
            start += want
            self._unsent = (path, start, end)

    def drain(self) -> None:
        """Take and drop the reply of every read sent ahead, an ERROR
        frame as well as a DFS_RESP, and send no more of the planned
        ones."""
        self._unsent = ("", 0, 0)
        while self._ahead:
            self._ahead.popleft()
            self.channel.recv()

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Up to `length` bytes of `path` from `offset`, shorter only at
        the end of the file. With reads sent ahead, the call must name the
        oldest of them exactly, and returns its reply's data."""
        if self._ahead:
            request_id, *planned = self._ahead[0]
            if planned != [path, offset, length]:
                raise BadRequest("a read must take the oldest read ahead")
            self._ahead.popleft()
            data = self._reply(request_id).get(F_DATA, b"")
            self._send_ahead()
            return data
        parts = []
        got = 0
        step = self.channel.params.buffer_size
        while got < length:
            want = min(step, length - got)
            data = self._reply(self._read_request(
                path, offset + got, want)).get(F_DATA, b"")
            parts.append(data)
            got += len(data)
            if len(data) < want:
                break    # clean EOF
        return b"".join(parts)

    def write(self, path: str, offset: int, data: bytes) -> int:
        step = max(1024, self.channel.params.buffer_size - REQUEST_MARGIN)
        written = 0
        while written < len(data) or not data:
            piece = data[written:written + step]
            reply = self._call(Op.WRITE, {
                F_PATH: path.encode("utf-8"),
                F_OFFSET: wire.u64(offset + written),
                F_DATA: piece})
            written += wire.read_uint(reply, F_LENGTH, len(piece))
            if not data:
                break
        return written

    def flush(self, path: str) -> None:
        self._call(Op.FLUSH, {F_PATH: path.encode("utf-8")})

    def lock(self, path: str, offset: int, length: int = WHOLE_FILE) -> int:
        reply = self._call(Op.LOCK, {
            F_PATH: path.encode("utf-8"),
            F_OFFSET: wire.u64(offset),
            F_LENGTH: wire.u64(length)})
        return wire.read_uint(reply, F_LOCK_ID)

    def unlock(self, path: str, lock_id: int) -> None:
        self._call(Op.UNLOCK, {F_PATH: path.encode("utf-8"),
                                 F_LOCK_ID: wire.u64(lock_id)})

    def stat(self, path: str) -> FileStat:
        return _stat_reply(self._call(Op.STAT, {F_PATH: path.encode("utf-8")}))

    def seek(self, path: str, origin: SeekOrigin, delta: int) -> int:
        if origin == SeekOrigin.END:
            st = _stat_reply(self._call(Op.SEEK, {
                F_PATH: path.encode("utf-8"),
                F_SEEK_ORIGIN: wire.u8(origin)}))
        else:
            st = FileStat(0, False)
        self.position = resolve_seek(origin, delta, st, self.position)
        return self.position

    def set_length(self, path: str, size: int) -> None:
        self._call(Op.SETLENGTH, {F_PATH: path.encode("utf-8"),
                                    F_SIZE: wire.u64(size)})

    def close(self) -> None:
        """End the session: send CLOSE, then close the connection, even
        when CLOSE gets no answer."""
        try:
            self._call(Op.CLOSE)
        finally:
            self.channel.close()
