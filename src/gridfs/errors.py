"""Error types shared across the toolkit and their wire status codes.

Every operation-level failure maps to one ``Status`` code so a node can
report it in the ERROR frame that answers a failed request, and the
client can re-raise the matching exception class. A failed file
operation's ``OSError`` reports as the error `map_os_error` gives it.
"""

from __future__ import annotations

import errno
from enum import IntEnum


class Status(IntEnum):
    OK = 0
    BAD_REQUEST = 1
    NO_SUCH_FILE = 2
    PERMISSION_DENIED = 3
    LOCK_CONFLICT = 4
    NOT_OWNER = 5
    STORAGE_FULL = 6
    INTEGRITY_MISMATCH = 7
    STATE_CORRUPT = 8
    STAGING_FAILED = 9
    LAUNCH_FAILED = 10
    TIMEOUT = 11
    SET_EXPIRED = 12
    MISSING_BLOCK = 13
    VERSION_MISMATCH = 14
    MODE_REJECTED = 15
    AUTH_FAILED = 16
    INCOMPLETE = 17
    NO_WORKERS = 18
    WORKER_FAILED = 19
    INTERNAL = 20


class GridfsError(Exception):
    """Base class; `status` is the wire code a server reports for it."""

    status = Status.INTERNAL


# -- wire / framing ---------------------------------------------------------

class BadMagic(GridfsError):
    status = Status.BAD_REQUEST


class TruncatedFrame(GridfsError):
    """More bytes are needed; recoverable by reading further input."""

    status = Status.BAD_REQUEST

    def __init__(self, needed: int):
        super().__init__(f"need {needed} more bytes")
        self.needed = needed


class OversizedPayload(GridfsError):
    status = Status.BAD_REQUEST


class MalformedFieldMap(GridfsError):
    status = Status.BAD_REQUEST


class VersionMismatch(GridfsError):
    status = Status.VERSION_MISMATCH


class ModeRejected(GridfsError):
    status = Status.MODE_REJECTED


class ProtocolError(GridfsError):
    """Peer violated the frame choreography (wrong frame type, replayed AUTH...)."""

    status = Status.BAD_REQUEST


# -- security channel -------------------------------------------------------

class AuthFailed(GridfsError):
    status = Status.AUTH_FAILED


class IntegrityFailure(GridfsError):
    status = Status.INTEGRITY_MISMATCH


class CounterExhausted(GridfsError):
    status = Status.INTERNAL


# -- remote file system -----------------------------------------------------

class NoSuchFile(GridfsError):
    status = Status.NO_SUCH_FILE


class PermissionDenied(GridfsError):
    status = Status.PERMISSION_DENIED


class LockConflict(GridfsError):
    status = Status.LOCK_CONFLICT


class NotOwner(GridfsError):
    status = Status.NOT_OWNER


class NegativeOffset(GridfsError):
    status = Status.BAD_REQUEST


class StorageFull(GridfsError):
    status = Status.STORAGE_FULL


class BadRequest(GridfsError):
    status = Status.BAD_REQUEST


# -- transfers --------------------------------------------------------------

class EmptyRegion(GridfsError):
    status = Status.BAD_REQUEST


class IntegrityMismatch(GridfsError):
    status = Status.INTEGRITY_MISMATCH


class StreamLost(GridfsError):
    status = Status.INCOMPLETE


class IncompleteTransfer(GridfsError):
    status = Status.INCOMPLETE


class StateCorrupt(GridfsError):
    status = Status.STATE_CORRUPT


# -- permissions store ------------------------------------------------------

class MalformedDocument(GridfsError):
    status = Status.BAD_REQUEST


class UnknownAccountType(GridfsError):
    status = Status.BAD_REQUEST


# -- task execution ---------------------------------------------------------

class StagingFailed(GridfsError):
    status = Status.STAGING_FAILED


class LaunchFailed(GridfsError):
    status = Status.LAUNCH_FAILED


class SetExpired(GridfsError):
    status = Status.SET_EXPIRED


class ConnectionLost(GridfsError):
    status = Status.INCOMPLETE


# -- block cryptography -----------------------------------------------------

class TruncatedHeader(GridfsError):
    status = Status.BAD_REQUEST


class BadPadding(GridfsError):
    status = Status.INTEGRITY_MISMATCH


class MissingBlock(GridfsError):
    status = Status.MISSING_BLOCK

    def __init__(self, part_num: int):
        super().__init__(f"block {part_num} missing")
        self.part_num = part_num


class NoWorkers(GridfsError):
    status = Status.NO_WORKERS


class WorkerFailed(GridfsError):
    status = Status.WORKER_FAILED


# -- daemon -----------------------------------------------------------------

class MalformedConfig(GridfsError):
    status = Status.BAD_REQUEST


class BindFailed(GridfsError):
    status = Status.INTERNAL


class SpawnFailed(GridfsError):
    status = Status.INTERNAL


def map_os_error(exc: OSError) -> GridfsError:
    """The GridfsError that a failed file operation reports as. Its
    message names the cause, never the path, since an ERROR frame is
    clear in every mode."""
    if isinstance(exc, FileNotFoundError):
        return NoSuchFile("no such file")
    if exc.errno == errno.ENOSPC:
        return StorageFull("storage full")
    if exc.errno in (errno.EACCES, errno.EPERM):
        return PermissionDenied("filesystem refused access")
    if isinstance(exc, IsADirectoryError) or exc.errno == errno.EISDIR:
        return BadRequest("path names a directory")
    return BadRequest(f"io error {errno.errorcode.get(exc.errno, exc.errno)}")


_STATUS_DEFAULT = {
    Status.BAD_REQUEST: BadRequest,
    Status.NO_SUCH_FILE: NoSuchFile,
    Status.PERMISSION_DENIED: PermissionDenied,
    Status.LOCK_CONFLICT: LockConflict,
    Status.NOT_OWNER: NotOwner,
    Status.STORAGE_FULL: StorageFull,
    Status.INTEGRITY_MISMATCH: IntegrityMismatch,
    Status.STATE_CORRUPT: StateCorrupt,
    Status.STAGING_FAILED: StagingFailed,
    Status.LAUNCH_FAILED: LaunchFailed,
    Status.SET_EXPIRED: SetExpired,
    Status.VERSION_MISMATCH: VersionMismatch,
    Status.MODE_REJECTED: ModeRejected,
    Status.AUTH_FAILED: AuthFailed,
    Status.INCOMPLETE: StreamLost,
    Status.NO_WORKERS: NoWorkers,
    Status.WORKER_FAILED: WorkerFailed,
    Status.MISSING_BLOCK: MissingBlock,
}


def error_for_status(code: int, message: str = "") -> GridfsError:
    """Rebuild the exception a remote peer reported as a status code."""
    try:
        status = Status(code)
    except ValueError:
        return GridfsError(f"unknown status {code}: {message}")
    cls = _STATUS_DEFAULT.get(status, GridfsError)
    if cls is MissingBlock:
        try:
            return MissingBlock(int(message))
        except ValueError:
            return MissingBlock(-1)
    return cls(message or status.name)
