"""Binary framing, field encoding and session negotiation.

Every message on every channel travels as one frame:

    ┌───────────┬────────────┬───────────┬─────────────────┬─────────────┐
    │ magic     │ frame_type │ flags     │ payload_len     │ payload     │
    │ 4B "DG01" │ u8         │ u8        │ u32 big-endian  │ len bytes   │
    └───────────┴────────────┴───────────┴─────────────────┴─────────────┘

flags bit 0 marks a payload sealed by the security channel. All multi-byte
integers are big-endian. Control payloads are tag-length-value field maps:
a sequence of (tag u8 | value_len u32 BE | value) triples with unique tags.

Frame type registry:

    0x01 HELLO        0x02 WELCOME      0x03 AUTH         0x04 AUTH_OK
    0x05 AUTH_FAIL    0x10 DFS_REQ      0x11 DFS_RESP     0x20 XFER_OFFER
    0x21 XFER_ACCEPT  0x22 CHUNK        0x23 XFER_DONE    0x24 XFER_RESUME
    0x25 XFER_JOIN    0x30 TASK_SUBMIT  0x31 TASK_STATUS  0x32 TASK_RESULT
    0x40 CRYPT_TASK   0x7F ERROR

A session starts with the client's HELLO and the server's WELCOME. Those
two frames negotiate the operating mode, the security mode and the network
buffer size (the negotiated buffer is min(requested, server cap), floored
at 4096 bytes), and exchange the random nonces the security channel derives
its keys from. A HELLO names no transfer: a data stream joins its
transfer with XFER_JOIN once keys exist. A node refuses a HELLO of
another PROTOCOL_VERSION before any key is used. A change that makes an
old peer fail bumps the version:

    1  the original wire
    2  a pull's stream 0 on the control session, the SHA-256 region digest
       (transfer tag 14), sealed AUTH on data connections; tag 13 retired
    3  hash-list region digest (tag 15); tag 14 retired
    4  resume state as one record (tag 16); tag 9 retired
    5  a data stream is an FTSM session that joins its transfer with
       XFER_JOIN; HELLO tags 8 and 9 retired
    6  under SECURE a moved chunk's hash-list entry is its AEAD tag
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field, replace
from enum import IntEnum

from .errors import (
    BadMagic,
    MalformedFieldMap,
    ModeRejected,
    OversizedPayload,
    ProtocolError,
    TruncatedFrame,
    VersionMismatch,
)

MAGIC = b"DG01"
HEADER_FMT = ">4sBBI"
HEADER_SIZE = struct.calcsize(HEADER_FMT)  # 10 bytes

PROTOCOL_VERSION = 6
DEFAULT_MAX_PAYLOAD = 262144
MIN_BUFFER = 4096
# Extra room on top of the negotiated buffer so a full data chunk still fits
# in one frame after the 29-byte chunk header and a 16-byte AEAD tag.
FRAME_SLACK = 64

FLAG_SEALED = 0x01


class FrameType(IntEnum):
    HELLO = 0x01
    WELCOME = 0x02
    AUTH = 0x03
    AUTH_OK = 0x04
    AUTH_FAIL = 0x05
    DFS_REQ = 0x10
    DFS_RESP = 0x11
    XFER_OFFER = 0x20
    XFER_ACCEPT = 0x21
    CHUNK = 0x22
    XFER_DONE = 0x23
    XFER_RESUME = 0x24
    XFER_JOIN = 0x25
    TASK_SUBMIT = 0x30
    TASK_STATUS = 0x31
    TASK_RESULT = 0x32
    CRYPT_TASK = 0x40
    ERROR = 0x7F


class Mode(IntEnum):
    FTSM_PUSH = 1
    FTSM_PULL = 2
    DFSM = 3
    TASK = 4
    CRYPT = 5


class SecurityMode(IntEnum):
    NONSECURE = 0
    SECURE = 1
    SEMISECURE = 2


@dataclass
class Frame:
    frame_type: int
    payload: bytes = b""
    flags: int = 0
    tag: bytes | None = None    # a sealed frame's AEAD tag, once opened


def encode_frame(frame: Frame, max_payload: int = DEFAULT_MAX_PAYLOAD) -> bytes:
    """Serialize a frame; raises OversizedPayload beyond the negotiated cap."""
    n = len(frame.payload)
    if n > max_payload or n > 0xFFFFFFFF:
        raise OversizedPayload(f"payload of {n} bytes exceeds cap {max_payload}")
    return struct.pack(HEADER_FMT, MAGIC, frame.frame_type, frame.flags, n) + frame.payload


def decode_frame(data: bytes | memoryview,
                 max_payload: int = DEFAULT_MAX_PAYLOAD
                 ) -> tuple[Frame, bytes | memoryview]:
    """Decode one frame off the front of `data`, returning (frame, rest).
    The payload and the rest are slices of `data`: views, given a view.

    Total over arbitrary input: raises BadMagic, OversizedPayload, or the
    recoverable TruncatedFrame (carrying how many bytes are still needed).
    The declared length is validated before any payload-sized slice is taken.
    """
    if len(data) < HEADER_SIZE:
        raise TruncatedFrame(HEADER_SIZE - len(data))
    magic, frame_type, flags, n = struct.unpack(HEADER_FMT, data[:HEADER_SIZE])
    if magic != MAGIC:
        raise BadMagic(f"bad magic {magic!r}")
    if n > max_payload:
        raise OversizedPayload(f"declared payload {n} exceeds cap {max_payload}")
    if len(data) < HEADER_SIZE + n:
        raise TruncatedFrame(HEADER_SIZE + n - len(data))
    payload = data[HEADER_SIZE:HEADER_SIZE + n]
    return Frame(frame_type, payload, flags), data[HEADER_SIZE + n:]


# -- field maps -------------------------------------------------------------

def encode_fields(fields: dict[int, bytes]) -> bytes:
    out = bytearray()
    for tag, value in fields.items():
        if not 0 <= tag <= 0xFF:
            raise MalformedFieldMap(f"tag {tag} out of range")
        if len(value) > 0xFFFFFFFF:
            raise MalformedFieldMap("field value too long")
        out += struct.pack(">BI", tag, len(value))
        out += value
    return bytes(out)


def decode_fields(data: bytes) -> dict[int, bytes]:
    """Parse a tag-length-value map; duplicate tags are malformed."""
    fields: dict[int, bytes] = {}
    pos = 0
    while pos < len(data):
        if pos + 5 > len(data):
            raise MalformedFieldMap("truncated field header")
        tag, n = struct.unpack(">BI", data[pos:pos + 5])
        pos += 5
        if pos + n > len(data):
            raise MalformedFieldMap(f"truncated value for tag {tag}")
        if tag in fields:
            raise MalformedFieldMap(f"duplicate tag {tag}")
        fields[tag] = data[pos:pos + n]
        pos += n
    return fields


def u8(value: int) -> bytes:
    return struct.pack(">B", value)


def u16(value: int) -> bytes:
    return struct.pack(">H", value)


def u32(value: int) -> bytes:
    return struct.pack(">I", value)


def u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def f64(value: float) -> bytes:
    return struct.pack(">d", value)


def read_uint(fields: dict[int, bytes], tag: int, default: int | None = None) -> int:
    raw = fields.get(tag)
    if raw is None:
        if default is None:
            raise MalformedFieldMap(f"missing required tag {tag}")
        return default
    if len(raw) not in (1, 2, 4, 8):
        raise MalformedFieldMap(f"bad integer width for tag {tag}")
    return int.from_bytes(raw, "big")


def read_f64(fields: dict[int, bytes], tag: int, default: float = 0.0) -> float:
    raw = fields.get(tag)
    if raw is None:
        return default
    if len(raw) != 8:
        raise MalformedFieldMap(f"bad float width for tag {tag}")
    return struct.unpack(">d", raw)[0]


def pack_blobs(items: list[bytes]) -> bytes:
    """Length-prefixed byte-string list, used inside field values."""
    out = bytearray()
    for b in items:
        out += struct.pack(">I", len(b)) + b
    return bytes(out)


def unpack_blobs(data: bytes) -> list[bytes]:
    items = []
    pos = 0
    while pos < len(data):
        if pos + 4 > len(data):
            raise MalformedFieldMap("truncated blob list")
        (n,) = struct.unpack(">I", data[pos:pos + 4])
        pos += 4
        if pos + n > len(data):
            raise MalformedFieldMap("truncated blob list entry")
        items.append(data[pos:pos + n])
        pos += n
    return items


def pack_strings(items: list[str]) -> bytes:
    """A blob list of UTF-8 strings."""
    return pack_blobs([s.encode("utf-8") for s in items])


def unpack_strings(data: bytes) -> list[str]:
    return [b.decode("utf-8") for b in unpack_blobs(data)]


# -- session parameters -----------------------------------------------------

@dataclass
class SessionParams:
    mode: Mode
    security: SecurityMode = SecurityMode.NONSECURE
    buffer_size: int = DEFAULT_MAX_PAYLOAD
    stream_count: int = 1
    version: int = PROTOCOL_VERSION
    session_id: bytes = field(default_factory=lambda: os.urandom(16))

    def max_frame_payload(self) -> int:
        return self.buffer_size + FRAME_SLACK


def negotiate(client: SessionParams, server_cap: int,
              enabled_modes: set[Mode] | None = None,
              server_version: int = PROTOCOL_VERSION) -> SessionParams:
    """Server-side view of the HELLO/WELCOME negotiation.

    The negotiated buffer is min(requested, cap) floored at MIN_BUFFER, so
    both peers end up with identical parameters; DFSM always runs a single
    stream.
    """
    if client.version != server_version:
        raise VersionMismatch(
            f"client speaks version {client.version}, server {server_version}")
    if enabled_modes is not None and client.mode not in enabled_modes:
        raise ModeRejected(f"mode {client.mode.name} disabled on this server")
    buffer_size = max(MIN_BUFFER, min(client.buffer_size, server_cap))
    stream_count = 1 if client.mode == Mode.DFSM else max(1, client.stream_count)
    return replace(client, buffer_size=buffer_size, stream_count=stream_count)


# HELLO / WELCOME field tags
T_VERSION = 1
T_MODE = 2
T_SECURITY = 3
T_BUFFER = 4
T_STREAMS = 5
T_SESSION = 6
T_NONCE = 7
# tags 8 and 9 (a data connection's transfer id and stream index) are
# retired: XFER_JOIN carries them now; do not reuse them

# XFER_JOIN field tags
J_TRANSFER = 1
J_STREAM_INDEX = 2

# ERROR frame field tags
E_CODE = 1
E_MESSAGE = 2


def hello_payload(params: SessionParams, nonce: bytes) -> bytes:
    return encode_fields({
        T_VERSION: u16(params.version),
        T_MODE: u8(params.mode),
        T_SECURITY: u8(params.security),
        T_BUFFER: u32(params.buffer_size),
        T_STREAMS: u8(params.stream_count),
        T_SESSION: params.session_id,
        T_NONCE: nonce,
    })


def parse_hello(payload: bytes) -> tuple[SessionParams, bytes]:
    """Returns (params, nonce)."""
    fields = decode_fields(payload)
    nonce = fields.get(T_NONCE, b"")
    session_id = fields.get(T_SESSION, b"")
    if len(nonce) != 16 or len(session_id) != 16:
        raise ProtocolError("HELLO nonce/session id must be 16 bytes")
    try:
        mode = Mode(read_uint(fields, T_MODE))
        security = SecurityMode(read_uint(fields, T_SECURITY))
    except ValueError as exc:
        raise ModeRejected(str(exc)) from None
    params = SessionParams(
        mode=mode,
        security=security,
        buffer_size=read_uint(fields, T_BUFFER),
        stream_count=read_uint(fields, T_STREAMS, 1),
        version=read_uint(fields, T_VERSION),
        session_id=session_id,
    )
    return params, nonce


welcome_payload = hello_payload
parse_welcome = parse_hello


def join_payload(transfer_id: bytes, stream_index: int) -> bytes:
    """An XFER_JOIN request: the transfer a session joins and its stream."""
    return encode_fields({J_TRANSFER: transfer_id,
                          J_STREAM_INDEX: u8(stream_index)})


def parse_join(payload: bytes) -> tuple[bytes, int]:
    """Returns (transfer_id, stream_index)."""
    fields = decode_fields(payload)
    return fields.get(J_TRANSFER, b""), read_uint(fields, J_STREAM_INDEX, 0)


def error_payload(code: int, message: str) -> bytes:
    return encode_fields({E_CODE: u16(code), E_MESSAGE: message.encode("utf-8")})


def parse_error(payload: bytes) -> tuple[int, str]:
    fields = decode_fields(payload)
    return (read_uint(fields, E_CODE, 0),
            fields.get(E_MESSAGE, b"").decode("utf-8", "replace"))
