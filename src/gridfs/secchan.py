"""Channel security: PSK authentication and the three transfer-security modes.

Key schedule. Both peers hold the account's pre-shared key and exchange
16-byte nonces in HELLO/WELCOME. Keys come from an HMAC-SHA256
extract-then-expand: the extract step MACs the psk under the concatenated
nonces, the expand step derives one 128-bit key per direction. The client's
send key is the server's receive key and vice versa, so the pair can seal
traffic immediately after WELCOME with no further round trip.

Authentication is a single AUTH frame carrying the username and
proof = HMAC-SHA256(psk, client_nonce || server_nonce || username). The
proof never crosses the wire in clear (AUTH is sealed in every mode) and
verification is constant-time. One AUTH per connection; a second one is a
protocol error. The username itself rides in the clear HELLO so the server
can pick the right psk before it has to open anything.

Sealing is AES-128-GCM. Nonces are lockstep counters (never transmitted):
each side keeps a send and a receive counter, and a frame sealed out of
order or replayed simply fails to open. The frame type is bound in as
associated data, so a sealed payload cannot be replayed under a different
type either. A sealed frame's 16-byte tag, which `Channel.send` returns
and `Channel.recv` puts on the frame it opened, is a MAC of its plaintext
that both ends hold once the frame has opened; ftsm takes a sealed
CHUNK's tag as that chunk's hash-list entry, so a SECURE chunk is checked
once, by the open, and never hashed.

Mode policy:
  SECURE      every payload sealed.
  SEMISECURE  control frames sealed, CHUNK payloads clear.
  NONSECURE   AUTH/AUTH_OK sealed, and the frames that carry a path, a
              name or key material: DFS_REQ, XFER_OFFER, TASK_SUBMIT,
              TASK_RESULT and CRYPT_TASK; everything else clear.
A sealed frame is sealed whole in every mode, so a NONSECURE DFSM WRITE
seals its data along with its path, while a READ's reply stays clear.
HELLO, WELCOME and ERROR are clear in every mode: the first two happen
before keys exist, and ERROR must stay readable to a peer whose keys are
wrong, as a refused AUTH's is. None of them ever carries a secret, and
the ERROR that refuses an AUTH is the same whatever was wrong, so it
tells no user names.

Every failed request gets one answer, an ERROR frame, in every mode:
`Channel.serve` sends a handler's GridfsError as itself and an OSError as
its `map_os_error` error, and the session takes the next request;
`Channel.expect` raises it again on the other side.
"""

from __future__ import annotations

import hmac
import os
import socket
from collections.abc import Callable
from dataclasses import dataclass
from hashlib import sha256

from cryptography.exceptions import InvalidTag
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from . import wire
from .errors import (
    AuthFailed,
    ConnectionLost,
    CounterExhausted,
    GridfsError,
    IntegrityFailure,
    OversizedPayload,
    ProtocolError,
    error_for_status,
    map_os_error,
)
from .wire import Frame, FrameType, SecurityMode, SessionParams

KEY_SIZE = 16
NONCE_SIZE = 16
TAG_SIZE = 16    # the AES-GCM tag that ends every seal
MAX_USERNAME = 64

# Extra clear HELLO/WELCOME tag: username for key selection.
T_USER = 10

# AUTH / AUTH_OK field tags.
A_USER = 1
A_PROOF = 2

_COUNTER_LIMIT = 2**64

# a channel's receive buffer starts this large and grows to its largest frame
RECV_START = 4096

# seconds either end of a dial waits on the socket until AUTH has settled
HANDSHAKE_TIMEOUT = 30.0

# seconds a session waits in `Channel.serve` for its peer's next request
# before it ends; a request being handled, however long, is never cut
IDLE_TIMEOUT = 300.0


def derive_keys(psk: bytes, client_nonce: bytes, server_nonce: bytes) -> tuple[bytes, bytes]:
    """Returns (client_key, server_key), each 16 bytes, same on both peers."""
    prk = hmac.new(client_nonce + server_nonce, psk, sha256).digest()
    k_client = hmac.new(prk, b"client stream\x01", sha256).digest()[:KEY_SIZE]
    k_server = hmac.new(prk, b"server stream\x01", sha256).digest()[:KEY_SIZE]
    return k_client, k_server


def credential_proof(psk: bytes, client_nonce: bytes, server_nonce: bytes,
                     username: str) -> bytes:
    return hmac.new(psk, client_nonce + server_nonce + username.encode("utf-8"),
                    sha256).digest()


@dataclass
class ChannelKeys:
    send_key: bytes
    recv_key: bytes
    send_counter: int = 0
    recv_counter: int = 0

    @classmethod
    def for_role(cls, psk: bytes, client_nonce: bytes, server_nonce: bytes,
                 is_client: bool) -> "ChannelKeys":
        k_client, k_server = derive_keys(psk, client_nonce, server_nonce)
        if is_client:
            return cls(send_key=k_client, recv_key=k_server)
        return cls(send_key=k_server, recv_key=k_client)

    def seal(self, plaintext: bytes, aad: bytes) -> bytes:
        if self.send_counter >= _COUNTER_LIMIT:
            raise CounterExhausted("send counter exhausted")
        nonce = b"\x00\x00\x00\x00" + self.send_counter.to_bytes(8, "big")
        self.send_counter += 1
        return AESGCM(self.send_key).encrypt(nonce, plaintext, aad)

    def open(self, sealed: bytes, aad: bytes) -> bytes:
        if self.recv_counter >= _COUNTER_LIMIT:
            raise CounterExhausted("receive counter exhausted")
        nonce = b"\x00\x00\x00\x00" + self.recv_counter.to_bytes(8, "big")
        try:
            plaintext = AESGCM(self.recv_key).decrypt(nonce, sealed, aad)
        except InvalidTag:
            raise IntegrityFailure("sealed payload failed to open") from None
        self.recv_counter += 1
        return plaintext


# -- per-mode frame classification ------------------------------------------

CLEAR = 0
SEALED = 1

_ALWAYS_CLEAR = frozenset({FrameType.HELLO, FrameType.WELCOME,
                           FrameType.ERROR})
# NONSECURE: AUTH and AUTH_OK, and the frames that carry a path, a name or
# key material
_NONSECURE_SEALED = frozenset({
    FrameType.AUTH, FrameType.AUTH_OK, FrameType.DFS_REQ,
    FrameType.XFER_OFFER, FrameType.TASK_SUBMIT, FrameType.TASK_RESULT,
    FrameType.CRYPT_TASK})


def classify_frame(frame_type: int, mode: SecurityMode) -> int:
    if frame_type in _ALWAYS_CLEAR:
        return CLEAR
    if mode == SecurityMode.NONSECURE:
        return SEALED if frame_type in _NONSECURE_SEALED else CLEAR
    if mode == SecurityMode.SEMISECURE and frame_type == FrameType.CHUNK:
        return CLEAR
    return SEALED


# -- framed channel over a socket -------------------------------------------

class Channel:
    """One authenticated connection: framing plus the mode's sealing policy.

    Owned by exactly one connection handler or client; not shared across
    threads. The lockstep counters make any cross-thread interleaving a
    protocol error by construction, which is the point.

    A control channel also carries stream 0 of each transfer it runs. The
    client hands it to stream 0's body, which runs on the calling thread
    beside the threads of streams 1..n-1, and takes it back for XFER_DONE
    only once `ftsm.fan_out` has joined them all: the join orders every
    stream's frames before the transfer's end, and the channel never has
    two users at once.

    Frames arrive into one receive buffer per channel, filled with
    `recv_into` and decoded in place; it grows only once a frame's header
    has passed the cap check, to hold that frame. `recv` opens a sealed
    payload straight from the buffer and copies a clear one out once, so
    no frame it returns shares memory with the buffer.
    """

    def __init__(self, sock: socket.socket, params: SessionParams,
                 keys: ChannelKeys | None):
        self.sock = sock
        self.params = params
        self.keys = keys
        self.frames_received = 0    # tells a reply from a dead session
        self.closed = False
        self._rbuf = bytearray(RECV_START)
        self._start = 0             # unread bytes are _rbuf[_start:_end]
        self._end = 0

    @property
    def max_payload(self) -> int:
        return self.params.max_frame_payload()

    def close(self) -> None:
        self.closed = True
        try:
            self.sock.close()
        except OSError:
            pass

    # frame transmit/receive

    def send(self, frame_type: int,
             payload: bytes | memoryview = b"") -> bytes | None:
        """Send one frame under the mode's policy; returns the AEAD tag of
        a sealed frame, the last TAG_SIZE bytes of its seal, or None for a
        clear one."""
        sealed = classify_frame(frame_type, self.params.security) == SEALED
        # size-check before sealing: a seal consumes a nonce counter, and a
        # frame that then fails to encode would desync the channel for good
        overhead = TAG_SIZE if sealed else 0
        if len(payload) + overhead > self.max_payload:
            raise OversizedPayload(
                f"payload of {len(payload)} bytes cannot fit the "
                f"negotiated frame cap {self.max_payload}")
        flags, tag = 0, None
        if sealed:
            payload = self._require_keys().seal(payload, bytes([frame_type]))
            flags, tag = wire.FLAG_SEALED, payload[-TAG_SIZE:]
        try:
            self.sock.sendall(wire.encode_frame(Frame(frame_type, payload, flags),
                                                self.max_payload))
        except OSError as exc:
            raise ConnectionLost(str(exc)) from None
        return tag

    def recv(self) -> Frame:
        """The next frame, opened under the mode's policy; a sealed frame
        comes back with its AEAD tag as `tag`, a clear one with None."""
        frame = self._read_frame()    # its payload is a view of _rbuf
        if classify_frame(frame.frame_type, self.params.security) == SEALED:
            if not frame.flags & wire.FLAG_SEALED:
                raise ProtocolError(
                    f"frame type 0x{frame.frame_type:02x} arrived clear, "
                    f"policy requires sealed")
            payload = self._require_keys().open(frame.payload,
                                                bytes([frame.frame_type]))
            return Frame(frame.frame_type, payload, 0,
                         bytes(frame.payload[-TAG_SIZE:]))
        if frame.flags & wire.FLAG_SEALED:
            raise ProtocolError(
                f"frame type 0x{frame.frame_type:02x} arrived sealed, "
                f"policy says clear")
        return Frame(frame.frame_type, bytes(frame.payload), frame.flags)

    def expect(self, *frame_types: int) -> Frame:
        """Receive a frame, converting ERROR frames into raised exceptions."""
        frame = self.recv()
        if frame.frame_type == FrameType.ERROR:
            code, message = wire.parse_error(frame.payload)
            raise error_for_status(code, message)
        if frame.frame_type not in frame_types:
            raise ProtocolError(
                f"expected {[hex(t) for t in frame_types]}, "
                f"got 0x{frame.frame_type:02x}")
        return frame

    def send_error(self, exc: GridfsError | OSError) -> None:
        """Answer a failed request with one ERROR frame: a GridfsError as
        itself, an OSError as its `map_os_error` error."""
        if isinstance(exc, OSError):
            exc = map_os_error(exc)
        self.send(FrameType.ERROR,
                  wire.error_payload(int(exc.status), str(exc)))

    def serve(self, handle: Callable[[Frame], None],
              *frame_types: int) -> None:
        """Answer each frame of `frame_types` the peer sends with
        `handle(frame)`, until the peer hangs up, a handler closes the
        channel, or the peer sends no request for IDLE_TIMEOUT seconds.
        The bound holds only between requests: while a handler runs, the
        socket waits without a limit, so no transfer or task wait is cut.

        One error policy for every session: a ProtocolError means the
        peer broke the frame choreography (a frame of another type, an
        ERROR frame included, is one), so it ends the session and
        propagates to the caller; any other GridfsError, and an OSError as
        its `map_os_error` error, is one failed request, so it goes back
        to the peer as one ERROR frame and the session takes the next
        frame.
        """
        while not self.closed:
            try:
                self.sock.settimeout(IDLE_TIMEOUT)
                frame = self.recv()
                self.sock.settimeout(None)
            except (ConnectionLost, OSError):
                # the peer hung up or sat idle past IDLE_TIMEOUT, which
                # `recv` raises as ConnectionLost; `settimeout` raises
                # OSError on a socket closed under the session
                return
            if frame.frame_type not in frame_types:
                raise ProtocolError(
                    f"unexpected frame 0x{frame.frame_type:02x} on a "
                    f"{self.params.mode.name} session")
            try:
                handle(frame)
            except ProtocolError:
                raise
            except (GridfsError, OSError) as exc:
                self.send_error(exc)

    def _require_keys(self) -> ChannelKeys:
        if self.keys is None:
            raise ProtocolError("no channel keys established")
        return self.keys

    def _read_frame(self) -> Frame:
        """The next frame, its payload a view of the receive buffer that
        stays valid until the next read."""
        needed = 0
        while True:
            if needed:
                self._fill(needed)
            try:
                frame, rest = wire.decode_frame(
                    memoryview(self._rbuf)[self._start:self._end],
                    self.max_payload)
            except wire.TruncatedFrame as short:
                needed = short.needed
                continue
            self._start = self._end - len(rest)
            if self._start == self._end:
                self._start = self._end = 0
            self.frames_received += 1
            return frame

    def _fill(self, needed: int) -> None:
        """Read until the buffer holds `needed` bytes more than it does,
        taking whatever else has arrived that fits. Unread bytes move to
        the front, or to a larger buffer, first if the rest would not
        fit behind them."""
        held = self._end - self._start
        if self._end + needed > len(self._rbuf):
            if held + needed > len(self._rbuf):
                grown = bytearray(held + needed)
                grown[:held] = memoryview(self._rbuf)[self._start:self._end]
                self._rbuf = grown
            else:
                self._rbuf[:held] = self._rbuf[self._start:self._end]
            self._start, self._end = 0, held
        target = self._end + needed
        with memoryview(self._rbuf) as view:
            while self._end < target:
                try:
                    got = self.sock.recv_into(view[self._end:])
                except OSError as exc:
                    raise ConnectionLost(str(exc)) from None
                if not got:
                    raise ConnectionLost("peer closed the connection")
                self._end += got


# -- client-side bootstrap --------------------------------------------------

def connect(address: tuple[str, int], params: SessionParams,
            username: str, psk: bytes,
            transfer_id: bytes | None = None,
            stream_index: int = 0) -> Channel:
    """Dial a node: HELLO/WELCOME negotiation, key derivation, then AUTH.

    Every connection authenticates. Given a transfer id, the session is
    one stream of that live transfer: XFER_JOIN (the id and
    `stream_index`) follows AUTH at once, without waiting for AUTH_OK,
    so the dial still takes two round trips. The node reads it only once
    AUTH has verified, and answers it with XFER_JOIN once the stream has
    joined, or with an ERROR frame, raised here, saying why not. A
    refused AUTH is an ERROR frame too, raised here as AuthFailed. The
    session's mode must be the transfer's direction. A transfer's client
    dials one only for streams 1..n-1: stream 0 rides the control
    session, so a single-stream transfer dials none. The node admits a
    push's stream for any index, but a pull's only for streams 1..n-1.
    """
    if len(username.encode("utf-8")) > MAX_USERNAME:
        raise AuthFailed("username too long")
    sock = socket.create_connection(address, timeout=HANDSHAKE_TIMEOUT)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    try:
        client_nonce = os.urandom(NONCE_SIZE)
        hello = wire.decode_fields(wire.hello_payload(params, client_nonce))
        hello[T_USER] = username.encode("utf-8")
        raw = wire.encode_frame(Frame(FrameType.HELLO,
                                      wire.encode_fields(hello)))
        sock.sendall(raw)

        channel = Channel(sock, params, keys=None)
        frame = channel.expect(FrameType.WELCOME)
        agreed, server_nonce = wire.parse_welcome(frame.payload)
        channel.params = agreed
        channel.keys = ChannelKeys.for_role(psk, client_nonce, server_nonce,
                                            is_client=True)
        proof = credential_proof(psk, client_nonce, server_nonce, username)
        channel.send(FrameType.AUTH, wire.encode_fields({
            A_USER: username.encode("utf-8"),
            A_PROOF: proof,
        }))
        if transfer_id is not None:
            channel.send(FrameType.XFER_JOIN,
                         wire.join_payload(transfer_id, stream_index))
        channel.expect(FrameType.AUTH_OK)
        if transfer_id is not None:
            channel.expect(FrameType.XFER_JOIN)
        sock.settimeout(None)
        return channel
    except BaseException:
        sock.close()
        raise
