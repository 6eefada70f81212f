import socket
import struct
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfs import secchan, wire
from gridfs.errors import (
    BadRequest,
    CounterExhausted,
    IntegrityFailure,
    OversizedPayload,
    ProtocolError,
)
from gridfs.secchan import (
    CLEAR,
    SEALED,
    Channel,
    ChannelKeys,
    classify_frame,
    credential_proof,
    derive_keys,
)
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

PSK = bytes(range(32))
CN = b"c" * 16
SN = b"s" * 16
# the frame types every mode leaves clear
BOOTSTRAP = {FrameType.HELLO, FrameType.WELCOME, FrameType.ERROR}
# the frame types NONSECURE seals, each whole
NONSECURE_SEALED = {FrameType.AUTH, FrameType.AUTH_OK, FrameType.DFS_REQ,
                    FrameType.XFER_OFFER, FrameType.TASK_SUBMIT,
                    FrameType.TASK_RESULT, FrameType.CRYPT_TASK}


class TestDerivation:
    def test_deterministic_and_mirrored(self):
        kc1, ks1 = derive_keys(PSK, CN, SN)
        kc2, ks2 = derive_keys(PSK, CN, SN)
        assert (kc1, ks1) == (kc2, ks2)
        client = ChannelKeys.for_role(PSK, CN, SN, is_client=True)
        server = ChannelKeys.for_role(PSK, CN, SN, is_client=False)
        assert client.send_key == server.recv_key
        assert client.recv_key == server.send_key

    def test_nonce_changes_keys(self):
        assert derive_keys(PSK, CN, SN) != derive_keys(PSK, CN, b"t" * 16)
        assert derive_keys(PSK, CN, SN) != derive_keys(PSK, b"d" * 16, SN)

    def test_zero_vector_pinned(self):
        # Regression pin: recorded from the derivation definition
        # (HMAC-SHA256 extract over the nonces, expand per direction).
        kc, ks = derive_keys(bytes(32), bytes(16), bytes(16))
        assert kc.hex() == "ac8e0d7ba4bad2b178c6323e050b3cee"
        assert ks.hex() == "8fa4fc7737697ef76eec95a763b00de8"

    def test_key_sizes(self):
        kc, ks = derive_keys(PSK, CN, SN)
        assert len(kc) == len(ks) == 16


class TestSealing:
    def pair(self):
        return (ChannelKeys.for_role(PSK, CN, SN, True),
                ChannelKeys.for_role(PSK, CN, SN, False))

    def test_round_trip(self):
        client, server = self.pair()
        sealed = client.seal(b"hello there", b"\x10")
        assert server.open(sealed, b"\x10") == b"hello there"

    def test_empty_plaintext_is_tag_only(self):
        client, server = self.pair()
        sealed = client.seal(b"", b"\x04")
        assert len(sealed) == 16
        assert server.open(sealed, b"\x04") == b""

    def test_tamper_detected(self):
        client, server = self.pair()
        sealed = bytearray(client.seal(b"payload", b"\x10"))
        sealed[3] ^= 0x01
        with pytest.raises(IntegrityFailure):
            server.open(bytes(sealed), b"\x10")

    def test_wrong_aad_detected(self):
        client, server = self.pair()
        sealed = client.seal(b"payload", b"\x10")
        with pytest.raises(IntegrityFailure):
            server.open(sealed, b"\x11")

    def test_replay_fails(self):
        # Lockstep counters: opening the same sealed bytes twice means the
        # receiver's nonce has moved on, so the tag cannot match.
        client, server = self.pair()
        sealed = client.seal(b"once", b"\x10")
        server.open(sealed, b"\x10")
        with pytest.raises(IntegrityFailure):
            server.open(sealed, b"\x10")

    def test_reorder_fails(self):
        client, server = self.pair()
        first = client.seal(b"first", b"\x10")
        second = client.seal(b"second", b"\x10")
        with pytest.raises(IntegrityFailure):
            server.open(second, b"\x10")
        # the failed attempt must not advance the receive counter
        assert server.open(first, b"\x10") == b"first"

    def test_counter_exhaustion(self):
        client, _ = self.pair()
        client.send_counter = 2**64 - 1
        client.seal(b"last one", b"\x10")
        with pytest.raises(CounterExhausted):
            client.seal(b"too far", b"\x10")

    @settings(max_examples=50)
    @given(st.binary(max_size=4096))
    def test_round_trip_property(self, plaintext):
        client = ChannelKeys.for_role(PSK, CN, SN, True)
        server = ChannelKeys.for_role(PSK, CN, SN, False)
        assert server.open(client.seal(plaintext, b"\x22"), b"\x22") == plaintext


class TestProof:
    def test_proof_is_32_bytes_and_keyed(self):
        p1 = credential_proof(PSK, CN, SN, "alice")
        assert len(p1) == 32
        assert p1 != credential_proof(PSK, CN, SN, "bob")
        assert p1 != credential_proof(b"\x01" * 32, CN, SN, "alice")
        assert p1 != credential_proof(PSK, CN, b"x" * 16, "alice")

    def test_proof_deterministic(self):
        assert credential_proof(PSK, CN, SN, "alice") == \
            credential_proof(PSK, CN, SN, "alice")


class TestClassification:
    def test_bootstrap_frames_always_clear(self):
        for mode in SecurityMode:
            for ft in BOOTSTRAP:
                assert classify_frame(ft, mode) == CLEAR

    def test_auth_always_sealed(self):
        for mode in SecurityMode:
            assert classify_frame(FrameType.AUTH, mode) == SEALED
            assert classify_frame(FrameType.AUTH_OK, mode) == SEALED

    def test_secure_seals_everything_else(self):
        assert {ft for ft in FrameType
                if classify_frame(ft, SecurityMode.SECURE) == CLEAR} == \
            BOOTSTRAP

    def test_semisecure_chunk_clear_control_sealed(self):
        assert {ft for ft in FrameType
                if classify_frame(ft, SecurityMode.SEMISECURE) == CLEAR} == \
            BOOTSTRAP | {FrameType.CHUNK}

    def test_nonsecure_seals_frames_that_carry_names_or_keys(self):
        """Under NONSECURE exactly AUTH, AUTH_OK and the frames that carry
        a path, a name or key material are sealed, each whole."""
        sealed = {ft for ft in FrameType
                  if classify_frame(ft, SecurityMode.NONSECURE) == SEALED}
        assert sealed == NONSECURE_SEALED


def channel_pair(security):
    """Two Channel objects joined by a socketpair, keys already derived."""
    a, b = socket.socketpair()
    params = SessionParams(Mode.DFSM, security)
    ch_a = Channel(a, params, ChannelKeys.for_role(PSK, CN, SN, True))
    ch_b = Channel(b, params, ChannelKeys.for_role(PSK, CN, SN, False))
    return ch_a, ch_b


class TestChannel:
    def test_sealed_round_trip(self):
        client, server = channel_pair(SecurityMode.SECURE)
        client.send(FrameType.DFS_REQ, b"request body")
        frame = server.recv()
        assert frame.frame_type == FrameType.DFS_REQ
        assert frame.payload == b"request body"
        client.close(), server.close()

    def test_clear_frame_when_policy_sealed_rejected(self):
        client, server = channel_pair(SecurityMode.SECURE)
        # bypass the policy: write a clear DFS_REQ straight to the socket
        raw = wire.encode_frame(wire.Frame(FrameType.DFS_REQ, b"clear!"))
        client.sock.sendall(raw)
        with pytest.raises(ProtocolError):
            server.recv()
        client.close(), server.close()

    def test_sealed_frame_when_policy_clear_rejected(self):
        client, server = channel_pair(SecurityMode.NONSECURE)
        raw = wire.encode_frame(
            wire.Frame(FrameType.DFS_RESP, b"x", flags=wire.FLAG_SEALED))
        client.sock.sendall(raw)
        with pytest.raises(ProtocolError):
            server.recv()
        client.close(), server.close()

    def test_nonsecure_field_round_trip(self):
        client, server = channel_pair(SecurityMode.NONSECURE)
        payload = wire.encode_fields({1: wire.u8(1), 3: b"a/b/c"})
        client.send(FrameType.DFS_REQ, payload)
        frame = server.recv()
        assert wire.decode_fields(frame.payload)[3] == b"a/b/c"
        client.close(), server.close()

    def test_expect_converts_error_frames(self):
        client, server = channel_pair(SecurityMode.SECURE)
        client.send(FrameType.ERROR, wire.error_payload(2, "gone"))
        from gridfs.errors import NoSuchFile
        with pytest.raises(NoSuchFile):
            server.expect(FrameType.DFS_RESP)
        client.close(), server.close()

    def test_large_frame_reassembly(self):
        client, server = channel_pair(SecurityMode.SECURE)
        blob = bytes(range(256)) * 1000
        done = []

        def pump():
            client.send(FrameType.DFS_RESP, blob)
            done.append(True)

        t = threading.Thread(target=pump)
        t.start()
        frame = server.recv()
        t.join()
        assert frame.payload == blob
        client.close(), server.close()


def test_serve_reports_request_errors_and_ends_on_protocol_errors():
    """The control-session loop answers a failed request with an ERROR
    frame and takes the next one; a frame of another type ends it."""
    client, server = channel_pair(SecurityMode.SECURE)
    client.sock.settimeout(5)
    handled = []

    def handle(frame):
        handled.append(frame.payload)
        if frame.payload == b"bad":
            raise BadRequest("refused")
        server.send(FrameType.TASK_STATUS, b"ok")

    outcome = []

    def run():
        try:
            server.serve(handle, FrameType.TASK_SUBMIT)
        except ProtocolError as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    client.send(FrameType.TASK_SUBMIT, b"bad")
    with pytest.raises(BadRequest, match="refused"):
        client.expect(FrameType.TASK_STATUS)
    client.send(FrameType.TASK_SUBMIT, b"good")
    assert client.expect(FrameType.TASK_STATUS).payload == b"ok"
    client.send(FrameType.CRYPT_TASK, b"stray")
    thread.join(5)
    assert not thread.is_alive()
    assert len(outcome) == 1 and handled == [b"bad", b"good"]
    client.close(), server.close()



# -- framing over the reused receive buffer ----------------------------------

class Capture:
    """Stands in for a socket on the sending side: keeps what is sent."""

    def __init__(self):
        self.sent = bytearray()

    def sendall(self, data):
        self.sent += data


class TrickleSocket(socket.socket):
    """A socket that hands over at most one byte per read."""

    def recv_into(self, buffer, nbytes=0, flags=0):
        return super().recv_into(buffer, 1, flags)


FRAMES = [
    (FrameType.DFS_RESP, b""),
    (FrameType.DFS_RESP, b"short"),
    (FrameType.CHUNK, bytes(range(256)) * 24),       # outgrows RECV_START
    # read in one go behind it, these leave part of a frame to move
    # to the front of the buffer
    *[(FrameType.DFS_RESP, bytes([k]) * 3000) for k in range(3)],
    (FrameType.TASK_STATUS, b"after the big one"),
    (FrameType.CHUNK, b"\x00" * 5000),
]


def raw_stream(security):
    """The bytes a channel sends for FRAMES."""
    sender = Channel(Capture(), SessionParams(Mode.DFSM, security),
                     ChannelKeys.for_role(PSK, CN, SN, True))
    for frame_type, payload in FRAMES:
        sender.send(frame_type, payload)
    return bytes(sender.sock.sent)


def receive_all(security, raw, trickle):
    """Decode `raw` with a fresh receiving channel over a socketpair,
    written in one sendall or, with `trickle`, one byte per sendall and
    read one byte per read."""
    a, b = socket.socketpair()
    if trickle:
        b = TrickleSocket(fileno=b.detach())
    b.settimeout(5)
    receiver = Channel(b, SessionParams(Mode.DFSM, security),
                       ChannelKeys.for_role(PSK, CN, SN, False))

    def write():
        if trickle:
            for k in range(len(raw)):
                a.sendall(raw[k:k + 1])
        else:
            a.sendall(raw)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return [(frame.frame_type, frame.payload, frame.flags)
                for frame in (receiver.recv() for _ in FRAMES)]
    finally:
        writer.join(5)
        assert not writer.is_alive()
        a.close(), receiver.close()


@pytest.mark.parametrize("security", [SecurityMode.NONSECURE,
                                      SecurityMode.SEMISECURE,
                                      SecurityMode.SECURE])
def test_frames_trickled_byte_by_byte_decode_as_one_burst(security):
    raw = raw_stream(security)
    burst = receive_all(security, raw, trickle=False)
    assert burst == [(frame_type, payload, 0)
                     for frame_type, payload in FRAMES]
    assert receive_all(security, raw, trickle=True) == burst


def test_oversized_header_is_refused_before_its_payload_is_read():
    """A header declaring more than the cap raises OversizedPayload while
    its payload is still unsent, and the buffer has not grown for it."""
    client, server = channel_pair(SecurityMode.NONSECURE)
    server.sock.settimeout(5)    # reading on for the payload would time out
    declared = server.max_payload + 1
    client.sock.sendall(struct.pack(wire.HEADER_FMT, wire.MAGIC,
                                    FrameType.DFS_RESP, 0, declared))
    with pytest.raises(OversizedPayload):
        server.recv()
    assert len(server._rbuf) == secchan.RECV_START
    client.close(), server.close()


@pytest.mark.parametrize("security", [SecurityMode.NONSECURE,
                                      SecurityMode.SECURE])
def test_received_payload_outlives_the_next_receive(security):
    """`recv` returns bytes of its own: the next frame, read into the same
    buffer at the same place, leaves the earlier payload intact."""
    client, server = channel_pair(security)
    first, second = b"a" * 3000, b"b" * 3000
    client.send(FrameType.DFS_RESP, first)
    frame = server.recv()
    client.send(FrameType.DFS_RESP, second)
    assert server.recv().payload == second
    assert type(frame.payload) is bytes
    assert frame.payload == first
    client.close(), server.close()


@pytest.mark.parametrize("security", list(SecurityMode),
                         ids=lambda mode: mode.name)
def test_a_sealed_chunk_gives_both_ends_its_tag(security):
    """`send` returns a sealed frame's AEAD tag, the last 16 bytes of its
    seal, and `recv` puts the same tag on the frame it opened; a clear
    CHUNK has None at both ends. The received tag outlives the next
    receive."""
    client, server = channel_pair(security)
    sent = [client.send(FrameType.CHUNK, bytes([n]) * 3000) for n in (1, 2)]
    received = [server.recv() for _ in sent]
    if security == SecurityMode.SECURE:
        assert [len(tag) for tag in sent] == [secchan.TAG_SIZE] * 2
        assert sent[0] != sent[1]
    else:
        assert sent == [None, None]
    assert [frame.tag for frame in received] == sent
    assert [frame.payload for frame in received] == [b"\x01" * 3000,
                                                     b"\x02" * 3000]
    client.close(), server.close()


def raw_frames(client, server, count):
    """The next `count` frames as they crossed the socket, undecoded."""
    client.sock.shutdown(socket.SHUT_WR)
    raw = b""
    while chunk := server.sock.recv(65536):
        raw += chunk
    frames = []
    for _ in range(count):
        frame, raw = wire.decode_frame(raw)
        frames.append(frame)
    assert raw == b""
    return frames


@pytest.mark.parametrize("frame_type", sorted(
    NONSECURE_SEALED - {FrameType.AUTH, FrameType.AUTH_OK}),
    ids=lambda ft: FrameType(ft).name)
def test_nonsecure_seals_a_named_frame_whole(frame_type):
    """Under NONSECURE a frame that carries a path travels whole under
    FLAG_SEALED: `send` returns its tag, the path is absent from the raw
    bytes, and the receiver's keys open it."""
    client, server = channel_pair(SecurityMode.NONSECURE)
    payload = wire.encode_fields({1: wire.u8(1), 2: b"secret/path.bin",
                                  3: b"secret/path.bin"})
    tag = client.send(frame_type, payload)
    assert len(tag) == secchan.TAG_SIZE
    [frame] = raw_frames(client, server, 1)
    assert frame.flags & wire.FLAG_SEALED
    assert b"secret/path.bin" not in frame.payload
    assert frame.payload[-secchan.TAG_SIZE:] == tag
    assert server.keys.open(bytes(frame.payload),
                            bytes([frame_type])) == payload
    client.close(), server.close()


def test_nonsecure_data_frames_stay_clear():
    """Under NONSECURE, DFS_RESP, CHUNK and XFER_DONE carry no name: they
    travel clear, and `send` returns no tag for them."""
    client, server = channel_pair(SecurityMode.NONSECURE)
    clear_types = (FrameType.DFS_RESP, FrameType.CHUNK, FrameType.XFER_DONE)
    payload = b"visible bytes"
    assert [client.send(ft, payload) for ft in clear_types] == [None] * 3
    frames = raw_frames(client, server, 3)
    assert [frame.frame_type for frame in frames] == list(clear_types)
    assert all(frame.flags == 0 and frame.payload == payload
               for frame in frames)
    client.close(), server.close()

