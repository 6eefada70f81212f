import socket
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfs import secchan, wire
from gridfs.errors import (
    BadRequest,
    CounterExhausted,
    IntegrityFailure,
    ProtocolError,
)
from gridfs.secchan import (
    CLEAR,
    FIELD_SEALED,
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
            for ft in (FrameType.HELLO, FrameType.WELCOME,
                       FrameType.AUTH_FAIL, FrameType.ERROR):
                assert classify_frame(ft, mode) == CLEAR

    def test_auth_always_sealed(self):
        for mode in SecurityMode:
            assert classify_frame(FrameType.AUTH, mode) == SEALED
            assert classify_frame(FrameType.AUTH_OK, mode) == SEALED

    def test_secure_seals_everything_else(self):
        for ft in (FrameType.DFS_REQ, FrameType.DFS_RESP, FrameType.CHUNK,
                   FrameType.XFER_OFFER, FrameType.TASK_RESULT):
            assert classify_frame(ft, SecurityMode.SECURE) == SEALED

    def test_semisecure_chunk_clear_control_sealed(self):
        assert classify_frame(FrameType.CHUNK, SecurityMode.SEMISECURE) == CLEAR
        for ft in (FrameType.DFS_REQ, FrameType.XFER_OFFER,
                   FrameType.XFER_DONE, FrameType.TASK_SUBMIT):
            assert classify_frame(ft, SecurityMode.SEMISECURE) == SEALED

    def test_nonsecure_path_fields_sealed(self):
        assert classify_frame(FrameType.DFS_REQ,
                              SecurityMode.NONSECURE) == FIELD_SEALED
        assert secchan.sealed_field_tags(FrameType.DFS_REQ) == (3,)
        assert classify_frame(FrameType.CHUNK, SecurityMode.NONSECURE) == CLEAR
        assert classify_frame(FrameType.DFS_RESP, SecurityMode.NONSECURE) == CLEAR


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

    def test_nonsecure_seals_only_path_field(self):
        client, server = channel_pair(SecurityMode.NONSECURE)
        payload = wire.encode_fields({1: wire.u8(1), 2: wire.u64(7),
                                      3: b"secret/path.bin"})
        client.send(FrameType.DFS_REQ, payload)
        client.sock.shutdown(socket.SHUT_WR)
        # inspect the raw bytes: op and request_id visible, path not
        raw = b""
        while True:
            chunk = server.sock.recv(65536)
            if not chunk:
                break
            raw += chunk
        frame, rest = wire.decode_frame(raw)
        assert rest == b""
        assert b"secret/path.bin" not in frame.payload
        fields = wire.decode_fields(frame.payload)
        assert fields[1] == wire.u8(1)
        assert fields[2] == wire.u64(7)
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

