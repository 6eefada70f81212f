import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfs import wire
from gridfs.errors import (
    BadMagic,
    MalformedFieldMap,
    ModeRejected,
    OversizedPayload,
    TruncatedFrame,
    VersionMismatch,
)
from gridfs.wire import (
    Frame,
    FrameType,
    Mode,
    SecurityMode,
    SessionParams,
    decode_fields,
    decode_frame,
    encode_fields,
    encode_frame,
    negotiate,
)


class TestFrameLayout:
    def test_empty_hello_bytes(self):
        # Known-good layout: magic, type 0x01, flags 0, length 0, no payload.
        raw = encode_frame(Frame(FrameType.HELLO))
        assert raw == bytes.fromhex("44473031" "01" "00" "00000000")
        assert len(raw) == 10

    def test_chunk_with_three_byte_payload(self):
        raw = encode_frame(Frame(FrameType.CHUNK, b"\xaa\xbb\xcc"))
        assert raw == bytes.fromhex("44473031" "22" "00" "00000003" "aabbcc")

    def test_header_is_ten_bytes(self):
        assert wire.HEADER_SIZE == 10

    def test_decode_returns_rest(self):
        raw = encode_frame(Frame(FrameType.ERROR, b"xy")) + b"tail"
        frame, rest = decode_frame(raw)
        assert frame.frame_type == FrameType.ERROR
        assert frame.payload == b"xy"
        assert rest == b"tail"

    def test_bad_magic(self):
        raw = b"NOPE" + bytes(6)
        with pytest.raises(BadMagic):
            decode_frame(raw)

    def test_truncated_header_reports_needed(self):
        with pytest.raises(TruncatedFrame) as ei:
            decode_frame(b"DG01\x01")
        assert ei.value.needed == 5

    def test_truncated_payload_reports_needed(self):
        raw = encode_frame(Frame(FrameType.CHUNK, b"abcdef"))
        with pytest.raises(TruncatedFrame) as ei:
            decode_frame(raw[:-2])
        assert ei.value.needed == 2

    def test_oversize_rejected_before_slicing(self):
        # Header declares 2^31 bytes; decode must refuse without consuming.
        raw = b"DG01\x22\x00\x80\x00\x00\x00"
        with pytest.raises(OversizedPayload):
            decode_frame(raw)

    def test_encode_respects_cap(self):
        with pytest.raises(OversizedPayload):
            encode_frame(Frame(FrameType.CHUNK, b"x" * 11), max_payload=10)

    def test_flags_round_trip(self):
        raw = encode_frame(Frame(FrameType.AUTH, b"q", flags=wire.FLAG_SEALED))
        frame, _ = decode_frame(raw)
        assert frame.flags == wire.FLAG_SEALED


@settings(max_examples=200)
@given(frame_type=st.sampled_from(sorted(FrameType)),
       payload=st.binary(max_size=2048),
       flags=st.integers(0, 255))
def test_frame_round_trip(frame_type, payload, flags):
    frame = Frame(frame_type, payload, flags)
    decoded, rest = decode_frame(encode_frame(frame))
    assert decoded == frame
    assert rest == b""


@settings(max_examples=300)
@given(st.binary(max_size=64))
def test_decode_total_on_junk(data):
    # Decoding must either succeed or raise one of the framing errors,
    # never anything else.
    try:
        decode_frame(data)
    except (BadMagic, TruncatedFrame, OversizedPayload):
        pass


def test_decode_total_seeded_fuzz():
    rng = random.Random(0x5EED)
    for _ in range(5000):
        n = rng.randrange(0, 40)
        data = bytes(rng.randrange(256) for _ in range(n))
        if rng.random() < 0.5:
            data = b"DG01" + data
        try:
            decode_frame(data)
        except (BadMagic, TruncatedFrame, OversizedPayload):
            pass


class TestFieldMap:
    def test_round_trip(self):
        fields = {1: b"", 2: b"abc", 250: b"\x00" * 9}
        assert decode_fields(encode_fields(fields)) == fields

    def test_duplicate_tag_rejected(self):
        raw = encode_fields({1: b"a"}) + encode_fields({1: b"b"})
        with pytest.raises(MalformedFieldMap):
            decode_fields(raw)

    def test_truncated_value(self):
        raw = encode_fields({3: b"abcdef"})
        with pytest.raises(MalformedFieldMap):
            decode_fields(raw[:-1])

    def test_truncated_header(self):
        with pytest.raises(MalformedFieldMap):
            decode_fields(b"\x01\x00\x00")

    def test_unknown_tags_survive(self):
        # Consumers read the tags they know and skip the rest; the decoder
        # must hand every tag through untouched.
        raw = encode_fields({7: b"future", 1: b"now"})
        fields = decode_fields(raw)
        assert fields[1] == b"now"
        assert fields[7] == b"future"

    @given(st.dictionaries(st.integers(0, 255), st.binary(max_size=128),
                           max_size=12))
    def test_round_trip_property(self, fields):
        assert decode_fields(encode_fields(fields)) == fields

    def test_read_uint_widths(self):
        fields = {1: wire.u8(7), 2: wire.u16(700), 3: wire.u32(70000),
                  4: wire.u64(2**40)}
        assert wire.read_uint(fields, 1) == 7
        assert wire.read_uint(fields, 2) == 700
        assert wire.read_uint(fields, 3) == 70000
        assert wire.read_uint(fields, 4) == 2**40
        assert wire.read_uint(fields, 9, 42) == 42
        with pytest.raises(MalformedFieldMap):
            wire.read_uint(fields, 9)

    def test_string_list_round_trip(self):
        items = ["", "alpha", "päth/with/slash"]
        assert wire.unpack_strings(wire.pack_strings(items)) == items

    def test_blob_list_round_trip(self):
        items = [b"", b"\x00\xff", b"x" * 100]
        assert wire.unpack_blobs(wire.pack_blobs(items)) == items


class TestNegotiate:
    def test_exact_match(self):
        p = SessionParams(Mode.DFSM, buffer_size=262144)
        out = negotiate(p, server_cap=262144)
        assert out.buffer_size == 262144

    def test_server_cap_wins(self):
        p = SessionParams(Mode.FTSM_PUSH, buffer_size=1048576, stream_count=4)
        out = negotiate(p, server_cap=262144)
        assert out.buffer_size == 262144
        assert out.stream_count == 4

    def test_floor_applies(self):
        p = SessionParams(Mode.DFSM, buffer_size=16)
        out = negotiate(p, server_cap=262144)
        assert out.buffer_size == wire.MIN_BUFFER

    def test_dfsm_single_stream(self):
        p = SessionParams(Mode.DFSM, stream_count=8)
        out = negotiate(p, server_cap=262144)
        assert out.stream_count == 1

    def test_version_mismatch(self):
        p = SessionParams(Mode.DFSM, version=2)
        with pytest.raises(VersionMismatch):
            negotiate(p, server_cap=262144, server_version=1)

    def test_disabled_mode(self):
        p = SessionParams(Mode.TASK)
        with pytest.raises(ModeRejected):
            negotiate(p, server_cap=262144, enabled_modes={Mode.DFSM})


class TestHello:
    def test_round_trip(self):
        p = SessionParams(Mode.FTSM_PULL, SecurityMode.SECURE,
                          buffer_size=65536, stream_count=2)
        nonce = bytes(range(16))
        payload = wire.hello_payload(p, nonce)
        q, n2 = wire.parse_hello(payload)
        assert n2 == nonce
        assert (q.mode, q.security, q.buffer_size, q.stream_count) == \
            (p.mode, p.security, p.buffer_size, p.stream_count)

    def test_data_connection_marker(self):
        """A HELLO names no transfer: tags 8 and 9 are retired, and a data
        session names its transfer and stream in XFER_JOIN instead."""
        fields = decode_fields(wire.hello_payload(
            SessionParams(Mode.FTSM_PUSH, stream_count=2), bytes(16)))
        assert not {8, 9} & fields.keys()
        tid = bytes(range(16))
        assert wire.parse_join(wire.join_payload(tid, 3)) == (tid, 3)

    @pytest.mark.parametrize("mode", list(Mode))
    def test_hello_names_no_session_and_no_transfer(self, mode):
        """No HELLO, nor the WELCOME that echoes it, carries tag 6 (a
        session id, which the node now makes itself) or tags 8 and 9 (a
        data connection's transfer and stream)."""
        params = SessionParams(mode, SecurityMode.SECURE, stream_count=4)
        for payload in (wire.hello_payload(params, bytes(16)),
                        wire.welcome_payload(params, bytes(16))):
            assert not {6, 8, 9} & decode_fields(payload).keys()

    def test_unknown_mode_rejected(self):
        fields = decode_fields(wire.hello_payload(SessionParams(Mode.DFSM),
                                                  bytes(16)))
        fields[wire.T_MODE] = wire.u8(99)
        with pytest.raises(ModeRejected):
            wire.parse_hello(encode_fields(fields))

    def test_error_payload(self):
        payload = wire.error_payload(4, "locked out")
        assert wire.parse_error(payload) == (4, "locked out")


def test_docstring_records_every_frame_type_and_version():
    """The module docstring is the wire's record: its frame type registry
    names every FrameType, and its version history has one entry for each
    version from 1 to PROTOCOL_VERSION, so a wire change that bumps the
    version must also say what changed."""
    doc = wire.__doc__
    registry = doc[doc.index("Frame type registry:"):
                   doc.index("A session starts")]
    missing = [member.name for member in FrameType
               if f"0x{member.value:02X} {member.name}" not in registry]
    assert missing == []
    history = [int(n) for n in re.findall(r"^    (\d+)  \S", doc, re.M)]
    assert history == list(range(1, wire.PROTOCOL_VERSION + 1))
