"""Transfer engine: planning, chunk codec, resume state, and loopback runs."""

import hashlib
import os
import socket
import struct
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridfs import ftsm, secchan, wire
from gridfs.errors import (
    AuthFailed,
    BadRequest,
    ConnectionLost,
    EmptyRegion,
    NoSuchFile,
    PermissionDenied,
    StateCorrupt,
    StreamLost,
)
from gridfs.ftsm import (
    ChunkGrid,
    TransferClient,
    TransferState,
    assign_missing,
    load_state,
    pack_chunk,
    plan_transfer,
    save_state,
    state_path,
    throughput_mbps,
    unpack_chunk,
)
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

from conftest import ALICE_PSK, BOB_PSK, GRID_PSK

ALL_MODES = [SecurityMode.NONSECURE, SecurityMode.SEMISECURE,
             SecurityMode.SECURE]


def ordinal_of(grid):
    """Each chunk's ordinal in `grid`, by its offset."""
    return {offset: k for k, (offset, _) in enumerate(grid.chunks())}


def region_digest(data, grid):
    """The region digest of `data`, the bytes of `grid`'s region, as the
    clear modes take it: DIGEST over the DIGEST of each chunk."""
    region = ftsm.DIGEST()
    for offset, length in grid.chunks():
        start = offset - grid.region_offset
        region.update(ftsm.chunk_digest(data[start:start + length]))
    return region.digest()


# -- planning ---------------------------------------------------------------

def test_even_split_into_four_spans():
    grid = plan_transfer(100, (0, 100), 4, 25)
    assert [(s.offset, s.length) for s in grid.spans()] == \
        [(0, 25), (25, 25), (50, 25), (75, 25)]


def test_uneven_split_last_span_shorter():
    grid = plan_transfer(10, None, 4, 1024)
    assert [s.length for s in grid.spans()] == [3, 3, 3, 1]


def test_tiny_file_yields_fewer_spans_than_streams():
    grid = plan_transfer(5, None, 8, 1024)
    assert [s.length for s in grid.spans()] == [1, 1, 1, 1, 1]


def test_zero_length_region_refused():
    with pytest.raises(EmptyRegion):
        plan_transfer(100, (10, 0), 2, 64)


def test_region_outside_file_refused():
    with pytest.raises(BadRequest):
        plan_transfer(100, (90, 20), 2, 64)
    with pytest.raises(BadRequest):
        plan_transfer(100, (-1, 5), 2, 64)


def test_bad_stream_and_chunk_counts_refused():
    with pytest.raises(BadRequest):
        plan_transfer(10, None, 0, 64)
    with pytest.raises(BadRequest):
        plan_transfer(10, None, 2, 0)
    with pytest.raises(BadRequest):
        ChunkGrid(0, 10, 1, 0)    # a peer's offer must not loop forever


@given(file_size=st.integers(1, 10_000),
       streams=st.integers(1, 16),
       chunk=st.integers(1, 700),
       data=st.data())
@settings(max_examples=200)
def test_spans_and_chunks_partition_the_region(file_size, streams, chunk,
                                                data):
    grid = plan_transfer(file_size, None, streams, chunk)
    spans = grid.spans()
    assert spans[0].offset == 0
    for before, after in zip(spans, spans[1:]):
        assert before.offset + before.length == after.offset
        assert before.length > 0
    assert spans[-1].offset + spans[-1].length == file_size
    assert len(spans) <= streams

    chunks = grid.chunks()
    assert sum(length for _, length in chunks) == file_size
    assert all(1 <= length <= chunk for _, length in chunks)
    covered = set()
    for offset, length in chunks:
        span = set(range(offset, offset + length))
        assert not (covered & span)
        covered |= span
    assert covered == set(range(file_size))

    assert [c for group in grid.chunks_by_span() for c in group] == chunks
    ordinals = ordinal_of(grid)
    assert len(ordinals) == len(chunks)
    assert all(ordinals[offset] == k for k, (offset, _) in enumerate(chunks))

    everything = frozenset(range(len(chunks)))
    marked = data.draw(st.one_of(
        st.just(everything),
        st.sets(st.sampled_from(sorted(everything)))))
    state = TransferState.fresh(bytes(16), grid)
    for k in marked:
        state.mark(k, chunks[k][1])
    assert state.missing() == sorted(everything - marked)
    for subject in (state, TransferState.decode(state.encode())):
        assert subject.complete() == (not subject.missing())
        assert subject.complete() == (marked == everything)


def test_chunk_ordinals_are_span_major():
    grid = ChunkGrid(0, 10, 3, 3)    # spans 4,4,2 -> chunks 3+1, 3+1, 2
    assert grid.chunks() == [(0, 3), (3, 1), (4, 3), (7, 1), (8, 2)]
    assert ordinal_of(grid) == {0: 0, 3: 1, 4: 2, 7: 3, 8: 4}


# -- chunk frame codec ------------------------------------------------------

def test_chunk_header_is_29_bytes_fixed_layout():
    tid = bytes(range(16))
    raw = pack_chunk(tid, 7, 0x1122334455667788, b"xyz")
    assert raw[:16] == tid
    assert raw[16] == 7
    assert raw[17:25] == bytes.fromhex("1122334455667788")
    assert raw[25:29] == struct.pack(">I", 3)
    assert raw[29:] == b"xyz"


@given(tid=st.binary(min_size=16, max_size=16),
       stream=st.integers(0, 255),
       offset=st.integers(0, 2**64 - 1),
       payload=st.binary(max_size=512))
@settings(max_examples=300)
def test_chunk_round_trip(tid, stream, offset, payload):
    assert unpack_chunk(pack_chunk(tid, stream, offset, payload)) == \
        (tid, stream, offset, payload)


def test_chunk_length_disagreement_rejected():
    raw = pack_chunk(bytes(16), 0, 0, b"abcd")
    with pytest.raises(BadRequest):
        unpack_chunk(raw[:-1])
    with pytest.raises(BadRequest):
        unpack_chunk(raw + b"z")
    with pytest.raises(BadRequest):
        unpack_chunk(raw[:20])


# -- resume state -----------------------------------------------------------

def test_state_round_trip(tmp_path):
    grid = ChunkGrid(0, 1000, 3, 100)
    state = TransferState.fresh(os.urandom(16), grid)
    state.mark(0, 100)
    state.mark(4, 100)
    dst = tmp_path / "f.bin"
    dst.write_bytes(bytes(1000))
    save_state(dst, state)
    loaded = load_state(dst)
    assert loaded.grid == grid
    assert loaded.transfer_id == state.transfer_id
    assert bytes(loaded.bitmap) == bytes(state.bitmap)
    assert loaded.total_received == 200
    assert loaded.missing() == [k for k in range(len(grid.chunks()))
                                if k not in (0, 4)]


def test_state_absent_is_none(tmp_path):
    assert load_state(tmp_path / "nothing.bin") is None


def test_state_garbage_is_corrupt(tmp_path):
    dst = tmp_path / "f.bin"
    dst.touch()
    state_path(dst).write_bytes(b"not a fieldmap at all")
    with pytest.raises(StateCorrupt):
        load_state(dst)


def test_state_bitmap_length_mismatch_is_corrupt():
    grid = ChunkGrid(0, 1000, 2, 100)
    state = TransferState.fresh(os.urandom(16), grid)
    raw = TransferState(state.transfer_id, grid,
                        bytearray(99)).encode()
    with pytest.raises(StateCorrupt):
        TransferState.decode(raw)


def test_state_tail_bits_set_is_corrupt():
    grid = ChunkGrid(0, 1000, 2, 100)    # 10 chunks -> 2 bitmap bytes
    state = TransferState.fresh(os.urandom(16), grid)
    state.bitmap[1] |= 0x80    # bit 15: beyond chunk 9
    with pytest.raises(StateCorrupt):
        TransferState.decode(state.encode())


def test_state_claiming_bytes_beyond_destination_is_corrupt(tmp_path):
    grid = ChunkGrid(0, 1000, 2, 100)
    state = TransferState.fresh(os.urandom(16), grid)
    state.mark(9, 100)    # last chunk: needs dst size >= 1000
    dst = tmp_path / "f.bin"
    dst.write_bytes(bytes(500))
    save_state(dst, state)
    with pytest.raises(StateCorrupt):
        load_state(dst)


def test_assign_missing_deals_runs_round_robin():
    grid = ChunkGrid(0, 1000, 2, 100)    # chunks k at offset 100k
    missing = [0, 1, 2, 5, 6, 9]         # runs [0,1,2] [5,6] [9]
    first, second = assign_missing(grid, missing, 2)
    assert first == [(0, 100), (100, 100), (200, 100), (900, 100)]
    assert second == [(500, 100), (600, 100)]


def test_assign_missing_drops_idle_streams():
    grid = ChunkGrid(0, 300, 1, 100)
    assignments = assign_missing(grid, [1], 8)
    assert assignments == [[(100, 100)]]


# -- throughput formula -----------------------------------------------------

def test_throughput_formula_matches_worked_example():
    assert throughput_mbps(10**9, 12.84) == pytest.approx(623.05, abs=0.01)


def test_throughput_zero_bytes_is_zero():
    assert throughput_mbps(0, 5.0) == 0.0
    assert throughput_mbps(0, 0.0) == 0.0


# -- loopback transfers -----------------------------------------------------

@pytest.fixture(autouse=True)
def close_clients(monkeypatch):
    """Close every TransferClient a test makes, and so its held sessions,
    when the test ends."""
    made = []
    real_init = TransferClient.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(TransferClient, "__init__", init)
    yield
    for mover in made:
        mover.close()


def client(node, streams=1, security=SecurityMode.NONSECURE, username="grid",
           psk=GRID_PSK, chunk_size=None, buffer_size=65536):
    return TransferClient(("127.0.0.1", node.port), username, psk,
                          security=security, streams=streams,
                          buffer_size=buffer_size, chunk_size=chunk_size)


def storage(node):
    return node.config.storage_root


def test_push_round_trip(node, tmp_path):
    data = os.urandom(1_000_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    report = client(node, streams=4).push(src, "in/dest.bin")
    dst = storage(node) / "in" / "dest.bin"
    assert dst.read_bytes() == data
    assert report.bytes_moved == len(data)
    assert sum(report.per_stream) == len(data)
    assert not report.resumed
    assert not state_path(dst).exists()


def test_pull_round_trip(node, tmp_path):
    data = os.urandom(750_001)
    remote = storage(node) / "out.bin"
    remote.write_bytes(data)
    local = tmp_path / "local.bin"
    report = client(node, streams=3).pull("out.bin", local)
    assert local.read_bytes() == data
    assert report.bytes_moved == len(data)
    assert not state_path(local).exists()


def test_stream_counts_give_identical_bytes(node, tmp_path):
    data = os.urandom(300_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    digests = set()
    for streams in (1, 2, 5, 8):
        client(node, streams=streams).push(src, f"n{streams}.bin")
        digests.add(hashlib.sha256(
            (storage(node) / f"n{streams}.bin").read_bytes()).digest())
    assert digests == {hashlib.sha256(data).digest()}


def test_security_modes_give_identical_bytes(node, tmp_path):
    data = os.urandom(200_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    for mode in SecurityMode:
        client(node, streams=2, security=mode).push(src, f"m{mode}.bin")
        assert (storage(node) / f"m{mode}.bin").read_bytes() == data


def test_partial_region_push_lands_byte_exact(node, tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"0123456789ABCDEF")
    client(node).push(src, "part.bin", region=(10, 5))
    dst = storage(node) / "part.bin"
    assert dst.read_bytes()[10:15] == b"ABCDE"
    assert dst.stat().st_size == 15


def test_partial_region_pull_lands_byte_exact(node, tmp_path):
    remote = storage(node) / "part-src.bin"
    remote.write_bytes(b"0123456789ABCDEF")
    local = tmp_path / "part.bin"
    client(node).pull("part-src.bin", local, region=(10, 5))
    assert local.read_bytes()[10:15] == b"ABCDE"


def test_empty_file_push(node, tmp_path):
    src = tmp_path / "empty.bin"
    src.touch()
    start = time.monotonic()
    report = client(node).push(src, "empty.bin")
    assert time.monotonic() - start < 0.5    # no data connection to await
    assert report.bytes_moved == 0
    dst = storage(node) / "empty.bin"
    assert dst.exists() and dst.stat().st_size == 0


def test_shorter_push_replaces_longer_file(node, tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(os.urandom(90_000))
    client(node, streams=2).push(src, "shrink.bin")
    src.write_bytes(os.urandom(30_000))
    client(node, streams=2).push(src, "shrink.bin")
    assert (storage(node) / "shrink.bin").read_bytes() == src.read_bytes()


def test_region_push_keeps_the_tail(node, tmp_path):
    remote = storage(node) / "keep.bin"
    remote.write_bytes(b"0123456789ABCDEF")
    src = tmp_path / "src.bin"
    src.write_bytes(b"XXXXX")
    client(node).push(src, "keep.bin", region=(0, 5))
    assert remote.read_bytes() == b"XXXXX56789ABCDEF"


def test_shorter_pull_replaces_longer_local(node, tmp_path):
    remote = storage(node) / "short.bin"
    remote.write_bytes(os.urandom(20_000))
    local = tmp_path / "short.bin"
    local.write_bytes(os.urandom(70_000))
    client(node, streams=2).pull("short.bin", local)
    assert local.read_bytes() == remote.read_bytes()


def test_empty_push_replaces_nonempty_remote(node, tmp_path):
    remote = storage(node) / "wipe.bin"
    remote.write_bytes(b"leftover")
    src = tmp_path / "empty.bin"
    src.touch()
    client(node).push(src, "wipe.bin")
    assert remote.read_bytes() == b""


def test_push_creates_parent_directories(node, tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"nested")
    client(node).push(src, "a/b/c/deep.bin")
    assert (storage(node) / "a" / "b" / "c" / "deep.bin").read_bytes() == \
        b"nested"


def test_small_chunks_many_streams(node, tmp_path):
    # chunk grid much finer than the spans: exercises interleaved arrivals
    data = os.urandom(65_537)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    client(node, streams=8, chunk_size=999).push(src, "fine.bin")
    assert (storage(node) / "fine.bin").read_bytes() == data


def test_push_denied_without_file_permission(node, tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"payload")
    with pytest.raises(PermissionDenied):
        client(node, username="bob", psk=BOB_PSK).push(src, "refused.bin")
    assert not (storage(node) / "home" / "bob" / "refused.bin").exists()


def test_pull_denied_outside_sandbox(node, tmp_path):
    (storage(node) / "secret.bin").write_bytes(b"top")
    with pytest.raises(PermissionDenied):
        client(node, username="alice", psk=ALICE_PSK).pull(
            "../../secret.bin", tmp_path / "stolen.bin")


def test_wrong_psk_rejected(node, tmp_path):
    src = tmp_path / "src.bin"
    src.write_bytes(b"payload")
    with pytest.raises(AuthFailed):
        client(node, psk=b"x" * 32).push(src, "nope.bin")


def test_mem_bench_conserves_bytes(node):
    report = client(node, streams=2, chunk_size=32768).bench_mem(0.3)
    assert report.bytes_moved > 0
    assert report.bytes_moved == sum(report.per_stream)
    assert len(report.per_stream) == 2
    assert report.mbps > 0
    assert report.seconds < 0.8    # the sink completes: no idle grace


def test_pull_source_shrinking_mid_transfer_is_reported(node, tmp_path):
    """Driven by hand: the node's source shrinks after XFER_ACCEPT of a
    2-stream pull, so the second chunk of stream 1 comes up short, and
    stream 1's data connection says why instead of just closing."""
    remote = storage(node) / "shrinks.bin"
    remote.write_bytes(os.urandom(40_000))
    params = SessionParams(Mode.FTSM_PULL, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=2)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    try:
        transfer_id = os.urandom(16)
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"shrinks.bin",
            ftsm.X_STREAMS: wire.u8(2),
            ftsm.X_CHUNK_SIZE: wire.u32(10_000),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        with open(remote, "r+b") as handle:
            handle.truncate(35_000)
        # stream 1 carries [20000, 30000) and the now short [30000, 40000)
        data = secchan.connect(("127.0.0.1", node.port), params, "grid",
                               GRID_PSK, transfer_id=transfer_id,
                               stream_index=1)
        try:
            frames = [data.recv()]
            while frames[-1].frame_type == FrameType.CHUNK:
                frames.append(data.recv())
        finally:
            data.close()
    finally:
        control.close()
    assert [f.frame_type for f in frames] == \
        [FrameType.CHUNK, FrameType.ERROR]
    _, message = wire.parse_error(frames[-1].payload)
    assert "source shrank mid-transfer" in message


# -- resume -----------------------------------------------------------------

def interrupted_push(node, src, remote, fraction=0.5, streams=2,
                     chunk_size=4096, username="grid", psk=GRID_PSK):
    """Drive a push by hand and abandon it partway: no DONE, dead streams."""
    data_len = src.stat().st_size
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=streams)
    control = secchan.connect(("127.0.0.1", node.port), params, username, psk)
    try:
        transfer_id = os.urandom(16)
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: remote.encode(),
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(data_len),
            ftsm.X_STREAMS: wire.u8(streams),
            ftsm.X_CHUNK_SIZE: wire.u32(chunk_size),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        grid = ChunkGrid(0, data_len, streams, chunk_size)
        chunks = grid.chunks()
        keep = chunks[:max(1, int(len(chunks) * fraction))]
        sent = 0
        data = secchan.connect(("127.0.0.1", node.port), params, username,
                               psk, transfer_id=transfer_id, stream_index=0)
        with open(src, "rb") as handle:
            for offset, length in keep:
                handle.seek(offset)
                data.send(FrameType.CHUNK,
                          pack_chunk(transfer_id, 0, offset,
                                     handle.read(length)))
                sent += length
        data.close()
    finally:
        control.close()    # vanish without DONE
    return sent


def wait_for_state(dst, minimum_bytes, timeout=5.0):
    import time
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            state = load_state(dst)
        except StateCorrupt:
            state = None
        if state is not None and state.total_received >= minimum_bytes:
            return state
        time.sleep(0.02)
    raise AssertionError("transfer state never reached the expected size")


def test_interrupted_push_leaves_resumable_state(node, tmp_path):
    data = os.urandom(400_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    sent = interrupted_push(node, src, "half.bin", fraction=0.5)
    dst = storage(node) / "half.bin"
    state = wait_for_state(dst, sent)
    assert not state.complete()
    assert state.total_received == sent

    report = client(node, streams=4, chunk_size=4096).push(src, "half.bin")
    assert report.resumed
    assert report.bytes_moved == len(data) - sent     # only the gap resent
    assert dst.read_bytes() == data
    assert not state_path(dst).exists()


def test_resume_after_interrupt_at_various_fractions(node, tmp_path):
    data = os.urandom(120_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    for k, fraction in enumerate((0.1, 0.9)):
        remote = f"frac{k}.bin"
        sent = interrupted_push(node, src, remote, fraction=fraction,
                                chunk_size=2048)
        dst = storage(node) / remote
        wait_for_state(dst, sent)
        report = client(node, streams=3, chunk_size=2048).push(src, remote)
        assert report.resumed
        assert dst.read_bytes() == data
        assert not state_path(dst).exists()


def test_mismatched_parameters_start_fresh(node, tmp_path):
    data = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    sent = interrupted_push(node, src, "re.bin", chunk_size=4096)
    wait_for_state(storage(node) / "re.bin", sent)
    # different chunk size: the old grid no longer applies
    report = client(node, streams=2, chunk_size=8192).push(src, "re.bin")
    assert not report.resumed
    assert report.bytes_moved == len(data)
    assert (storage(node) / "re.bin").read_bytes() == data


def test_pull_resume_from_local_state(node, tmp_path):
    data = os.urandom(300_000)
    (storage(node) / "big.bin").write_bytes(data)
    local = tmp_path / "big.bin"

    # fabricate a half-finished local pull: first half of the chunks on
    # disk, matching sidecar beside it
    grid = ChunkGrid(0, len(data), 2, 4096)
    chunks = grid.chunks()
    state = TransferState.fresh(os.urandom(16), grid)
    have = 0
    with open(local, "wb") as handle:
        for ordinal, (offset, length) in enumerate(chunks):
            if ordinal % 2 == 0:
                handle.seek(offset)
                handle.write(data[offset:offset + length])
                state.mark(ordinal, length)
                have += length
    save_state(local, state)

    report = client(node, streams=2, chunk_size=4096).pull("big.bin", local)
    assert report.resumed
    assert report.bytes_moved == len(data) - have
    assert local.read_bytes() == data
    assert not state_path(local).exists()


def test_resume_of_complete_state_sends_nothing(node, tmp_path):
    data = os.urandom(50_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    client(node, chunk_size=4096).push(src, "done.bin")
    dst = storage(node) / "done.bin"
    # rebuild a complete sidecar as if DONE never arrived
    grid = ChunkGrid(0, len(data), 1, 4096)
    state = TransferState.fresh(os.urandom(16), grid)
    for ordinal, (_, length) in enumerate(grid.chunks()):
        state.mark(ordinal, length)
    save_state(dst, state)

    report = client(node, chunk_size=4096).push(src, "done.bin")
    assert report.resumed
    assert report.bytes_moved == 0
    assert dst.read_bytes() == data
    assert not state_path(dst).exists()


def test_pull_resume_over_fewer_streams_than_the_sidecar(node, tmp_path):
    """The sidecar's stream count is grid geometry: a 1-stream pull must
    resume a 4-stream sidecar over the one data connection it opens."""
    data = os.urandom(200_000)
    (storage(node) / "wide.bin").write_bytes(data)
    local = tmp_path / "wide.bin"
    grid = ChunkGrid(0, len(data), 4, 4096)
    state = TransferState.fresh(os.urandom(16), grid)
    have = 0
    with open(local, "wb") as handle:
        for ordinal, (offset, length) in enumerate(grid.chunks()):
            if ordinal % 3 == 0:
                handle.seek(offset)
                handle.write(data[offset:offset + length])
                state.mark(ordinal, length)
                have += length
    save_state(local, state)

    report = client(node, streams=1, chunk_size=4096).pull("wide.bin", local)
    assert report.resumed
    assert report.bytes_moved == len(data) - have
    assert local.read_bytes() == data
    assert not state_path(local).exists()


def interrupted_pull(node, remote, local, keep, monkeypatch):
    """Run a 1-stream whole-file pull in 4 KiB chunks that loses its
    connection once `keep` chunks have landed, leaving them recorded in
    the sidecar beside `local`."""
    real_write_chunk = ftsm.RegionReceiver.write_chunk
    landed = []

    def cut(receiver, offset, payload, digest=None):
        if len(landed) == keep:
            raise ConnectionLost("connection cut")
        real_write_chunk(receiver, offset, payload, digest)
        landed.append(offset)

    mover = client(node, chunk_size=4096)
    control = mover.dial(Mode.FTSM_PULL)
    try:
        with monkeypatch.context() as patch:
            patch.setattr(ftsm.RegionReceiver, "write_chunk", cut)
            with pytest.raises(StreamLost):
                mover.pull_on(control, remote, local)
    finally:
        control.close()
    assert load_state(local).total_received == keep * 4096


@pytest.mark.parametrize("new_chunks", [3, 16], ids=["shrunk", "grown"])
def test_pull_after_the_remote_file_changed_size_gets_the_new_file(
        node, tmp_path, monkeypatch, new_chunks):
    """An interrupted whole-file pull of 8 chunks, then the remote file is
    replaced by one of another size that keeps the old prefix. The
    sidecar does not continue the node's new plan, so the next pull
    starts afresh and returns exactly the new file, not a failure or the
    old length."""
    old = os.urandom(8 * 4096)
    remote = storage(node) / "resized.bin"
    remote.write_bytes(old)
    local = tmp_path / "resized.bin"
    interrupted_pull(node, "resized.bin", local, 4, monkeypatch)
    new = (old + os.urandom(8 * 4096))[:new_chunks * 4096]
    remote.write_bytes(new)

    with client(node, chunk_size=4096) as mover:
        report = mover.pull("resized.bin", local)
    assert not report.resumed
    assert report.bytes_moved == len(new)
    assert local.read_bytes() == new
    assert not state_path(local).exists()


def test_a_resume_record_with_a_short_bitmap_is_state_corrupt(
        node, tmp_path, monkeypatch):
    """A node whose XFER_RESUME record has a bitmap short of its geometry:
    the push raises StateCorrupt, a GridfsError, and sends no chunk."""
    data = os.urandom(20 * 4096)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    record = TransferState(os.urandom(16), ChunkGrid(0, len(data), 1, 4096),
                           bytearray(2)).encode()    # 20 chunks need 3 bytes
    chunks = []

    def resume_with_the_record(service, channel, account, mode, raw):
        channel.send(FrameType.XFER_RESUME, wire.encode_fields({
            ftsm.X_TRANSFER: wire.decode_fields(raw)[ftsm.X_TRANSFER],
            ftsm.X_STATE: record}))
        while True:
            chunks.append(channel.expect(FrameType.CHUNK))

    monkeypatch.setattr(ftsm.FtsmService, "offer", resume_with_the_record)
    with client(node, chunk_size=4096) as mover:
        with pytest.raises(StateCorrupt):
            mover.push(src, "short.bin")
    assert chunks == []


def test_a_pull_record_naming_a_vast_grid_is_refused_unlisted(node):
    """A pull offer whose record names a 2^62-byte region in 1-byte
    chunks, with a bitmap of a few bytes: the node refuses it as
    StateCorrupt at once, from the chunk count alone, without listing the
    record's chunks, and the session serves the next offer."""
    (storage(node) / "small.bin").write_bytes(bytes(4096))
    record = wire.encode_fields({
        ftsm.S_TRANSFER: os.urandom(16),
        ftsm.S_REGION_OFFSET: wire.u64(0),
        ftsm.S_REGION_LENGTH: wire.u64(1 << 62),
        ftsm.S_CHUNK_SIZE: wire.u32(1),
        ftsm.S_STREAMS: wire.u8(1),
        ftsm.S_BITMAP: bytes(8),
        ftsm.S_TOTAL: wire.u64(0),
    })
    params = SessionParams(Mode.FTSM_PULL, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    offer = {ftsm.X_PATH: b"small.bin", ftsm.X_STREAMS: wire.u8(1),
             ftsm.X_CHUNK_SIZE: wire.u32(4096)}
    try:
        start = time.monotonic()
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: os.urandom(16), ftsm.X_STATE: record, **offer}))
        with pytest.raises(StateCorrupt):
            control.expect(FrameType.XFER_ACCEPT)
        assert time.monotonic() - start < 2.0
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: os.urandom(16), **offer}))
        control.expect(FrameType.XFER_ACCEPT)
    finally:
        control.close()


@given(length=st.integers(0, 10_000), streams=st.integers(1, 300),
       chunk=st.integers(1, 700))
@settings(max_examples=300)
def test_chunk_count_agrees_with_the_enumeration(length, streams, chunk):
    grid = ChunkGrid(5, length, streams, chunk)
    assert grid.chunk_count == len(grid.chunks())


def test_offer_beyond_one_frame_of_bitmap_is_refused(node, tmp_path):
    """A region whose resume bitmap cannot fit one frame at the session's
    buffer size is refused before the node enumerates its chunks, in
    either direction; the session stays usable."""
    length = 8 * 4096 + 8        # 1-byte chunks: a bitmap over 4096 bytes
    (storage(node) / "many.bin").write_bytes(bytes(length))
    for mode, fields in (
            (Mode.FTSM_PUSH, {ftsm.X_PATH: b"many-in.bin",
                              ftsm.X_REGION_OFFSET: wire.u64(0),
                              ftsm.X_REGION_LENGTH: wire.u64(length)}),
            (Mode.FTSM_PULL, {ftsm.X_PATH: b"many.bin"})):
        params = SessionParams(mode, SecurityMode.NONSECURE,
                               buffer_size=4096, stream_count=1)
        control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                                  GRID_PSK)
        try:
            assert control.params.buffer_size == 4096
            for _ in range(2):
                control.send(FrameType.XFER_OFFER, wire.encode_fields({
                    ftsm.X_TRANSFER: os.urandom(16),
                    ftsm.X_STREAMS: wire.u8(1),
                    ftsm.X_CHUNK_SIZE: wire.u32(1),
                    **fields}))
                with pytest.raises(BadRequest):
                    control.expect(FrameType.XFER_ACCEPT)
        finally:
            control.close()
    assert not (storage(node) / "many-in.bin").exists()


def test_stray_frame_inside_an_offer_ends_the_session(node):
    """A frame out of the transfer choreography is a protocol error: the
    node drops the transfer and closes the session instead of answering
    with an ERROR frame and reading on."""
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    transfer_id = os.urandom(16)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"stray.bin",
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(10),
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(10),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        control.send(FrameType.TASK_STATUS, b"")    # not XFER_DONE
        with pytest.raises(ConnectionLost):
            control.expect(FrameType.XFER_DONE)
    finally:
        control.close()
    assert node.registry.lookup(transfer_id) is None


@pytest.mark.parametrize("case, message", [
    ("unknown id", "unknown transfer"),
    ("other security",
     "data connection security differs from the control session"),
    ("other user", "data connection user differs from the transfer owner"),
    ("pull stream 0", "pull stream 0 takes no data connection"),
    ("pull stream past the plan", "pull stream 2 takes no data connection"),
])
def test_data_connection_admission_refusals(node, case, message):
    """An authenticated data connection joins a live transfer only with
    its id, its security mode and its owner, and a pull's only for a
    stream 1..n-1 of its plan, since stream 0 rides the control session;
    anything else gets an ERROR frame in place of AUTH_OK that says
    which."""
    address = ("127.0.0.1", node.port)
    pull = case.startswith("pull")
    mode, streams = (Mode.FTSM_PULL, 2) if pull else (Mode.FTSM_PUSH, 1)
    if pull:
        (storage(node) / "admit.bin").write_bytes(os.urandom(20))
    control = secchan.connect(address, SessionParams(
        mode, SecurityMode.NONSECURE, buffer_size=65536,
        stream_count=streams), "grid", GRID_PSK)
    transfer_id = os.urandom(16)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"admit.bin",
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(10 * streams),
            ftsm.X_STREAMS: wire.u8(streams),
            ftsm.X_CHUNK_SIZE: wire.u32(10),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        security = (SecurityMode.SECURE if case == "other security"
                    else SecurityMode.NONSECURE)
        username, psk = (("alice", ALICE_PSK) if case == "other user"
                         else ("grid", GRID_PSK))
        with pytest.raises(BadRequest) as refused:
            secchan.connect(
                address, SessionParams(mode, security, buffer_size=65536,
                                       stream_count=streams),
                username, psk,
                transfer_id=(os.urandom(16) if case == "unknown id"
                             else transfer_id),
                stream_index=2 if case.endswith("plan") else 0)
        assert str(refused.value) == message
    finally:
        control.close()


@pytest.mark.parametrize("psk", [b"", BOB_PSK], ids=["no psk", "wrong psk"])
@pytest.mark.parametrize("security", [SecurityMode.NONSECURE,
                                      SecurityMode.SEMISECURE],
                         ids=["NONSECURE", "SEMISECURE"])
def test_forged_data_hello_is_refused_at_auth(node, sniff_factory, tmp_path,
                                              monkeypatch, security, psk):
    """A watcher of a 2-stream push learns a live transfer id, its stream
    and its owner's name: from the clear XFER_JOIN under NONSECURE, from a
    clear CHUNK header under SEMISECURE. A data session dialled with them
    but without the owner's PSK fails AUTH; one that sends a CHUNK or an
    XFER_JOIN where its AUTH belongs is dropped. Nothing they send lands:
    the owner's push completes with its own bytes on its first offer."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    address = ("127.0.0.1", node.port)
    stream_1_joined, forged = threading.Event(), threading.Event()
    real_send_chunks = ftsm.send_chunks

    def held_send_chunks(channel, transfer_id, index, *args):
        if index == 1:
            stream_1_joined.set()
            forged.wait(10)
        return real_send_chunks(channel, transfer_id, index, *args)

    monkeypatch.setattr(ftsm, "send_chunks", held_send_chunks)
    data = os.urandom(40_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    mover = TransferClient(proxy.address, "grid", GRID_PSK, security=security,
                           streams=2, buffer_size=65536, chunk_size=4096)
    reports = []
    pusher = threading.Thread(target=lambda: reports.append(
        mover.push(src, "owned.bin")))
    pusher.start()
    try:
        assert stream_1_joined.wait(10)
        clear, read = ((FrameType.XFER_JOIN, wire.parse_join)
                       if security == SecurityMode.NONSECURE else
                       (FrameType.CHUNK, lambda raw: unpack_chunk(raw)[:2]))
        deadline = time.monotonic() + 5
        while not (seen := proxy.payloads(clear)):
            assert time.monotonic() < deadline, "no transfer id captured"
            time.sleep(0.01)
        transfer_id, stream_index = read(seen[0])
        params, _ = wire.parse_hello(proxy.payloads(FrameType.HELLO)[0])
        with pytest.raises(AuthFailed):
            secchan.connect(address, params, "grid", psk,
                            transfer_id=transfer_id,
                            stream_index=stream_index)

        offset, length = ChunkGrid(0, len(data), 2, 4096) \
            .chunks_by_span()[stream_index][0]
        hello = wire.decode_fields(wire.hello_payload(params, os.urandom(16)))
        hello[secchan.T_USER] = b"grid"
        for frame_type, payload in (
                (FrameType.CHUNK, pack_chunk(transfer_id, stream_index,
                                             offset, os.urandom(length))),
                (FrameType.XFER_JOIN, wire.join_payload(transfer_id,
                                                        stream_index))):
            sock = socket.create_connection(address, timeout=5)
            forger = secchan.Channel(sock, params, keys=None)
            try:
                sock.sendall(wire.encode_frame(wire.Frame(
                    FrameType.HELLO, wire.encode_fields(hello))))
                forger.expect(FrameType.WELCOME)
                sock.sendall(wire.encode_frame(wire.Frame(frame_type,
                                                          payload)))
                with pytest.raises(ConnectionLost, match="peer closed"):
                    forger.recv()
            finally:
                forger.close()
    finally:
        forged.set()
        pusher.join(10)
        mover.close()
    assert not pusher.is_alive()
    assert [report.bytes_moved for report in reports] == [len(data)]
    assert proxy.count(FrameType.XFER_OFFER) == 1
    assert (storage(node) / "owned.bin").read_bytes() == data


def test_secure_transfers_show_no_transfer_id(node, sniff_factory, tmp_path,
                                              monkeypatch):
    """Under SECURE a data session names its transfer only in its sealed
    XFER_JOIN, so a watcher of a 2-stream push and a 2-stream pull sees
    neither transfer's id anywhere on the wire."""
    transfer_ids = []
    real_init = ftsm.RegionSender.__init__

    def recording_init(self, src, transfer_id, *args):
        transfer_ids.append(transfer_id)
        real_init(self, src, transfer_id, *args)

    monkeypatch.setattr(ftsm.RegionSender, "__init__", recording_init)
    proxy = sniff_factory(("127.0.0.1", node.port))
    data = os.urandom(40_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    with TransferClient(proxy.address, "grid", GRID_PSK,
                        security=SecurityMode.SECURE, streams=2,
                        buffer_size=65536, chunk_size=4096) as mover:
        mover.push(src, "sealed.bin")
        mover.pull("sealed.bin", tmp_path / "back.bin")
    assert (tmp_path / "back.bin").read_bytes() == data
    assert len(transfer_ids) == 2          # the push's, then the pull's
    assert proxy.count(FrameType.XFER_JOIN) == 4    # ask and reply, twice
    raw = proxy.raw()
    assert [tid for tid in transfer_ids if tid in raw] == []


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_join_in_the_wrong_direction_is_refused(node, sniff_factory,
                                                tmp_path, monkeypatch,
                                                direction):
    """A data session joins only in its transfer's direction: an
    FTSM_PULL session that joins a live push is refused with BadRequest,
    and so is an FTSM_PUSH session that joins a pull. The owner's
    transfer still completes with its own bytes on its first offer."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    stream_1_running, tried = threading.Event(), threading.Event()
    seen = []
    real_send_chunks = ftsm.send_chunks

    def held_send_chunks(channel, transfer_id, index, *args):
        if index == 1:
            seen.append(transfer_id)
            stream_1_running.set()
            tried.wait(10)
        return real_send_chunks(channel, transfer_id, index, *args)

    monkeypatch.setattr(ftsm, "send_chunks", held_send_chunks)
    data = os.urandom(40_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    (storage(node) / "owned.bin").write_bytes(data)
    mover = TransferClient(proxy.address, "grid", GRID_PSK, streams=2,
                           buffer_size=65536, chunk_size=4096)
    reports = []
    owner = threading.Thread(target=lambda: reports.append(
        mover.push(src, "owned.bin") if direction == "push"
        else mover.pull("owned.bin", tmp_path / "back.bin")))
    owner.start()
    wrong, name = ((Mode.FTSM_PULL, "push") if direction == "push"
                   else (Mode.FTSM_PUSH, "pull"))
    try:
        assert stream_1_running.wait(10)
        with pytest.raises(BadRequest) as refused:
            secchan.connect(("127.0.0.1", node.port), SessionParams(
                wrong, SecurityMode.NONSECURE, buffer_size=65536,
                stream_count=2), "grid", GRID_PSK,
                transfer_id=seen[0], stream_index=1)
        assert str(refused.value) == \
            f"an {wrong.name} session cannot join a {name}"
    finally:
        tried.set()
        owner.join(10)
        mover.close()
    assert not owner.is_alive()
    assert [report.bytes_moved for report in reports] == [len(data)]
    assert proxy.count(FrameType.XFER_OFFER) == 1
    landed = (storage(node) / "owned.bin" if direction == "push"
              else tmp_path / "back.bin")
    assert landed.read_bytes() == data


def test_push_missing_a_chunk_is_refused_at_once(node):
    """Driven by hand: XFER_DONE arrives after the only data connection
    closed with one of two chunks sent. Nothing is left in flight, so the
    node refuses the push without waiting for more data."""
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    address = ("127.0.0.1", node.port)
    control = secchan.connect(address, params, "grid", GRID_PSK)
    transfer_id = os.urandom(16)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"short.bin",
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(20),
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(10),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        data = secchan.connect(address, params, "grid", GRID_PSK,
                               transfer_id=transfer_id)
        data.send(FrameType.CHUNK, pack_chunk(transfer_id, 0, 0, bytes(10)))
        data.close()
        start = time.monotonic()
        control.send(FrameType.XFER_DONE, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_REGION_DIGEST: region_digest(
                bytes(20), ChunkGrid(0, 20, 1, 10))}))
        with pytest.raises(StreamLost, match="1 chunks never arrived"):
            control.expect(FrameType.XFER_DONE)
        assert time.monotonic() - start < 0.5
    finally:
        control.close()


@pytest.mark.parametrize("tag, digest", [
    (7, lambda data: hashlib.md5(data).digest()),
    (14, lambda data: hashlib.sha256(data).digest()),
], ids=["tag 7", "tag 14"])
def test_push_done_without_a_sha256_digest_is_refused_once(node, tag,
                                                           digest):
    """Driven by hand, as an older peer pushes: every chunk lands on the
    control session, but XFER_DONE carries only the digest of a retired
    tag, the MD5 of tag 7 or the whole-data SHA-256 of protocol
    version 2's tag 14, and no X_REGION_DIGEST. The node refuses the push
    at once with BadRequest, which no client retries, and forgets the
    transfer."""
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    transfer_id = os.urandom(16)
    data = os.urandom(20)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"old.bin",
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(20),
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(10),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        for offset in (0, 10):
            control.send(FrameType.CHUNK, pack_chunk(
                transfer_id, 0, offset, data[offset:offset + 10]))
        start = time.monotonic()
        control.send(FrameType.XFER_DONE, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id, tag: digest(data)}))
        with pytest.raises(BadRequest, match="no SHA-256 region digest"):
            control.expect(FrameType.XFER_DONE)
        assert time.monotonic() - start < 0.5
    finally:
        control.close()
    assert node.registry.lookup(transfer_id) is None

    attempts = []

    def refused():
        attempts.append(time.monotonic())
        raise BadRequest("XFER_DONE carries no SHA-256 region digest")

    with pytest.raises(BadRequest):
        ftsm._with_retries(refused)
    assert len(attempts) == 1


def test_data_connection_slow_to_join_lands_its_chunks(node, tmp_path,
                                                       monkeypatch):
    """Each data connection's join takes longer than a second; the push
    still lands every chunk, because the client sends none before its
    connection has joined."""
    real_lookup = ftsm.TransferRegistry.lookup

    def slow_lookup(registry, transfer_id):
        time.sleep(1.2)
        return real_lookup(registry, transfer_id)

    monkeypatch.setattr(ftsm.TransferRegistry, "lookup", slow_lookup)
    data = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    report = client(node, streams=2, chunk_size=8192).push(src, "slow.bin")
    assert report.bytes_moved == len(data)
    assert (storage(node) / "slow.bin").read_bytes() == data


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_push_after_the_landed_part_changed_starts_afresh(node, tmp_path,
                                                         security):
    """A resume whose already-landed chunks no longer match the source
    fails its digest; the node drops the full sidecar and the client's
    retry pushes the whole file again."""
    old = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(old)
    sent = interrupted_push(node, src, "changed.bin", fraction=0.5)
    dst = storage(node) / "changed.bin"
    wait_for_state(dst, sent)
    new = os.urandom(sent) + old[sent:]
    src.write_bytes(new)

    report = client(node, streams=2, security=security,
                    chunk_size=4096).push(src, "changed.bin")
    assert not report.resumed
    assert report.bytes_moved == len(new)
    assert dst.read_bytes() == new
    assert not state_path(dst).exists()


# -- randomized interleaving ------------------------------------------------

def test_randomized_chunk_interleavings_reassemble(node, tmp_path):
    """Same file, several schedules: shuffled manual sends must land the
    same bytes a straight push does."""
    import random
    rng = random.Random(0xF75)
    data = os.urandom(80_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    for trial in range(3):
        remote = f"shuffle{trial}.bin"
        params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                               buffer_size=65536, stream_count=2)
        control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                                  GRID_PSK)
        transfer_id = os.urandom(16)
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: remote.encode(),
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(len(data)),
            ftsm.X_STREAMS: wire.u8(2),
            ftsm.X_CHUNK_SIZE: wire.u32(3000),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        grid = ChunkGrid(0, len(data), 2, 3000)
        chunks = grid.chunks()
        rng.shuffle(chunks)
        conn = secchan.connect(("127.0.0.1", node.port), params, "grid",
                               GRID_PSK, transfer_id=transfer_id,
                               stream_index=0)
        for offset, length in chunks:
            conn.send(FrameType.CHUNK,
                      pack_chunk(transfer_id, 0, offset,
                                 data[offset:offset + length]))
        conn.close()
        control.send(FrameType.XFER_DONE, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_REGION_DIGEST: region_digest(data, grid)}))
        control.expect(FrameType.XFER_DONE)
        control.close()
        assert (storage(node) / remote).read_bytes() == data


# -- stream 0 on the control session ----------------------------------------


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_single_stream_transfer_opens_one_connection(node, sniff_factory,
                                                     tmp_path, security):
    """A single-stream push and a single-stream pull each open their
    control session and nothing else, and move the bytes exactly."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = TransferClient(proxy.address, "grid", GRID_PSK,
                           security=security, streams=1, buffer_size=65536,
                           chunk_size=16384)
    data = os.urandom(200_001)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    pushed = mover.push(src, "one.bin")
    assert proxy.count(FrameType.HELLO) == 1
    assert (storage(node) / "one.bin").read_bytes() == data
    back = tmp_path / "back.bin"
    pulled = mover.pull("one.bin", back)
    assert proxy.count(FrameType.HELLO) == 2
    assert back.read_bytes() == data
    assert pushed.per_stream == pulled.per_stream == [len(data)]


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_three_streams_open_three_connections(node, sniff_factory, tmp_path,
                                              direction):
    """Stream 0 rides the control session; streams 1 and 2 each open a
    data connection of their own."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = TransferClient(proxy.address, "grid", GRID_PSK, streams=3,
                           buffer_size=65536, chunk_size=8192)
    data = os.urandom(300_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    if direction == "push":
        report = mover.push(src, "three.bin")
        landed = (storage(node) / "three.bin").read_bytes()
    else:
        (storage(node) / "three.bin").write_bytes(data)
        back = tmp_path / "back.bin"
        report = mover.pull("three.bin", back)
        landed = back.read_bytes()
    assert landed == data
    assert proxy.count(FrameType.HELLO) == 3
    assert proxy.count(FrameType.AUTH) == 3
    assert len(report.per_stream) == 3 and all(report.per_stream)


@pytest.mark.parametrize("security, sealed", [
    (SecurityMode.SECURE, True),
    (SecurityMode.SEMISECURE, False),
    (SecurityMode.NONSECURE, False),
], ids=["SECURE", "SEMISECURE", "NONSECURE"])
def test_chunks_on_the_control_session_keep_the_seal_policy(
        node, sniff_factory, tmp_path, security, sealed):
    """Under SECURE every CHUNK frame on the control session, the only
    connection a single-stream push and pull open, is sealed in both
    directions; under the other modes it travels clear."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = TransferClient(proxy.address, "grid", GRID_PSK,
                           security=security, buffer_size=65536,
                           chunk_size=16384)
    data = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    mover.push(src, "sealed.bin")
    mover.pull("sealed.bin", tmp_path / "back.bin")
    assert proxy.count(FrameType.HELLO) == 2
    chunks = [(direction, flags, payload)
              for direction, ftype, flags, payload in proxy.frames
              if ftype == FrameType.CHUNK]
    assert {direction for direction, _, _ in chunks} == {"c2s", "s2c"}
    assert all(bool(flags & wire.FLAG_SEALED) == sealed
               for _, flags, _ in chunks)
    assert (data[:4096] in proxy.raw()) != sealed


def test_inline_pull_source_shrinking_mid_transfer_is_reported(
        node, tmp_path, monkeypatch):
    """The node's source shrinks while it sends stream 0 on the control
    session: the client's pull fails with the node's cause, and the
    transfer leaves no registry entry."""
    remote = storage(node) / "shrinks.bin"
    remote.write_bytes(os.urandom(40_000))
    real_send_chunks = ftsm.send_chunks
    transfers = []

    def shrinking(channel, transfer_id, stream_index, src, chunks):
        transfers.append(transfer_id)
        with open(src, "r+b") as handle:
            handle.truncate(15_000)
        return real_send_chunks(channel, transfer_id, stream_index, src,
                                chunks)

    monkeypatch.setattr(ftsm, "send_chunks", shrinking)
    mover = client(node, chunk_size=10_000)
    control = mover.dial(Mode.FTSM_PULL)
    try:
        with pytest.raises(StreamLost, match="source shrank mid-transfer"):
            mover.pull_on(control, "shrinks.bin", tmp_path / "back.bin")
    finally:
        control.close()
    assert len(transfers) == 1
    assert node.registry.lookup(transfers[0]) is None


@pytest.mark.parametrize("case, message", [
    ("off the grid", "chunk does not lie on the transfer grid"),
    ("other transfer", "chunk for a different transfer"),
])
def test_bad_chunk_on_the_control_session_ends_the_transfer(node, case,
                                                            message):
    """A CHUNK on the control session that the transfer cannot take
    ends the transfer with an ERROR that says why."""
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    transfer_id = os.urandom(16)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"bad-chunk.bin",
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(20),
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(10),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        if case == "off the grid":
            chunk = pack_chunk(transfer_id, 0, 5, bytes(10))
        else:
            chunk = pack_chunk(os.urandom(16), 0, 0, bytes(10))
        control.send(FrameType.CHUNK, chunk)
        with pytest.raises(BadRequest) as refused:
            control.expect(FrameType.XFER_DONE)
        assert str(refused.value) == message
    finally:
        control.close()
    assert node.registry.lookup(transfer_id) is None


# -- sidecar write policy ---------------------------------------------------

def counted_saves(monkeypatch):
    """Count the receiver's sidecar writes; returns the list of states."""
    saves = []
    real_save = ftsm.save_state

    def counting(dst, state):
        saves.append(state.total_received)
        real_save(dst, state)

    monkeypatch.setattr(ftsm, "save_state", counting)
    return saves


def receiver_over(tmp_path, chunks=64, chunk_size=1024):
    grid = ChunkGrid(0, chunks * chunk_size, 1, chunk_size)
    dst = tmp_path / "dst.bin"
    data = os.urandom(grid.region_length)
    return ftsm.RegionReceiver(dst, os.urandom(16), grid), dst, data


def assert_sidecar_marks(dst, grid, landed, data):
    """Check the sidecar marks exactly the chunks in `landed`, each of
    them on disk byte for byte."""
    state = load_state(dst)
    chunks = grid.chunks()
    assert [k for k in range(len(chunks)) if state.has(k)] == sorted(landed)
    assert state.total_received == sum(chunks[k][1] for k in landed)
    on_disk = dst.read_bytes()
    for k in landed:
        offset, length = chunks[k]
        assert on_disk[offset:offset + length] == data[offset:offset + length]


def test_sidecar_writes_at_most_once_per_interval(tmp_path, monkeypatch):
    saves = counted_saves(monkeypatch)
    receiver, dst, data = receiver_over(tmp_path)
    start = time.monotonic()
    for offset, length in receiver.grid.chunks():
        receiver.write_chunk(offset, data[offset:offset + length])
    elapsed = time.monotonic() - start
    assert saves[0] == 1024      # the first chunk is recorded at once
    assert len(saves) <= 1 + -(-elapsed // ftsm.SIDECAR_INTERVAL)
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert dst.read_bytes() == data


def test_abort_records_exactly_the_landed_chunks(tmp_path, monkeypatch):
    saves = counted_saves(monkeypatch)
    receiver, dst, data = receiver_over(tmp_path)
    landed = [0, 3, 4, 9, 40, 63]
    chunks = receiver.grid.chunks()
    for k in landed:
        offset, length = chunks[k]
        receiver.write_chunk(offset, data[offset:offset + length])
    receiver.abort()
    assert saves[-1] == len(landed) * 1024
    assert_sidecar_marks(dst, receiver.grid, landed, data)
    writes = len(saves)
    receiver.abort()    # nothing new landed: nothing to write
    assert len(saves) == writes


def test_incomplete_finish_leaves_the_landed_chunks_recorded(tmp_path):
    receiver, dst, data = receiver_over(tmp_path)
    landed = list(range(0, 64, 2))
    chunks = receiver.grid.chunks()
    for k in landed:
        offset, length = chunks[k]
        receiver.write_chunk(offset, data[offset:offset + length])
    with pytest.raises(ftsm.IncompleteTransfer):
        receiver.finish(region_digest(data, receiver.grid))
    assert_sidecar_marks(dst, receiver.grid, landed, data)
    receiver.abort()
    assert_sidecar_marks(dst, receiver.grid, landed, data)


def test_finished_receiver_leaves_no_sidecar_even_after_abort(
        tmp_path, monkeypatch):
    saves = counted_saves(monkeypatch)
    receiver, dst, data = receiver_over(tmp_path)
    for offset, length in receiver.grid.chunks():
        receiver.write_chunk(offset, data[offset:offset + length])
    writes = len(saves)
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert not state_path(dst).exists()
    receiver.abort()
    assert not state_path(dst).exists()
    assert len(saves) == writes


@pytest.mark.parametrize("interval", [0.0, 0.05])
def test_sidecar_on_disk_never_marks_an_unwritten_chunk(
        tmp_path, monkeypatch, interval):
    """Four writers land chunks in parallel while a reader checks every
    sidecar it finds: each chunk it marks is on disk byte for byte."""
    import sys
    monkeypatch.setattr(ftsm, "SIDECAR_INTERVAL", interval)
    receiver, dst, data = receiver_over(tmp_path, chunks=256)
    chunks = receiver.grid.chunks()
    done = threading.Event()
    seen = threading.Event()    # the reader has checked a sidecar
    checked = []
    errors = []
    waits = []

    def check() -> None:
        while not done.is_set():
            try:
                state = load_state(dst)
            except StateCorrupt:
                continue    # newer than the file size it was read with
            if state is None:
                continue
            on_disk = dst.read_bytes()
            for k, (offset, length) in enumerate(chunks):
                if state.has(k) and on_disk[offset:offset + length] != \
                        data[offset:offset + length]:
                    errors.append(k)
            checked.append(state.total_received)
            seen.set()

    def land(index: int) -> None:
        for n, (offset, length) in enumerate(chunks[index::4]):
            receiver.write_chunk(offset, data[offset:offset + length])
            if n == 0:
                # a sidecar is saved on the first chunk: hold the rest
                # until the reader has checked one, so `done` never
                # comes before any check
                waits.append(seen.wait(5.0))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        reader = threading.Thread(target=check, daemon=True)
        reader.start()
        failures = ftsm.fan_out(land, 4)
        receiver.abort()
        done.set()
        reader.join(5.0)
    finally:
        sys.setswitchinterval(switch)
    assert not reader.is_alive()
    assert failures == [None] * 4
    assert waits == [True] * 4
    assert checked and not errors
    assert_sidecar_marks(dst, receiver.grid, range(len(chunks)), data)


# -- the sender's digest, taken as the chunks are sent -----------------------

def test_push_of_a_source_changed_mid_transfer_never_lands_a_wrong_file(
        node, tmp_path, monkeypatch):
    """The client's source is rewritten, same size, after stream 0's
    first chunk: the push either fails its digest or, retried, lands the
    new bytes exactly."""
    old, new = os.urandom(1_000_000), os.urandom(1_000_000)
    src = tmp_path / "moving.bin"
    src.write_bytes(old)
    os.utime(src, ns=(10**9, 10**9))
    real_send_chunks = ftsm.send_chunks
    rewrites = []

    def rewriting(channel, transfer_id, stream_index, src, chunks):
        if rewrites or stream_index:
            return real_send_chunks(channel, transfer_id, stream_index, src,
                                    chunks)
        sent = real_send_chunks(channel, transfer_id, 0, src, chunks[:1])
        src.write_bytes(new)
        rewrites.append(transfer_id)
        return sent + real_send_chunks(channel, transfer_id, 0, src,
                                       chunks[1:])

    monkeypatch.setattr(ftsm, "send_chunks", rewriting)
    try:
        report = client(node, streams=2, chunk_size=16384).push(
            src, "moving.bin")
    except ftsm.IntegrityMismatch:
        pass
    else:
        assert report.bytes_moved == len(new)
        assert (storage(node) / "moving.bin").read_bytes() == new
    assert rewrites


def test_digest_error_reaches_the_caller(node, tmp_path, monkeypatch):
    """An OSError while the pushing client folds its region digest ends
    the push with that error, and the push is not retried."""
    src = tmp_path / "src.bin"
    src.write_bytes(os.urandom(300_000))
    calls = []

    def failing(*args, **kwargs):
        calls.append(args)
        raise OSError("read failed")

    monkeypatch.setattr(ftsm, "md5_region", failing)
    with pytest.raises(OSError, match="read failed"):
        client(node, streams=2, chunk_size=65536).push(src, "failed.bin")
    assert len(calls) == 1


def test_pull_of_a_source_changed_mid_transfer_never_lands_a_wrong_file(
        node, tmp_path, monkeypatch):
    """The node's source is rewritten, same size, after stream 0's first
    chunk: the pull either fails its digest or, retried, lands the new
    bytes exactly."""
    old, new = os.urandom(1_000_000), os.urandom(1_000_000)
    remote = storage(node) / "moving.bin"
    remote.write_bytes(old)
    os.utime(remote, ns=(10**9, 10**9))
    real_send_chunks = ftsm.send_chunks
    rewrites = []

    def rewriting(channel, transfer_id, stream_index, src, chunks):
        if rewrites or stream_index:
            return real_send_chunks(channel, transfer_id, stream_index, src,
                                    chunks)
        sent = real_send_chunks(channel, transfer_id, 0, src, chunks[:1])
        src.write_bytes(new)
        rewrites.append(transfer_id)
        return sent + real_send_chunks(channel, transfer_id, 0, src,
                                       chunks[1:])

    monkeypatch.setattr(ftsm, "send_chunks", rewriting)
    local = tmp_path / "moving.bin"
    try:
        report = client(node, streams=2, chunk_size=16384).pull(
            "moving.bin", local)
    except ftsm.IntegrityMismatch:
        pass
    else:
        assert report.bytes_moved == len(new)
        assert local.read_bytes() == new
    assert rewrites


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_only_clear_chunks_are_hashed(node, tmp_path, monkeypatch,
                                      security):
    """A 2-stream push and a 2-stream pull of 64 chunks each. Under SECURE
    each chunk's hash-list entry is the AEAD tag of the frame that
    carried it, so no side hashes a moved chunk; in the clear modes each
    side hashes each chunk once."""
    data = os.urandom(64 * 4096)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    hashed = []
    real_chunk_digest = ftsm.chunk_digest

    def counted(payload):
        hashed.append(len(payload))
        return real_chunk_digest(payload)

    monkeypatch.setattr(ftsm, "chunk_digest", counted)
    with client(node, streams=2, security=security,
                chunk_size=4096) as mover:
        mover.push(src, "hashed.bin")
        pushed = len(hashed)
        mover.pull("hashed.bin", tmp_path / "back.bin")
    per_side = 0 if security == SecurityMode.SECURE else 64
    assert (pushed, len(hashed) - pushed) == (2 * per_side, 2 * per_side)
    assert (storage(node) / "hashed.bin").read_bytes() == data
    assert (tmp_path / "back.bin").read_bytes() == data


class BitFlipRelay:
    """TCP relay that flips one bit in the payload of the first CHUNK a
    client sends on the first connection it relays, and passes every
    other byte through unchanged. The client-to-node direction is
    forwarded one whole frame at a time."""

    def __init__(self, target, at=ftsm.CHUNK_HEADER.size + 100):
        self.target = target
        self.at = at                   # byte of the frame payload flipped
        self.flipped = threading.Event()
        self._first = True
        self._socks = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()
        threading.Thread(target=self._accept, daemon=True).start()

    def _accept(self):
        while True:
            try:
                near, _ = self._listener.accept()
            except OSError:
                return
            far = socket.create_connection(self.target)
            self._socks += [near, far]
            flip, self._first = self._first, False
            threading.Thread(target=self._pump, args=(near, far, flip),
                             daemon=True).start()
            threading.Thread(target=self._pump, args=(far, near, False),
                             daemon=True).start()

    def _pump(self, src, dst, flip):
        buffer = bytearray()
        while True:
            try:
                data = src.recv(65536)
            except OSError:
                data = b""
            if not data:
                break
            buffer += data
            if not flip:
                dst.sendall(buffer)
                del buffer[:]
                continue
            while len(buffer) >= wire.HEADER_SIZE:
                _, ftype, _, length = struct.unpack_from(wire.HEADER_FMT,
                                                         buffer)
                end = wire.HEADER_SIZE + length
                if len(buffer) < end:
                    break
                if ftype == FrameType.CHUNK and not self.flipped.is_set():
                    buffer[wire.HEADER_SIZE + self.at] ^= 0x01
                    self.flipped.set()
                dst.sendall(buffer[:end])
                del buffer[:end]
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self):
        self._listener.close()
        for sock in self._socks:
            sock.close()


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_a_chunk_changed_in_flight_never_lands_a_wrong_file(
        node, tmp_path, monkeypatch, security):
    """A relay flips one bit inside a CHUNK's payload on the control
    connection. Under SECURE the frame fails to open; in the clear modes
    the region digest fails. Either way the push fails or, retried, lands
    the exact bytes."""
    monkeypatch.setattr(ftsm.time, "sleep", lambda seconds: None)
    data = os.urandom(32 * 4096)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    relay = BitFlipRelay(("127.0.0.1", node.port))
    try:
        with TransferClient(relay.address, "grid", GRID_PSK,
                            security=security, streams=2,
                            buffer_size=65536, chunk_size=4096) as mover:
            try:
                mover.push(src, "flipped.bin")
            except (ftsm.GridfsError, OSError):
                pass
            else:
                assert (storage(node) / "flipped.bin").read_bytes() == data
    finally:
        relay.close()
    assert relay.flipped.is_set()


@pytest.mark.parametrize("security, offers", [
    (SecurityMode.SECURE, 2), (SecurityMode.NONSECURE, 1),
], ids=["SECURE", "NONSECURE"])
def test_a_source_touched_mid_push_is_sent_again_only_under_secure(
        node, tmp_path, monkeypatch, security, offers):
    """The source's times change after stream 0's first chunk, its bytes
    do not. The sender hashes the region again from disk. Under SECURE
    those hashes cannot equal the receiver's entries, the chunks' AEAD
    tags, so the first offer fails its digest and the re-offer lands the
    file; in the clear modes the hashes agree and the first offer
    lands it."""
    data = os.urandom(16 * 4096)
    src = tmp_path / "touched.bin"
    src.write_bytes(data)
    os.utime(src, ns=(10**9, 10**9))
    real_send_chunks = ftsm.send_chunks
    real_offer = ftsm.FtsmService.offer
    touched, offered = [], []

    def touching(channel, transfer_id, stream_index, src, chunks):
        if touched or stream_index:
            return real_send_chunks(channel, transfer_id, stream_index, src,
                                    chunks)
        sent = real_send_chunks(channel, transfer_id, 0, src, chunks[:1])
        os.utime(src, ns=(2 * 10**9, 2 * 10**9))
        touched.append(transfer_id)
        return sent + real_send_chunks(channel, transfer_id, 0, src,
                                       chunks[1:])

    def offer(self, *args):
        offered.append(args)
        return real_offer(self, *args)

    monkeypatch.setattr(ftsm, "send_chunks", touching)
    monkeypatch.setattr(ftsm.FtsmService, "offer", offer)
    monkeypatch.setattr(ftsm.time, "sleep", lambda seconds: None)
    report = client(node, streams=2, security=security,
                    chunk_size=4096).push(src, "touched.bin")
    assert len(touched) == 1
    assert len(offered) == offers
    assert not report.resumed
    assert report.bytes_moved == len(data)
    assert (storage(node) / "touched.bin").read_bytes() == data


def ftsm_threads_started(monkeypatch):
    """Count the threads `ftsm` starts, in the client and the in-process
    node alike; node sessions start theirs elsewhere."""
    import types
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    shim = types.SimpleNamespace(**{key: getattr(threading, key)
                                    for key in dir(threading)
                                    if not key.startswith("__")})
    shim.Thread = Counted
    monkeypatch.setattr(ftsm, "threading", shim)
    return started


@pytest.mark.parametrize("size, threads", [(16384, 0), (16385, 0)])
def test_one_chunk_region_starts_no_digest_thread(node, tmp_path,
                                                  monkeypatch, size, threads):
    """A single-stream push or pull hashes each chunk on the thread that
    moves it, whether the region is one chunk or two: no thread is
    started for the digest."""
    started = ftsm_threads_started(monkeypatch)
    data = os.urandom(size)
    src = tmp_path / "one.bin"
    src.write_bytes(data)
    mover = client(node, chunk_size=16384)
    mover.push(src, "one.bin")
    assert len(started) == threads
    mover.pull("one.bin", tmp_path / "back.bin")
    assert len(started) == 2 * threads
    assert (tmp_path / "back.bin").read_bytes() == data


def settled_threads(baseline, timeout=5.0):
    """The live threads beyond `baseline`, once they have had `timeout`
    seconds to end."""
    deadline = time.monotonic() + timeout
    while True:
        extra = [thread for thread in threading.enumerate()
                 if thread not in baseline]
        if not extra or time.monotonic() > deadline:
            return extra
        time.sleep(0.01)


def test_failed_push_leaves_no_thread_behind(node, tmp_path, monkeypatch):
    started = ftsm_threads_started(monkeypatch)
    src = tmp_path / "src.bin"
    src.write_bytes(os.urandom(2_000_000))
    mover = client(node, streams=2, chunk_size=16384)
    real_dial = TransferClient.dial

    def no_data_connection(self, mode, transfer_id=None, stream_index=0):
        if transfer_id is not None:
            raise ConnectionLost("data connection refused")
        return real_dial(self, mode)

    baseline = set(threading.enumerate())
    monkeypatch.setattr(TransferClient, "dial", no_data_connection)
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        with pytest.raises(StreamLost, match="data connection refused"):
            mover.push_on(control, src, "failed.bin")
    finally:
        control.close()
    assert len(started) == 1       # stream 1
    assert not any(thread.is_alive() for thread in started)
    assert settled_threads(baseline) == []


def test_vanished_puller_stops_the_node_hashing(node, tmp_path, monkeypatch):
    """The puller hangs up once the node has begun hashing: the node's
    hashing, chunk by chunk as it sends, stops soon after instead of
    covering the whole region, and the node starts no thread for it."""
    length = 64 << 20
    with open(storage(node) / "sparse.bin", "wb") as handle:
        handle.truncate(length)
    hashed = []
    began = threading.Event()
    real_digest = ftsm.DIGEST

    class SlowDigest:
        def __init__(self):
            self._digest = real_digest()

        def update(self, piece):
            hashed.append(len(piece))
            began.set()
            time.sleep(0.02)
            self._digest.update(piece)

        def digest(self):
            return self._digest.digest()

    monkeypatch.setattr(ftsm, "DIGEST", SlowDigest)
    started = ftsm_threads_started(monkeypatch)
    baseline = set(threading.enumerate())
    params = SessionParams(Mode.FTSM_PULL, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    transfer_id = os.urandom(16)
    try:
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"sparse.bin",
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(65536),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        assert began.wait(5.0)
    finally:
        control.close()    # vanish: no chunk read, no XFER_DONE
    assert settled_threads(baseline) == []
    assert started == []
    assert hashed
    assert sum(hashed) < length // 4
    assert node.registry.lookup(transfer_id) is None


def test_pull_that_fails_its_stream_leaves_no_thread_behind(
        node, tmp_path, monkeypatch):
    """A pull whose node source shrinks mid-send fails; neither side keeps
    a stream or digest thread once it has."""
    remote = storage(node) / "shrinks.bin"
    remote.write_bytes(os.urandom(2_000_000))
    real_send_chunks = ftsm.send_chunks

    def shrinking(channel, transfer_id, stream_index, src, chunks):
        with open(src, "r+b") as handle:
            handle.truncate(15_000)
        return real_send_chunks(channel, transfer_id, stream_index, src,
                                chunks)

    monkeypatch.setattr(ftsm, "send_chunks", shrinking)
    started = ftsm_threads_started(monkeypatch)
    baseline = set(threading.enumerate())
    mover = client(node, streams=2, chunk_size=16384)
    control = mover.dial(Mode.FTSM_PULL)
    try:
        with pytest.raises(StreamLost):
            mover.pull_on(control, "shrinks.bin", tmp_path / "back.bin")
    finally:
        control.close()
    assert started
    assert settled_threads(baseline) == []
    assert not any(thread.is_alive() for thread in started)


# -- a client pull over a sidecar it cannot trust ---------------------------

def garbage_sidecar(local, data):
    state_path(local).write_bytes(b"not a fieldmap at all")


def sidecar_beyond_an_absent_file(local, data):
    state = TransferState.fresh(os.urandom(16), ChunkGrid(0, len(data), 1,
                                                          4096))
    state.mark(0, 4096)
    save_state(local, state)
    assert not local.exists()


@pytest.mark.parametrize("plant", [garbage_sidecar,
                                   sidecar_beyond_an_absent_file],
                         ids=["unreadable", "beyond the destination"])
def test_pull_over_an_untrusted_sidecar_starts_afresh(node, tmp_path, plant):
    data = os.urandom(50_000)
    (storage(node) / "back.bin").write_bytes(data)
    local = tmp_path / "back.bin"
    plant(local, data)
    report = client(node, chunk_size=4096).pull("back.bin", local)
    assert not report.resumed
    assert report.bytes_moved == len(data)
    assert local.read_bytes() == data
    assert not state_path(local).exists()


# -- the receiver's digest, taken as the chunks land ------------------------

def land(receiver, data, ordinals):
    chunks = receiver.grid.chunks()
    for k in ordinals:
        offset, length = chunks[k]
        receiver.write_chunk(offset, data[offset:offset + length])


def test_late_duplicate_with_other_bytes_leaves_the_first(tmp_path):
    receiver, dst, data = receiver_over(tmp_path, chunks=8)
    land(receiver, data, range(8))
    offset, length = receiver.grid.chunks()[5]
    receiver.write_chunk(offset, os.urandom(length))
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert dst.read_bytes() == data


def test_duplicate_of_a_chunk_being_written_is_dropped(tmp_path,
                                                       monkeypatch):
    """A second delivery that arrives while the first is still in pwrite
    returns without writing, and the first delivery's bytes stay."""
    receiver, dst, data = receiver_over(tmp_path, chunks=4)
    offset, length = receiver.grid.chunks()[2]
    real_pwrite = os.pwrite
    entered, release = threading.Event(), threading.Event()
    writes = []

    def held_pwrite(fd, payload, at):
        writes.append(at)
        if at == offset and not entered.is_set():
            entered.set()
            assert release.wait(5.0)
        return real_pwrite(fd, payload, at)

    monkeypatch.setattr(os, "pwrite", held_pwrite)
    first = threading.Thread(target=land, args=(receiver, data, [2]),
                             daemon=True)
    first.start()
    try:
        assert entered.wait(5.0)
        receiver.write_chunk(offset, os.urandom(length))
    finally:
        release.set()
        first.join(5.0)
    assert not first.is_alive()
    assert writes.count(offset) == 1
    land(receiver, data, [0, 1, 3])
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert dst.read_bytes() == data


def test_short_pwrite_raises_from_write_chunk(tmp_path, monkeypatch):
    """A pwrite that keeps writing half of what it is given raises; the
    chunk stays unmarked, so a later delivery lands it whole."""
    receiver, dst, data = receiver_over(tmp_path, chunks=4)
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, payload, offset: real_pwrite(
        fd, payload[:len(payload) // 2], offset))
    with pytest.raises(OSError, match="short write"):
        land(receiver, data, [1])
    monkeypatch.setattr(os, "pwrite", real_pwrite)
    assert not receiver.state.has(1)
    land(receiver, data, range(4))
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert dst.read_bytes() == data


def test_chunks_landing_in_reverse_over_three_streams_verify(
        tmp_path, monkeypatch):
    """Three writers each land their span's chunks last to first, with
    thread switches forced often: every chunk is hashed as it lands, so
    `finish` reads nothing back, and the digest covers the region in
    order."""
    import sys
    grid = ChunkGrid(0, 3 * 40 * 1024 + 123, 3, 1024)
    dst = tmp_path / "dst.bin"
    data = os.urandom(grid.region_length)
    receiver = ftsm.RegionReceiver(dst, os.urandom(16), grid)
    spans = grid.chunks_by_span()

    def land_span(index):
        for offset, length in reversed(spans[2 - index]):
            receiver.write_chunk(offset, data[offset:offset + length])

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        assert ftsm.fan_out(land_span, 3) == [None] * 3
    finally:
        sys.setswitchinterval(switch)
    def no_read_back(*args):
        raise AssertionError("finish read a chunk back")

    monkeypatch.setattr(os, "pread", no_read_back)
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)
    assert dst.read_bytes() == data


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_resume_checks_the_earlier_session_chunks_on_disk(node, tmp_path,
                                                          security):
    """A chunk that landed before the interruption and was changed on
    disk since fails the resumed push's digest; the retry starts afresh."""
    data = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    sent = interrupted_push(node, src, "bitrot.bin", fraction=0.5)
    dst = storage(node) / "bitrot.bin"
    wait_for_state(dst, sent)
    with open(dst, "r+b") as handle:
        handle.seek(4096 + 17)
        handle.write(b"\x00" if data[4096 + 17] else b"\x01")

    mover = client(node, streams=2, security=security, chunk_size=4096)
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        with pytest.raises(ftsm.IntegrityMismatch):
            mover.push_on(control, src, "bitrot.bin")
    finally:
        control.close()
    report = mover.push(src, "bitrot.bin")
    assert not report.resumed
    assert dst.read_bytes() == data


def test_resumed_push_reads_each_earlier_chunk_back_once_per_side(
        node, tmp_path, monkeypatch):
    """A resumed push reads each chunk of the earlier session back once on
    each side, the client from its source and the node from its file,
    and none under `RegionReceiver.finish`: stream 0 reads them before
    its first chunk, while the other stream runs."""
    data = os.urandom(100_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    sent = interrupted_push(node, src, "resumed.bin", fraction=0.5)
    dst = storage(node) / "resumed.bin"
    landed = wait_for_state(dst, sent).total_received
    finishing = threading.local()
    reads = {"streams": [], "finish": []}
    real_pread = os.pread
    real_finish = ftsm.RegionReceiver.finish

    def pread(fd, length, offset):
        on = "finish" if getattr(finishing, "on", False) else "streams"
        reads[on].append(length)
        return real_pread(fd, length, offset)

    def finish(self, expected):
        finishing.on = True
        try:
            return real_finish(self, expected)
        finally:
            finishing.on = False

    monkeypatch.setattr(os, "pread", pread)
    monkeypatch.setattr(ftsm.RegionReceiver, "finish", finish)
    report = client(node, streams=2, chunk_size=4096).push(src,
                                                           "resumed.bin")
    assert report.resumed
    assert report.bytes_moved == len(data) - landed
    assert dst.read_bytes() == data
    assert reads["finish"] == []
    assert sum(reads["streams"]) == 2 * landed


def test_resumed_pull_reads_each_earlier_chunk_back_once_per_side(
        node, tmp_path, monkeypatch):
    """A resumed pull reads each chunk of the earlier session back once on
    each side, the node from its source and the client from its file, and
    none in either side's fold (`md5_region`, which `RegionReceiver.finish`
    calls): each side's stream 0 reads them before its first chunk, while
    the other stream runs."""
    data = os.urandom(100_000)
    (storage(node) / "resumed.bin").write_bytes(data)
    local = tmp_path / "resumed.bin"
    grid = ChunkGrid(0, len(data), 2, 4096)
    state = TransferState.fresh(os.urandom(16), grid)
    landed = 0
    with open(local, "wb") as handle:
        for ordinal, (offset, length) in enumerate(grid.chunks()):
            if ordinal % 2 == 0:
                handle.seek(offset)
                handle.write(data[offset:offset + length])
                state.mark(ordinal, length)
                landed += length
    save_state(local, state)
    folding = threading.local()
    reads = {"streams": [], "fold": []}
    real_pread = os.pread
    real_fold = ftsm.md5_region

    def pread(fd, length, offset):
        reads["fold" if getattr(folding, "on", False) else "streams"].append(
            length)
        return real_pread(fd, length, offset)

    def fold(path, grid, digests):
        folding.on = True
        try:
            return real_fold(path, grid, digests)
        finally:
            folding.on = False

    monkeypatch.setattr(os, "pread", pread)
    monkeypatch.setattr(ftsm, "md5_region", fold)
    report = client(node, streams=2, chunk_size=4096).pull("resumed.bin",
                                                           local)
    assert report.resumed
    assert report.bytes_moved == len(data) - landed
    assert local.read_bytes() == data
    assert reads["fold"] == []
    assert sum(reads["streams"]) == 2 * landed


def test_receiver_finish_reads_nothing_back(node, tmp_path, monkeypatch):
    """A multi-chunk push and pull verify without reading the region back
    under `RegionReceiver.finish`: each receiver hashed every chunk as it
    landed, and only folds the digests there. Neither sender reads its
    source a second time either."""
    finishing = threading.local()
    reads = {"sender": 0, "finish": 0}
    real_pread = os.pread
    real_finish = ftsm.RegionReceiver.finish

    def pread(*args):
        reads["finish" if getattr(finishing, "on", False) else "sender"] += 1
        return real_pread(*args)

    def finish(self, expected):
        finishing.on = True
        try:
            return real_finish(self, expected)
        finally:
            finishing.on = False

    monkeypatch.setattr(os, "pread", pread)
    monkeypatch.setattr(ftsm.RegionReceiver, "finish", finish)
    data = os.urandom(300_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    mover = client(node, streams=2, chunk_size=16384)
    mover.push(src, "both.bin")
    mover.pull("both.bin", tmp_path / "back.bin")
    assert (storage(node) / "both.bin").read_bytes() == data
    assert (tmp_path / "back.bin").read_bytes() == data
    assert reads == {"sender": 0, "finish": 0}


# -- write-behind -------------------------------------------------------------

def file_events(monkeypatch):
    """Record, in one ordered list, each writeback a receiver starts, each
    receiver's finish, each fsync and each digest fold, as (event, inode
    of the file it names)."""
    events = []
    real_writeback = ftsm.start_writeback
    real_finish = ftsm.RegionReceiver.finish
    real_fsync = os.fsync
    real_fold = ftsm.md5_region

    def writeback(fd):
        events.append(("writeback", os.fstat(fd).st_ino))
        real_writeback(fd)

    def finish(self, expected):
        events.append(("finish", os.fstat(self._fd).st_ino))
        return real_finish(self, expected)

    def fsync(fd):
        events.append(("fsync", os.fstat(fd).st_ino))
        real_fsync(fd)

    def fold(path, grid, digests):
        events.append(("fold", os.stat(path).st_ino))
        return real_fold(path, grid, digests)

    monkeypatch.setattr(ftsm, "start_writeback", writeback)
    monkeypatch.setattr(ftsm.RegionReceiver, "finish", finish)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(ftsm, "md5_region", fold)
    return events


def transfer(node, tmp_path, direction, data):
    """Push `data` to the node, or pull it from the node, over 2 streams
    in 64 KiB chunks; returns the file the receiver landed."""
    remote = storage(node) / "moved.bin"
    local = tmp_path / "moved.bin"
    with client(node, streams=2, chunk_size=65536) as mover:
        if direction == "push":
            local.write_bytes(data)
            mover.push(local, "moved.bin")
            dst = remote
        else:
            remote.write_bytes(data)
            mover.pull("moved.bin", local)
            dst = local
    assert dst.read_bytes() == data
    assert not state_path(dst).exists()
    return dst


@pytest.mark.parametrize("size", [ftsm.WRITE_BEHIND - 1,
                                  2 * ftsm.WRITE_BEHIND + 1_000_000],
                         ids=["under", "over"])
@pytest.mark.parametrize("direction", ["push", "pull"])
def test_writeback_starts_per_write_behind_before_finish(
        node, tmp_path, monkeypatch, direction, size):
    """The node's push receiver and the client's pull receiver start
    writeback once per WRITE_BEHIND landed, all before finish, so a region
    under WRITE_BEHIND starts none; finish still fsyncs the data file
    exactly once, before the fold."""
    events = file_events(monkeypatch)
    data = os.urandom(size)
    inode = transfer(node, tmp_path, direction, data).stat().st_ino
    assert [event for event in events if event[1] == inode] == \
        [("writeback", inode)] * (size // ftsm.WRITE_BEHIND) + \
        [("finish", inode), ("fsync", inode), ("fold", inode)]


def test_writeback_follows_the_pwrite_outside_the_lock(tmp_path,
                                                       monkeypatch):
    """The chunk that crosses the mark starts writeback on the descriptor
    its pwrite used, after the pwrite, without holding the receiver's
    lock, and the count starts again from nothing."""
    monkeypatch.setattr(ftsm, "WRITE_BEHIND", 3 * 1024)
    receiver, dst, data = receiver_over(tmp_path, chunks=8)
    calls = []
    monkeypatch.setattr(ftsm, "start_writeback", lambda fd: calls.append(
        (fd, receiver._lock.locked(), dst.stat().st_size)))
    for offset, length in receiver.grid.chunks():
        receiver.write_chunk(offset, data[offset:offset + length])
    assert calls == [(receiver._fd, False, 3 * 1024),
                     (receiver._fd, False, 6 * 1024)]
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)


def test_parallel_writers_count_every_landed_byte_once(tmp_path,
                                                       monkeypatch):
    """Eight writers land 512 chunks at once under a short switch
    interval: writeback starts exactly once per WRITE_BEHIND, which a
    lost update of the count would break."""
    import sys
    monkeypatch.setattr(ftsm, "WRITE_BEHIND", 4 * 1024)
    receiver, dst, data = receiver_over(tmp_path, chunks=512)
    calls = []
    monkeypatch.setattr(ftsm, "start_writeback", calls.append)
    chunks = receiver.grid.chunks()

    def writer(index):
        for offset, length in chunks[index::8]:
            receiver.write_chunk(offset, data[offset:offset + length])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        writers = [threading.Thread(target=writer, args=(index,))
                   for index in range(8)]
        for thread in writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in writers)
    assert len(calls) == len(data) // (4 * 1024)
    assert receiver.finish(
        region_digest(data, receiver.grid)) == len(data)


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_without_sync_file_range_transfers_land_and_verify(
        node, tmp_path, monkeypatch, direction):
    """Where libc has no sync_file_range the helper does nothing, and a
    multi-MiB transfer still lands, verifies and fsyncs once."""
    events = file_events(monkeypatch)
    fallback = ftsm.writeback_from(object())
    assert fallback is ftsm._skip_writeback
    monkeypatch.setattr(ftsm, "start_writeback", fallback)
    data = os.urandom(2 * ftsm.WRITE_BEHIND + 12_345)
    inode = transfer(node, tmp_path, direction, data).stat().st_ino
    assert [event for event in events if event[1] == inode] == \
        [("finish", inode), ("fsync", inode), ("fold", inode)]


# -- the held control session ------------------------------------------------

def sniffed_client(node, sniff_factory):
    proxy = sniff_factory(("127.0.0.1", node.port))
    return proxy, TransferClient(proxy.address, "grid", GRID_PSK,
                                 buffer_size=65536)


def test_transfers_on_one_client_share_one_session_per_mode(
        node, sniff_factory, tmp_path):
    """Five pushes and five pulls through one client dial and
    authenticate twice, once per mode, and move every byte exactly."""
    proxy, mover = sniffed_client(node, sniff_factory)
    with mover:
        for index in range(5):
            data = os.urandom(10_000 + index * 7_919)
            src = tmp_path / f"src{index}.bin"
            src.write_bytes(data)
            mover.push(src, f"held/{index}.bin")
            assert (storage(node) / "held" / f"{index}.bin").read_bytes() \
                == data
            back = tmp_path / f"back{index}.bin"
            mover.pull(f"held/{index}.bin", back)
            assert back.read_bytes() == data
    assert proxy.count(FrameType.HELLO) == 2
    assert proxy.count(FrameType.AUTH) == 2
    modes = sorted(wire.parse_hello(payload)[0].mode
                   for payload in proxy.payloads(FrameType.HELLO))
    assert modes == sorted([Mode.FTSM_PUSH, Mode.FTSM_PULL])


def test_an_error_reply_closes_the_held_session(node, sniff_factory,
                                                tmp_path):
    """A pull refused with NoSuchFile ends its session; the next pull
    dials a fresh one and lands its file."""
    proxy, mover = sniffed_client(node, sniff_factory)
    data = os.urandom(50_000)
    (storage(node) / "there.bin").write_bytes(data)
    with mover:
        mover.pull("there.bin", tmp_path / "first.bin")
        assert proxy.count(FrameType.HELLO) == 1
        with pytest.raises(NoSuchFile):
            mover.pull("absent.bin", tmp_path / "absent.bin")
        assert proxy.count(FrameType.HELLO) == 1
        mover.pull("there.bin", tmp_path / "again.bin")
    assert proxy.count(FrameType.HELLO) == 2
    assert (tmp_path / "again.bin").read_bytes() == data


def test_a_stale_held_session_is_dialled_again_at_once(
        node, sniff_factory, tmp_path, monkeypatch):
    """The connection of the held session is cut between two pushes; the
    second push dials afresh with no backoff pause and lands its file."""
    proxy, mover = sniffed_client(node, sniff_factory)
    real_sleep = time.sleep
    pauses = []

    def sleep(seconds):
        pauses.append(seconds)
        real_sleep(seconds)

    monkeypatch.setattr(ftsm.time, "sleep", sleep)
    data = os.urandom(80_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    with mover:
        mover.push(src, "stale/first.bin")
        proxy.drop_connections()
        report = mover.push(src, "stale/second.bin")
    assert (storage(node) / "stale" / "second.bin").read_bytes() == data
    assert report.bytes_moved == len(data) and not report.resumed
    assert proxy.count(FrameType.HELLO) == 2
    assert not [pause for pause in pauses if pause >= ftsm.BACKOFF]


def test_a_stale_session_retry_costs_no_retry_of_the_budget(monkeypatch):
    """_with_retries runs a stale-session failure again at once, and still
    allows RETRIES paused re-runs for real failures afterwards."""
    pauses = []
    monkeypatch.setattr(ftsm.time, "sleep", pauses.append)
    outcomes = [ftsm.StaleSession("idle session gone")] + \
        [ConnectionLost("lost")] * ftsm.RETRIES + ["done"]

    def attempt():
        outcome = outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    assert ftsm._with_retries(attempt) == "done"
    assert pauses == [ftsm.BACKOFF * 2 ** retry
                      for retry in range(ftsm.RETRIES)]
    outcomes[:] = [ConnectionLost("lost")] * (ftsm.RETRIES + 1)
    with pytest.raises(ConnectionLost):
        ftsm._with_retries(attempt)


def test_concurrent_transfers_on_one_client_each_get_a_session(
        node, sniff_factory, tmp_path, monkeypatch):
    """Two threads push through one client at once: each runs on a session
    of its own, both files land intact, and one session stays held."""
    proxy, mover = sniffed_client(node, sniff_factory)
    both_inside = threading.Barrier(2, timeout=10)
    real_push_on = TransferClient.push_on

    def push_on(self, control, *args, **kwargs):
        both_inside.wait()
        return real_push_on(self, control, *args, **kwargs)

    monkeypatch.setattr(TransferClient, "push_on", push_on)
    payloads = [os.urandom(120_000), os.urandom(90_000)]
    for index, data in enumerate(payloads):
        (tmp_path / f"src{index}.bin").write_bytes(data)
    failures = ftsm.fan_out(
        lambda index: mover.push(tmp_path / f"src{index}.bin",
                                 f"both/{index}.bin"), 2)
    assert failures == [None, None]
    for index, data in enumerate(payloads):
        assert (storage(node) / "both" / f"{index}.bin").read_bytes() == data
    assert proxy.count(FrameType.HELLO) == 2
    assert list(mover._held) == [Mode.FTSM_PUSH]
    mover.close()
    assert not mover._held


def test_close_is_idempotent_and_the_client_dials_anew(node, sniff_factory,
                                                       tmp_path):
    proxy, mover = sniffed_client(node, sniff_factory)
    data = os.urandom(30_000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    mover.push(src, "closed.bin")
    held = mover._held[Mode.FTSM_PUSH]
    mover.close()
    mover.close()
    assert held.sock.fileno() == -1
    mover.push(src, "closed.bin")
    assert proxy.count(FrameType.HELLO) == 2
    assert (storage(node) / "closed.bin").read_bytes() == data
    mover.close()


def test_many_threads_on_one_client_leave_one_session_per_mode(
        node, tmp_path):
    """Six threads push and pull through one client with a short switch
    interval: every file lands intact, and once they are done the node
    keeps open exactly the sessions the client holds, one per mode."""
    import sys
    mover = client(node)
    payloads = [os.urandom(20_000 + index * 3_001) for index in range(6)]
    for index, data in enumerate(payloads):
        (tmp_path / f"src{index}.bin").write_bytes(data)

    def work(index: int) -> None:
        for round_ in range(3):
            mover.push(tmp_path / f"src{index}.bin", f"many/{index}.bin")
            back = tmp_path / f"back{index}-{round_}.bin"
            mover.pull(f"many/{index}.bin", back)
            assert back.read_bytes() == payloads[index]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        failures = ftsm.fan_out(work, len(payloads))
    finally:
        sys.setswitchinterval(switch)
    assert failures == [None] * len(payloads)
    assert sorted(mover._held) == sorted([Mode.FTSM_PUSH, Mode.FTSM_PULL])
    deadline = time.monotonic() + 5.0
    while True:
        with node._sessions_lock:
            open_sessions = len(node._conns)
        if open_sessions == 2 or time.monotonic() > deadline:
            break
        time.sleep(0.01)
    assert open_sessions == 2
    mover.close()
