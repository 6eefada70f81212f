"""Transfer engine: planning, chunk codec, resume state, and loopback runs."""

import hashlib
import os
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
    EmptyRegion,
    PermissionDenied,
    StateCorrupt,
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


def md5(data: bytes) -> bytes:
    return hashlib.md5(data).digest()


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
    ordinals = grid.ordinal_of()
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
    assert grid.ordinal_of() == {0: 0, 3: 1, 4: 2, 7: 3, 8: 4}


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
        digests.add(md5((storage(node) / f"n{streams}.bin").read_bytes()))
    assert digests == {md5(data)}


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
    """Driven by hand: the node's source shrinks after XFER_ACCEPT, and
    its data connection says why instead of just closing."""
    remote = storage(node) / "shrinks.bin"
    remote.write_bytes(os.urandom(40_000))
    params = SessionParams(Mode.FTSM_PULL, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=1)
    control = secchan.connect(("127.0.0.1", node.port), params, "grid",
                              GRID_PSK)
    try:
        transfer_id = os.urandom(16)
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"shrinks.bin",
            ftsm.X_STREAMS: wire.u8(1),
            ftsm.X_CHUNK_SIZE: wire.u32(10_000),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        with open(remote, "r+b") as handle:
            handle.truncate(15_000)
        data = secchan.connect(("127.0.0.1", node.port), params, "grid",
                               GRID_PSK, transfer_id=transfer_id,
                               stream_index=0)
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
        chunks = ChunkGrid(0, len(data), 2, 3000).chunks()
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
            ftsm.X_TRANSFER: transfer_id, ftsm.X_MD5: md5(data)}))
        control.expect(FrameType.XFER_DONE)
        control.close()
        assert (storage(node) / remote).read_bytes() == data
