"""Block cryptography: header layout, cipher correctness against public
test vectors, planning, and the distributed encrypt/reassemble path over
live nodes."""

import hashlib
import os
import random
import socket
import struct
import sys
import tempfile
import threading
import time
from collections import Counter

import pytest
from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALICE_PSK, BOB_PSK
from gridfs import cryptengine as ce
from gridfs import wire
from gridfs.errors import (
    BadPadding,
    BadRequest,
    ConnectionLost,
    GridfsError,
    IntegrityMismatch,
    MissingBlock,
    NoWorkers,
    PermissionDenied,
    TruncatedHeader,
    WorkerFailed,
)
from gridfs.wire import FrameType, SecurityMode

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PARAMS = ce.CipherParams("aes128", KEY, IV)
TDES_PARAMS = ce.CipherParams("tdes", b"0123456789abcdef", b"12345678")


class _BytesReader:
    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self._pos = 0

    def read(self, want: int) -> bytes:
        piece = self._view[self._pos:self._pos + want]
        self._pos += len(piece)
        return bytes(piece)


def decrypt_block(block: bytes, params: ce.CipherParams) -> tuple[int, bytes]:
    """Inverse of encrypt_block_stream: returns (part_num, plaintext)."""
    header = ce.decode_block_header(block)
    if len(block) - ce.HEADER_SIZE < header.length:
        raise BadRequest(f"block {header.part_num}: block file shorter "
                         f"than its header claims")
    out = []
    source = _BytesReader(
        block[ce.HEADER_SIZE:ce.HEADER_SIZE + header.length])
    ce.stream_decrypt(source, header, params,
                      lambda piece, _pos: out.append(piece))
    return header.part_num, b"".join(out)


def reference_block(plaintext: bytes, params: ce.CipherParams,
                    part: int) -> bytes:
    """A block built the plain way: PKCS#7 padding, one CBC pass, and the
    header in front."""
    algorithm = {"aes128": algorithms.AES,
                 "tdes": lambda key: TripleDES(key + key[:8])}[params.cipher]
    cipher = algorithm(params.key)
    padder = padding.PKCS7(cipher.block_size).padder()
    padded = padder.update(plaintext) + padder.finalize()
    encryptor = Cipher(cipher, modes.CBC(params.iv)).encryptor()
    ciphertext = encryptor.update(padded) + encryptor.finalize()
    return struct.pack(">QQ16s", part, len(ciphertext),
                       hashlib.md5(plaintext).digest()) + ciphertext


# -- planning ---------------------------------------------------------------

def test_plan_twenty_megabyte_blocks():
    plan = ce.plan_blocks(100 * 10 ** 6, 20 * 10 ** 6)
    assert len(plan) == 5
    assert all(length == 20 * 10 ** 6 for _, _, length in plan)


def test_plan_ragged_tail():
    assert ce.plan_blocks(41, 20) == [(0, 0, 20), (1, 20, 20), (2, 40, 1)]


def test_plan_empty_file():
    assert ce.plan_blocks(0, 20) == []


def test_plan_rejects_bad_sizes():
    with pytest.raises(BadRequest):
        ce.plan_blocks(-1, 20)
    with pytest.raises(BadRequest):
        ce.plan_blocks(100, 0)


@given(file_size=st.integers(0, 50_000), block_size=st.integers(1, 60_000))
def test_plan_partitions_exactly(file_size, block_size):
    plan = ce.plan_blocks(file_size, block_size)
    assert len(plan) == -(-file_size // block_size)
    expected_offset = 0
    for index, (part, offset, length) in enumerate(plan):
        assert part == index
        assert offset == expected_offset
        assert 0 < length <= block_size
        expected_offset += length
    assert expected_offset == file_size
    if plan:
        assert all(length == block_size for _, _, length in plan[:-1])


def test_round_robin_example():
    assert ce.assign_round_robin(list(range(8)), 3) == [
        [0, 3, 6], [1, 4, 7], [2, 5]]


# -- block header -----------------------------------------------------------

def test_header_layout_empty_digest():
    import hashlib
    header = ce.BlockHeader(0, 0, hashlib.md5(b"").digest())
    encoded = ce.encode_block_header(header)
    assert encoded == bytes(16) + bytes.fromhex(
        "d41d8cd98f00b204e9800998ecf8427e")


def test_header_wide_part_numbers():
    header = ce.BlockHeader(2 ** 40, 7, b"m" * 16)
    encoded = header.encode()
    assert len(encoded) == 32
    assert encoded[:8] == (2 ** 40).to_bytes(8, "big")
    assert encoded[8:16] == (7).to_bytes(8, "big")
    assert ce.decode_block_header(encoded) == header


def test_header_truncated():
    with pytest.raises(TruncatedHeader):
        ce.decode_block_header(b"short")


def test_header_round_trip_bulk():
    rng = random.Random(0xb10c)
    for _ in range(10_000):
        header = ce.BlockHeader(rng.getrandbits(64), rng.getrandbits(64),
                                rng.randbytes(16))
        assert ce.decode_block_header(header.encode()) == header


# -- ciphers ----------------------------------------------------------------

def test_aes_cbc_known_answer():
    # SP 800-38A CBC-AES128 vector: one plaintext block, first
    # ciphertext block checked; the rest is padding
    plaintext = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
    block = ce.encrypt_block_stream((plaintext,), PARAMS, 0, len(plaintext))
    assert block[32:48] == bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d")


def test_block_layout_pinned():
    import hashlib
    plaintext = b"attack at dawn"
    block = ce.encrypt_block_stream((plaintext,), PARAMS, 5, len(plaintext))
    part, length, md5 = struct.unpack(">QQ16s", block[:32])
    assert part == 5
    assert length == len(block) - 32 == 16    # padded to one cipher block
    assert md5 == hashlib.md5(plaintext).digest()


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 255, 4096])
@pytest.mark.parametrize("params", [PARAMS, TDES_PARAMS],
                         ids=["aes128", "tdes"])
def test_round_trip_sizes(params, size):
    plaintext = bytes(range(256)) * (size // 256 + 1)
    plaintext = plaintext[:size]
    block = ce.encrypt_block_stream((plaintext,), params, 9, len(plaintext))
    assert block == reference_block(plaintext, params, 9)
    part, out = decrypt_block(block, params)
    assert (part, out) == (9, plaintext)


def test_pieces_must_add_up_to_the_block_length():
    for pieces in ((b"a" * 16, b"b" * 5), (b"a" * 16,), ()):
        with pytest.raises(BadRequest):
            ce.encrypt_block_stream(pieces, PARAMS, 0, 20)


def test_ciphertext_is_block_aligned():
    for size in (1, 16, 17):
        block = ce.encrypt_block_stream((b"p" * size,), PARAMS, 0, size)
        assert (len(block) - 32) % 16 == 0
        tdes = ce.encrypt_block_stream((b"p" * size,), TDES_PARAMS, 0, size)
        assert (len(tdes) - 32) % 8 == 0


def test_tampering_is_detected():
    block = ce.encrypt_block_stream((b"x" * 100,), PARAMS, 0, 100)
    for position in (32, 48, len(block) - 1):
        copy = bytearray(block)
        copy[position] ^= 0x01
        with pytest.raises((IntegrityMismatch, BadPadding)):
            decrypt_block(bytes(copy), PARAMS)


def test_wrong_key_is_detected():
    block = ce.encrypt_block_stream((b"y" * 64,), PARAMS, 0, 64)
    wrong = ce.CipherParams("aes128", b"w" * 16, IV)
    with pytest.raises((IntegrityMismatch, BadPadding)):
        decrypt_block(block, wrong)


def test_parameter_validation():
    with pytest.raises(BadRequest):
        ce.CipherParams("rot13", KEY, IV).spec()
    with pytest.raises(BadRequest):
        ce.CipherParams("aes128", b"short", IV).spec()
    with pytest.raises(BadRequest):
        ce.CipherParams("aes128", KEY, b"short").spec()
    with pytest.raises(BadRequest):
        ce.CipherParams("tdes", KEY, IV).spec()    # tdes wants an 8-byte IV


def test_sequential_blocks_match_single_shot(tmp_path):
    payload = random.Random(7).randbytes(100 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    blocks = list(ce.sequential_blocks(source, PARAMS, 16 * 1024))
    assert [part for part, _ in blocks] == list(range(7))
    for part, offset, length in ce.plan_blocks(len(payload), 16 * 1024):
        expected = ce.encrypt_block_stream(
            (payload[offset:offset + length],), PARAMS, part, length)
        assert blocks[part][1] == expected


def test_streaming_memory_stays_bounded(tmp_path):
    block_size = 256 * 1024
    source = tmp_path / "big.bin"
    source.write_bytes(os.urandom(2 * 2 ** 20))
    ce.gauge.reset()
    for _ in ce.sequential_blocks(source, PARAMS, block_size,
                                  piece_size=64 * 1024):
        pass
    assert 0 < ce.gauge.peak <= 2 * block_size


def test_manifest_round_trip(tmp_path):
    manifest = ce.PlacementMap("data.bin", 1234, 256, "aes128")
    for part in range(5):
        manifest.placements[part] = ce.Placement(
            part, f"10.0.0.{part}:2525", ce.block_name("data.bin", part))
    path = tmp_path / "data.bin.manifest"
    ce.save_manifest(manifest, path)
    loaded = ce.load_manifest(path)
    assert loaded == manifest
    assert len(ce.plan_blocks(loaded.file_size, loaded.block_size)) == 5


def test_endpoint_parsing():
    assert ce.parse_endpoint("10.1.2.3:2525") == ("10.1.2.3", 2525)
    for bad in ("nohost", ":2525", "host:", "host:abc"):
        with pytest.raises(BadRequest):
            ce.parse_endpoint(bad)


# -- distributed runs -------------------------------------------------------

def endpoint(node):
    return f"127.0.0.1:{node.port}"


def stored_blocks(node, username="alice"):
    store = node.config.storage_root / "home" / username / ce.BLOCK_SUBDIR
    if not store.is_dir():
        return {}
    out = {}
    for path in store.iterdir():
        data = path.read_bytes()
        out[ce.decode_block_header(data).part_num] = data
    return out


def test_distribute_then_reassemble(node_factory, tmp_path):
    first = node_factory("w1")
    second = node_factory("w2")
    payload = os.urandom(512 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    manifest = ce.distribute(
        source, [endpoint(first), endpoint(second)], PARAMS,
        "alice", ALICE_PSK, block_size=64 * 1024)
    assert sorted(manifest.placements) == list(range(8))
    assert sorted(stored_blocks(first)) == [0, 2, 4, 6]
    assert sorted(stored_blocks(second)) == [1, 3, 5, 7]
    assert ce.manifest_path_for(source).is_file()

    rebuilt = tmp_path / "rebuilt.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload


def test_single_worker_equals_sequential(node_factory, tmp_path):
    worker = node_factory("w1")
    payload = os.urandom(96 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    ce.distribute(source, [endpoint(worker)], PARAMS, "alice", ALICE_PSK,
                  block_size=32 * 1024)
    expected = dict(ce.sequential_blocks(source, PARAMS, 32 * 1024))
    assert stored_blocks(worker) == expected


def test_three_workers_equal_sequential_sealed(node_factory, tmp_path):
    nodes = [node_factory(f"w{i}") for i in range(3)]
    payload = os.urandom(256 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    ce.distribute(source, [endpoint(n) for n in nodes], PARAMS,
                  "alice", ALICE_PSK, block_size=64 * 1024,
                  security=SecurityMode.SECURE)
    gathered = {}
    for node in nodes:
        gathered.update(stored_blocks(node))
    assert gathered == dict(ce.sequential_blocks(source, PARAMS, 64 * 1024))


def test_source_ending_inside_a_block_fails_and_frees_the_worker(
        node_factory, tmp_path, monkeypatch):
    """The source shrinks after planning, inside the first block, while the
    worker still has a window of that block's later reads in flight. The
    run fails soon with an error that names the cause, not with a reset
    connection, and the same worker then serves a fresh run correctly."""
    worker = node_factory("w1")
    payload = os.urandom(2 * 2 ** 20)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    real_plan = ce.plan_blocks

    def plan_then_truncate(file_size, block_size):
        plan = real_plan(file_size, block_size)
        os.truncate(source, 10_000)
        return plan

    monkeypatch.setattr(ce, "plan_blocks", plan_then_truncate)
    outcome = []

    def run():
        try:
            ce.distribute(source, [endpoint(worker)], PARAMS, "alice",
                          ALICE_PSK, block_size=2 ** 20, buffer_size=4096)
        except Exception as exc:
            outcome.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(5)
    assert not thread.is_alive(), "distribute hung"
    assert isinstance(outcome[0], GridfsError)
    assert "source file ends inside the block range" in str(outcome[0])

    monkeypatch.setattr(ce, "plan_blocks", real_plan)
    source.write_bytes(payload)
    ce.distribute(source, [endpoint(worker)], PARAMS, "alice", ALICE_PSK,
                  block_size=2 ** 20, buffer_size=4096)
    assert stored_blocks(worker) == dict(
        ce.sequential_blocks(source, PARAMS, 2 ** 20))


def test_read_ahead_finishes_over_small_socket_buffers(node_factory,
                                                      tmp_path, monkeypatch):
    """A block of 1,024 reads, over sockets whose buffers hold a few
    KiB each way. The distributor answers one read at a time and stops
    reading requests while a reply waits to be sent, so a worker that sent
    every read of the range at once would block in sending with it, and
    both would hang. With a window of reads in flight the run finishes."""
    worker = node_factory("w1")
    small = ((socket.SOL_SOCKET, socket.SO_SNDBUF, 4096),
             (socket.SOL_SOCKET, socket.SO_RCVBUF, 4096))
    for option in small:
        worker._listener.setsockopt(*option)    # accepted sockets inherit

    def small_buffered_connection(address, timeout=None, *args, **kwargs):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        for option in small:
            sock.setsockopt(*option)
        sock.settimeout(timeout)
        sock.connect(address)
        return sock

    monkeypatch.setattr(socket, "create_connection",
                        small_buffered_connection)
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(4 * 2 ** 20))
    outcome = []

    def run():
        try:
            ce.distribute(source, [endpoint(worker)], PARAMS, "alice",
                          ALICE_PSK, block_size=4 * 2 ** 20,
                          buffer_size=4096)
        except Exception as exc:
            outcome.append(exc)
        else:
            outcome.append(None)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(20)
    assert not thread.is_alive(), "distribute hung"
    assert outcome == [None]
    assert stored_blocks(worker) == dict(
        ce.sequential_blocks(source, PARAMS, 4 * 2 ** 20))


def test_oversized_block_refused_before_any_read(node_factory, tmp_path,
                                                 monkeypatch):
    """A task whose length exceeds the largest block is refused as it
    arrives: no read is sent and no buffer allocated. The distributor
    refuses such a block size before it contacts any worker."""
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(b"x" * 64)
    huge = ce._encrypt_task_fields(0, 0, 2 ** 62, PARAMS, "data.bin",
                                   "data.blk0", False)
    served = []
    real_handle = ce.FileShare._handle
    start = time.monotonic()
    monkeypatch.setattr(ce.FileShare, "_handle",
                        lambda share, payload: served.append(payload)
                        or real_handle(share, payload))
    completed, error = ce._run_queue(endpoint(worker), [huge], "alice",
                                     ALICE_PSK, SecurityMode.NONSECURE,
                                     65536, source)
    assert time.monotonic() - start < 5
    assert completed == [] and served == []
    assert isinstance(error, BadRequest)
    assert "at most" in str(error)
    assert stored_blocks(worker) == {}
    with pytest.raises(BadRequest):
        ce.distribute(source, [endpoint(worker)], PARAMS, "alice",
                      ALICE_PSK, block_size=ce.MAX_BLOCK_SIZE + 1)


@pytest.mark.parametrize("security", list(SecurityMode),
                         ids=lambda mode: mode.name)
def test_collector_holds_every_block(node_factory, tmp_path, security):
    """Relayed pieces travel sealed whole in every mode, as every
    CRYPT_TASK does."""
    workers = [node_factory("w1"), node_factory("w2")]
    collector = node_factory("coll")
    payload = os.urandom(160 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    manifest = ce.distribute(
        source, [endpoint(w) for w in workers], PARAMS, "alice", ALICE_PSK,
        block_size=32 * 1024, collector=endpoint(collector),
        security=security)
    assert sorted(stored_blocks(collector)) == [0, 1, 2, 3, 4]
    assert stored_blocks(workers[0]) == {}
    assert stored_blocks(workers[1]) == {}
    assert all(p.holder == endpoint(collector)
               for p in manifest.placements.values())

    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK,
                  security=security)
    assert rebuilt.read_bytes() == payload


def test_source_fault_ends_the_run_after_one_round(node_factory, tmp_path,
                                                   monkeypatch):
    """The source shrinks after planning, inside the last block. The
    worker that meets it answers BadRequest, and the run ends with that
    error after one round: the fault is the source's, so the block is not
    handed to the other worker to fail the same way."""
    workers = [node_factory("w1"), node_factory("w2")]
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(256 * 1024))
    real_plan = ce.plan_blocks
    real_run_queue = ce._run_queue
    queues_run = []

    def plan_then_truncate(file_size, block_size):
        plan = real_plan(file_size, block_size)
        os.truncate(source, 3 * 64 * 1024 + 100)
        return plan

    monkeypatch.setattr(ce, "plan_blocks", plan_then_truncate)
    monkeypatch.setattr(ce, "_run_queue", lambda *args: queues_run.append(
        args[0]) or real_run_queue(*args))
    with pytest.raises(BadRequest) as raised:
        ce.distribute(source, [endpoint(w) for w in workers], PARAMS,
                      "alice", ALICE_PSK, block_size=64 * 1024)
    assert "source file ends inside the block range" in str(raised.value)
    assert sorted(queues_run) == sorted(endpoint(w) for w in workers)
    assert not ce.manifest_path_for(source).exists()


def test_dead_collector_ends_the_run_with_its_own_error(node_factory,
                                                        tmp_path):
    """A push to the collector that fails is not the worker's fault: the
    run ends at once with ConnectionLost naming the collector, not with
    WorkerFailed after every worker has been retired for it."""
    workers = [node_factory("w1"), node_factory("w2")]
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(128 * 1024))
    with pytest.raises(ConnectionLost) as raised:
        ce.distribute(source, [endpoint(w) for w in workers], PARAMS,
                      "alice", ALICE_PSK, block_size=32 * 1024,
                      collector=dead)
    assert f"collector {dead}" in str(raised.value)
    assert stored_blocks(workers[0]) == {}
    assert stored_blocks(workers[1]) == {}
    assert not ce.manifest_path_for(source).exists()


def test_unreachable_worker_is_named_in_the_run_error(tmp_path):
    """The WorkerFailed that ends the run names, by its address, a worker
    that cannot be dialled."""
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    with pytest.raises(WorkerFailed) as raised:
        ce.distribute(source, [dead], PARAMS, "alice", ALICE_PSK,
                      block_size=32 * 1024)
    assert f"worker {dead}" in str(raised.value)


def test_unreachable_worker_blocks_reassigned(node_factory, tmp_path):
    live = node_factory("w1")
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    dead = f"127.0.0.1:{probe.getsockname()[1]}"
    probe.close()

    payload = os.urandom(128 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    manifest = ce.distribute(source, [dead, endpoint(live)], PARAMS,
                             "alice", ALICE_PSK, block_size=32 * 1024)
    assert sorted(manifest.placements) == [0, 1, 2, 3]
    assert all(p.holder == endpoint(live)
               for p in manifest.placements.values())
    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload


def test_worker_lost_mid_run(node_factory, sniff_factory, tmp_path):
    """First worker drops off the grid after finishing one block; the
    survivor redoes everything the casualty held, and the rebuild no
    longer needs the lost node at all."""
    casualty = node_factory("w1")
    survivor = node_factory("w2")
    proxy = sniff_factory(("127.0.0.1", casualty.port))
    proxy.kill_s2c_after = (FrameType.CRYPT_TASK, 1)

    payload = os.urandom(96 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    manifest = ce.distribute(
        source, [f"127.0.0.1:{proxy.port}", endpoint(survivor)], PARAMS,
        "alice", ALICE_PSK, block_size=16 * 1024)

    assert sorted(manifest.placements) == [0, 1, 2, 3, 4, 5]
    assert all(p.holder == endpoint(survivor)
               for p in manifest.placements.values())
    casualty.stop()

    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload

    # the captured traffic never shows the key, IV, or credential
    raw = proxy.raw()
    assert KEY not in raw
    assert IV not in raw
    assert ALICE_PSK not in raw


def test_worker_lost_mid_queue_is_named_in_the_run_error(node_factory,
                                                        sniff_factory,
                                                        tmp_path):
    """A lone worker that drops after its first block leaves the run with
    no survivor, and the WorkerFailed that ends it names the worker."""
    worker = node_factory("w1")
    proxy = sniff_factory(("127.0.0.1", worker.port))
    proxy.kill_s2c_after = (FrameType.CRYPT_TASK, 1)
    address = f"127.0.0.1:{proxy.port}"
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    with pytest.raises(WorkerFailed) as raised:
        ce.distribute(source, [address], PARAMS, "alice", ALICE_PSK,
                      block_size=16 * 1024)
    assert f"worker {address}: " in str(raised.value)


def test_nonsecure_distribute_shows_no_name_or_key(node_factory,
                                                   sniff_factory, tmp_path):
    """Under NONSECURE every CRYPT_TASK and every READ of the source is
    sealed whole: the source file's name, the block names and the key
    never cross the wire in the clear."""
    worker = node_factory("w1")
    proxy = sniff_factory(("127.0.0.1", worker.port))
    source = tmp_path / "quarterly-ledger.bin"
    source.write_bytes(os.urandom(64 * 1024))
    ce.distribute(source, [f"127.0.0.1:{proxy.port}"], PARAMS, "alice",
                  ALICE_PSK, block_size=32 * 1024,
                  security=SecurityMode.NONSECURE)
    assert sorted(stored_blocks(worker)) == [0, 1]
    raw = proxy.raw()
    assert source.name.encode() not in raw
    assert ce.block_name(source.name, 1).encode() not in raw
    assert KEY not in raw


def test_corrupted_block_refused(node_factory, tmp_path):
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)

    victim = (worker.config.storage_root / "home" / "alice" /
              ce.BLOCK_SUBDIR / ce.block_name("data.bin", 1))
    data = bytearray(victim.read_bytes())
    data[40] ^= 0x80
    victim.write_bytes(bytes(data))

    rebuilt = tmp_path / "back.bin"
    with pytest.raises((IntegrityMismatch, BadPadding)) as info:
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert "block 1" in str(info.value)
    assert not rebuilt.exists()
    assert not rebuilt.with_name("back.bin.part").exists()


@pytest.mark.parametrize("cut, error", [(10, TruncatedHeader),
                                        (100, BadRequest)])
def test_truncated_block_names_its_part(node_factory, tmp_path, monkeypatch,
                                        cut, error):
    """A block file cut short inside its header, or inside its
    ciphertext, fails with an error that names the block, and leaves no
    output, .part file or spool behind."""
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)
    victim = (worker.config.storage_root / "home" / "alice" /
              ce.BLOCK_SUBDIR / ce.block_name("data.bin", 2))
    victim.write_bytes(victim.read_bytes()[:cut])

    spool_root = tmp_path / "tmp"
    spool_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_root))
    rebuilt = tmp_path / "back.bin"
    with pytest.raises(error) as info:
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert "block 2" in str(info.value)
    assert not rebuilt.exists()
    assert not rebuilt.with_name("back.bin.part").exists()
    assert list(spool_root.glob("gridfs-blocks-*")) == []


def test_short_output_write_fails_the_reassembly(node_factory, tmp_path,
                                                 monkeypatch):
    """A pwrite into the rebuilt output that writes only half of what it
    is given raises, instead of leaving a hole of zeros, and leaves no
    output or .part file behind."""
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)
    rebuilt = tmp_path / "back.bin"
    scratch = rebuilt.with_name("back.bin.part")
    real_pwrite = os.pwrite

    def half_into_the_output(fd, data, offset):
        if scratch.exists() and \
                os.fstat(fd).st_ino == scratch.stat().st_ino:
            data = data[:len(data) // 2]
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", half_into_the_output)
    with pytest.raises(OSError, match="short write"):
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert not rebuilt.exists()
    assert not scratch.exists()


def two_holders(node_factory, tmp_path):
    """Distribute eight 16 KiB blocks over two workers: the first holds
    the even parts, the second the odd ones."""
    holders = [node_factory("w1"), node_factory("w2")]
    payload = os.urandom(8 * 16 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    manifest = ce.distribute(source, [endpoint(n) for n in holders], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)
    return holders, payload, manifest


def test_reassembly_pulls_from_every_holder_at_once(node_factory, tmp_path,
                                                    monkeypatch):
    """Each holder's first pull waits for the other's: a reassembly that
    pulls one block at a time breaks the barrier. No holder ever has more
    than one pull in flight."""
    holders, payload, manifest = two_holders(node_factory, tmp_path)
    barrier = threading.Barrier(2, timeout=5)
    lock = threading.Lock()
    in_flight, peak, pulls = Counter(), Counter(), Counter()
    real_pull = ce.TransferClient.pull

    def pull(self, remote, local, region=None):
        holder = self.address[1]
        with lock:
            in_flight[holder] += 1
            peak[holder] = max(peak[holder], in_flight[holder])
            pulls[holder] += 1
            first = pulls[holder] == 1
        try:
            if first:
                barrier.wait()
            return real_pull(self, remote, local, region)
        finally:
            with lock:
                in_flight[holder] -= 1

    monkeypatch.setattr(ce.TransferClient, "pull", pull)
    rebuilt = tmp_path / "rebuilt.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert not barrier.broken
    ports = [node.port for node in holders]
    assert pulls == {port: 4 for port in ports}
    assert peak == {port: 1 for port in ports}
    assert rebuilt.read_bytes() == payload


def test_reassembly_from_more_holders_than_cores(node_factory, tmp_path):
    """Four fetchers write one output under a very short thread switch
    interval; every block must land at its own offset."""
    holders = [node_factory(f"w{i}") for i in range(4)]
    payload = os.urandom(40 * 4096 + 123)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    manifest = ce.distribute(source, [endpoint(n) for n in holders], PARAMS,
                             "alice", ALICE_PSK, block_size=4096)
    rebuilt = tmp_path / "rebuilt.bin"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    finally:
        sys.setswitchinterval(interval)
    assert rebuilt.read_bytes() == payload


@pytest.mark.parametrize("fault", ["corrupt", "stopped"])
def test_reassembly_failure_on_one_holder_stops_every_fetcher(
        node_factory, tmp_path, monkeypatch, fault):
    """The second holder fails on its first block, part 1. That failure is
    raised; the first holder's fetcher finishes its current block and pulls
    no more; every fetcher has ended when the call returns; and neither
    the output, its .part file nor the block spool is left behind."""
    (first, second), _, manifest = two_holders(node_factory, tmp_path)
    if fault == "corrupt":
        victim = (second.config.storage_root / "home" / "alice" /
                  ce.BLOCK_SUBDIR / ce.block_name("data.bin", 1))
        data = bytearray(victim.read_bytes())
        data[40] ^= 0x80
        victim.write_bytes(bytes(data))
    else:
        second.stop()

    spool_root = tmp_path / "tmp"
    spool_root.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(spool_root))
    fetchers = []
    real_fan_out = ce.fan_out

    def fan_out(work, count):
        def recorded(index):
            fetchers.append(threading.current_thread())
            work(index)
        return real_fan_out(recorded, count)

    # the first holder's first pull waits until the second holder's fetcher
    # has failed and ended, so the stop is in place before it goes on
    second_fetcher = []
    second_started = threading.Event()
    first_pulls = []
    real_pull = ce.TransferClient.pull

    def pull(self, remote, local, region=None):
        if self.address[1] == second.port:
            second_fetcher.append(threading.current_thread())
            second_started.set()
        else:
            first_pulls.append(remote)
            if len(first_pulls) == 1:
                assert second_started.wait(5), "pulls ran one at a time"
                second_fetcher[0].join(10)
        return real_pull(self, remote, local, region)

    monkeypatch.setattr(ce, "fan_out", fan_out)
    monkeypatch.setattr(ce.TransferClient, "pull", pull)
    rebuilt = tmp_path / "back.bin"
    expected = (IntegrityMismatch, BadPadding) if fault == "corrupt" \
        else MissingBlock
    with pytest.raises(expected) as info:
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    if fault == "corrupt":
        assert "block 1" in str(info.value)
    else:
        assert info.value.part_num == 1
    assert len(first_pulls) == 1
    assert len(fetchers) == 2
    assert not any(thread.is_alive() for thread in fetchers)
    assert not rebuilt.exists()
    assert not rebuilt.with_name("back.bin.part").exists()
    assert list(spool_root.glob("gridfs-blocks-*")) == []


def test_missing_manifest_entry(node_factory, tmp_path):
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(64 * 1024))
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)
    del manifest.placements[3]

    rebuilt = tmp_path / "back.bin"
    with pytest.raises(MissingBlock) as info:
        ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert info.value.part_num == 3
    assert not rebuilt.exists()
    assert not rebuilt.with_name("back.bin.part").exists()


def test_wrong_cipher_refused_before_any_pull(tmp_path):
    manifest = ce.PlacementMap("x", 100, 20, "aes128")
    with pytest.raises(BadRequest):
        ce.reassemble(manifest, TDES_PARAMS, tmp_path / "out",
                      "alice", ALICE_PSK)


def test_wrong_key_fails_reassembly(node_factory, tmp_path):
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(32 * 1024))
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK, block_size=16 * 1024)
    wrong = ce.CipherParams("aes128", b"not the key 0123", IV)
    with pytest.raises((IntegrityMismatch, BadPadding)):
        ce.reassemble(manifest, wrong, tmp_path / "out", "alice", ALICE_PSK)
    assert not (tmp_path / "out").exists()


def test_denied_user_places_nothing(node_factory, tmp_path):
    worker = node_factory("w1")
    source = tmp_path / "data.bin"
    source.write_bytes(b"forbidden")
    with pytest.raises(PermissionDenied):
        ce.distribute(source, [endpoint(worker)], PARAMS, "bob", BOB_PSK,
                      block_size=4)
    blocks = worker.config.storage_root / "home" / "bob" / ce.BLOCK_SUBDIR
    assert not blocks.exists()


def test_execution_only_account_stores_no_block(node_factory, tmp_path):
    """A worker's block store passes the same sandbox gate as every other
    file a session touches: an account that may run tasks but holds no
    FileIOPermission places no block, as it could not write that file
    over DFSM either."""
    worker = node_factory("w1")
    etc = worker.config.account_dir()
    psk = b"c" * 32
    with open(etc / "credentials", "a") as credentials:
        credentials.write(f"carol:{psk.hex()}\n")
    (etc / "accounts" / "carol.xml").write_text(
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<permissions AccountType="Others">\n'
        '  <Execution value="True"/>\n'
        '  <FileIOPermission value="False"/>\n'
        '</permissions>\n')
    worker.accounts.reload()
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(12))
    with pytest.raises(PermissionDenied):
        ce.distribute(source, [endpoint(worker)], PARAMS, "carol", psk,
                      block_size=4)
    assert stored_blocks(worker, "carol") == {}


def test_no_workers_refused(tmp_path):
    source = tmp_path / "data.bin"
    source.write_bytes(b"x")
    with pytest.raises(NoWorkers):
        ce.distribute(source, [], PARAMS, "alice", ALICE_PSK)


def test_collector_run_gives_workers_no_credentials(node_factory, tmp_path,
                                                    monkeypatch):
    """A worker of a collector run gets the key and the IV as its only
    secrets: no user name and no PSK. A stand-in worker records each
    CRYPT_TASK as its node decoded it, then runs the real task."""
    tasks = []
    real_one = ce.CryptWorker._one

    def stand_in(worker, channel, account, payload, *rest):
        tasks.append(wire.decode_fields(payload))
        return real_one(worker, channel, account, payload, *rest)

    monkeypatch.setattr(ce.CryptWorker, "_one", stand_in)
    workers = [node_factory("w1"), node_factory("w2")]
    collector = node_factory("coll")
    source = tmp_path / "data.bin"
    source.write_bytes(os.urandom(96 * 1024))
    ce.distribute(source, [endpoint(w) for w in workers], PARAMS, "alice",
                  ALICE_PSK, block_size=32 * 1024,
                  collector=endpoint(collector))
    assert sorted(stored_blocks(collector)) == [0, 1, 2]
    assert sorted(wire.read_uint(task, ce.C_PART) for task in tasks) == [
        0, 1, 2]
    for task in tasks:
        assert wire.decode_fields(task[ce.C_SECRETS]) == {
            ce.SEC_KEY: KEY, ce.SEC_IV: IV}
        assert not any(ALICE_PSK in value for value in task.values())


def test_empty_file_round_trip(node_factory, tmp_path):
    worker = node_factory("w1")
    source = tmp_path / "empty.bin"
    source.write_bytes(b"")
    manifest = ce.distribute(source, [endpoint(worker)], PARAMS,
                             "alice", ALICE_PSK)
    assert manifest.placements == {}
    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == b""


def open_sessions(node, timeout=5.0):
    """The node's open connections, once they have settled."""
    deadline = time.monotonic() + timeout
    while True:
        with node._sessions_lock:
            count = len(node._conns)
        if count == 0 or time.monotonic() > deadline:
            return count
        time.sleep(0.01)


def test_collector_pushes_and_holder_pulls_each_ride_one_session(
        node_factory, sniff_factory, tmp_path):
    """The distributor pushes the blocks its worker sends back to the
    collector over one FTSM_PUSH session, reassembly pulls them back over
    one FTSM_PULL session, and both are closed once their run ends."""
    worker = node_factory("w1")
    collector = node_factory("coll")
    proxy = sniff_factory(("127.0.0.1", collector.port))
    payload = os.urandom(160 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    manifest = ce.distribute(
        source, [endpoint(worker)], PARAMS, "alice", ALICE_PSK,
        block_size=32 * 1024, collector=f"127.0.0.1:{proxy.port}")
    assert sorted(stored_blocks(collector)) == [0, 1, 2, 3, 4]
    hellos = [wire.parse_hello(raw)[0].mode
              for raw in proxy.payloads(FrameType.HELLO)]
    assert hellos == [wire.Mode.FTSM_PUSH]
    assert open_sessions(collector) == 0

    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload
    hellos = [wire.parse_hello(raw)[0].mode
              for raw in proxy.payloads(FrameType.HELLO)]
    assert hellos == [wire.Mode.FTSM_PUSH, wire.Mode.FTSM_PULL]
    assert open_sessions(collector) == 0


def test_a_worker_whose_block_store_fails_is_failed_over(node_factory,
                                                         tmp_path):
    """The first worker's block store cannot be made: a regular file
    named `blocks` sits where the directory goes. That worker fails with
    WorkerFailed naming the cause, its blocks go to the second, and the
    run completes; with the broken worker alone, the run's WorkerFailed
    names the cause too."""
    broken = node_factory("w1")
    sound = node_factory("w2")
    sandbox = broken.config.storage_root / "home" / "alice"
    sandbox.mkdir(parents=True, exist_ok=True)
    (sandbox / ce.BLOCK_SUBDIR).write_bytes(b"not a directory")
    payload = os.urandom(64 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)
    with pytest.raises(WorkerFailed, match="block store: io error EEXIST"):
        ce.distribute(source, [endpoint(broken)], PARAMS, "alice",
                      ALICE_PSK, block_size=32 * 1024)
    manifest = ce.distribute(source, [endpoint(broken), endpoint(sound)],
                             PARAMS, "alice", ALICE_PSK,
                             block_size=32 * 1024)
    assert {p.holder for p in manifest.placements.values()} == {
        endpoint(sound)}
    rebuilt = tmp_path / "rebuilt.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload
