"""Block cryptography: header layout, cipher correctness against public
test vectors, planning, and the distributed encrypt/reassemble path over
live nodes."""

import os
import random
import socket
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALICE_PSK, BOB_PSK
from gridfs import cryptengine as ce
from gridfs.errors import (
    BadPadding,
    BadRequest,
    IntegrityMismatch,
    MissingBlock,
    NoWorkers,
    PermissionDenied,
    TruncatedHeader,
)
from gridfs.wire import FrameType, SecurityMode

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")
IV = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
PARAMS = ce.CipherParams("aes128", KEY, IV)
TDES_PARAMS = ce.CipherParams("tdes", b"0123456789abcdef", b"12345678")


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
    block = ce.encrypt_block(
        bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"), PARAMS, 0)
    assert block[32:48] == bytes.fromhex(
        "7649abac8119b246cee98e9b12e9197d")


def test_block_layout_pinned():
    import hashlib
    plaintext = b"attack at dawn"
    block = ce.encrypt_block(plaintext, PARAMS, 5)
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
    part, out = ce.decrypt_block(ce.encrypt_block(plaintext, params, 9),
                                 params)
    assert (part, out) == (9, plaintext)


def test_ciphertext_is_block_aligned():
    for size in (1, 16, 17):
        block = ce.encrypt_block(b"p" * size, PARAMS, 0)
        assert (len(block) - 32) % 16 == 0
        tdes = ce.encrypt_block(b"p" * size, TDES_PARAMS, 0)
        assert (len(tdes) - 32) % 8 == 0


def test_tampering_is_detected():
    block = bytearray(ce.encrypt_block(b"x" * 100, PARAMS, 0))
    for position in (32, 48, len(block) - 1):
        copy = bytearray(block)
        copy[position] ^= 0x01
        with pytest.raises((IntegrityMismatch, BadPadding)):
            ce.decrypt_block(bytes(copy), PARAMS)


def test_wrong_key_is_detected():
    block = ce.encrypt_block(b"y" * 64, PARAMS, 0)
    wrong = ce.CipherParams("aes128", b"w" * 16, IV)
    with pytest.raises((IntegrityMismatch, BadPadding)):
        ce.decrypt_block(block, wrong)


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
        expected = ce.encrypt_block(payload[offset:offset + length],
                                    PARAMS, part)
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
    assert loaded.part_count() == 5


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


def test_collector_holds_every_block(node_factory, tmp_path):
    workers = [node_factory("w1"), node_factory("w2")]
    collector = node_factory("coll")
    payload = os.urandom(160 * 1024)
    source = tmp_path / "data.bin"
    source.write_bytes(payload)

    manifest = ce.distribute(
        source, [endpoint(w) for w in workers], PARAMS, "alice", ALICE_PSK,
        block_size=32 * 1024, collector=endpoint(collector))
    assert sorted(stored_blocks(collector)) == [0, 1, 2, 3, 4]
    assert stored_blocks(workers[0]) == {}
    assert stored_blocks(workers[1]) == {}
    assert all(p.holder == endpoint(collector)
               for p in manifest.placements.values())

    rebuilt = tmp_path / "back.bin"
    ce.reassemble(manifest, PARAMS, rebuilt, "alice", ALICE_PSK)
    assert rebuilt.read_bytes() == payload


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


def test_no_workers_refused(tmp_path):
    source = tmp_path / "data.bin"
    source.write_bytes(b"x")
    with pytest.raises(NoWorkers):
        ce.distribute(source, [], PARAMS, "alice", ALICE_PSK)


def test_worker_refuses_any_direction_but_encrypt(node_factory):
    worker = node_factory("w1")
    task = ce._encrypt_task_fields(0, 0, 16, PARAMS, "alice", ALICE_PSK,
                                   "127.0.0.1:1", "data.bin", "data.blk0",
                                   None)
    task[ce.C_DIRECTION] = b"\x01"
    completed, error = ce._run_queue(endpoint(worker), [task], "alice",
                                     ALICE_PSK, SecurityMode.NONSECURE,
                                     65536)
    assert completed == []
    assert isinstance(error, BadRequest)
    assert "direction" in str(error)


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
