"""Distributed block cryptography: slice, fan out, encrypt, reassemble.

A file is cut into fixed-size blocks. Each block becomes one task: a worker
node reads its plaintext range over the session that carried the task (the
distributor answers reads of that one file only), keeping a window of
reads of the range ahead so that it encrypts one piece while the next are
on their way. It encodes the block in one buffer, header and ciphertext,
and keeps the headed block in its own store. When a collector node is to
hold the blocks, the worker sends each block back over the same session
instead, and the distributor pushes it on to the collector: a worker only
serves, and holds no credentials but those of its own session. A
manifest records where every block ended up; the reverse path pulls the
blocks back from all their holders at once, verifies each block, and
rebuilds the file bit for bit.

Every block file starts with a fixed 32-byte header: the 0-based block
index, the ciphertext length, and the MD5 digest of the block's plaintext.
Decryption recomputes the digest and refuses anything that does not match,
so a wrong key, a truncated file, or a flipped bit all fail loudly.

One key and one IV cover the whole file, so a given (file, key, IV) always
produces identical blocks; that determinism is what lets a distributed run
be checked against a sequential one. Reusing the IV across blocks leaks
whether two blocks begin with the same plaintext; callers who care should
encrypt each file under a fresh IV.

Ciphers live in a table keyed by name: AES-128 and two-key triple DES,
both run CBC with PKCS#7 padding.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import struct
import tempfile
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from cryptography.hazmat.decrepit.ciphers.algorithms import TripleDES
from cryptography.hazmat.primitives import padding
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from . import secchan, wire
from .dfsm import FileShare, FsClient, sandboxed
from .errors import (
    BadPadding,
    BadRequest,
    ConnectionLost,
    GridfsError,
    IntegrityMismatch,
    MissingBlock,
    NoSuchFile,
    NoWorkers,
    PermissionDenied,
    ProtocolError,
    StreamLost,
    TruncatedHeader,
    WorkerFailed,
    map_os_error,
)
from .ftsm import TransferClient, fan_out, pwrite_all
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import FrameType, Mode, SecurityMode, SessionParams

DEFAULT_BLOCK_SIZE = 20 * 2 ** 20
# The largest block a worker encrypts: it holds the whole block in memory,
# and allocates it when the task arrives, before any plaintext does.
MAX_BLOCK_SIZE = 256 * 2 ** 20
HEADER_FMT = ">QQ16s"      # part_num | ciphertext length | plaintext md5
HEADER_SIZE = struct.calcsize(HEADER_FMT)
PIECE_SIZE = 262144        # streaming granularity for local block files

# CRYPT_TASK fields; the frame is sealed whole in every mode. Tags 4 (a
# direction), 5 (a node serving the plaintext) and 10 (a collector's
# address) are retired; do not reuse them.
C_PART = 1
C_SECRETS = 2              # nested map: key and IV
C_CIPHER = 3
C_PATH = 6                 # name the distributor shares the plaintext under
C_OFFSET = 7
C_LENGTH = 8
C_BLOCK = 9                # block file name in the worker's store
C_DONE = 11                # reply: completion marker
C_RELAY = 12               # 1: send the block back instead of storing it
C_PIECE = 13               # reply: one piece of a block sent back

# nested secret-map tags; 3 and 4 (a user name and PSK) are retired
SEC_KEY = 1
SEC_IV = 2

# manifest fields
M_BASE = 1
M_SIZE = 2
M_BLOCK_SIZE = 3
M_CIPHER = 4
M_ENTRIES = 5
ME_PART = 1
ME_HOLDER = 2
ME_NAME = 3

BLOCK_SUBDIR = "blocks"


class BufferGauge:
    """Tracks the biggest number of block-payload bytes held at once.

    The streaming paths report their live buffer totals here; tests reset
    it, run a job, and assert the peak stayed under the promised bound.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self.peak = 0

    def reset(self) -> None:
        with self._lock:
            self.peak = 0

    def note(self, held: int) -> None:
        with self._lock:
            if held > self.peak:
                self.peak = held


gauge = BufferGauge()


# -- block header -----------------------------------------------------------

@dataclass(frozen=True)
class BlockHeader:
    part_num: int
    length: int          # ciphertext bytes that follow the header
    md5: bytes           # digest of the block's plaintext

    def encode(self) -> bytes:
        return struct.pack(HEADER_FMT, self.part_num, self.length, self.md5)


def encode_block_header(header: BlockHeader) -> bytes:
    return header.encode()


def decode_block_header(data: bytes) -> BlockHeader:
    if len(data) < HEADER_SIZE:
        raise TruncatedHeader(
            f"block header needs {HEADER_SIZE} bytes, got {len(data)}")
    part_num, length, md5 = struct.unpack_from(HEADER_FMT, data)
    return BlockHeader(part_num, length, md5)


# -- ciphers ----------------------------------------------------------------

@dataclass(frozen=True)
class CipherSpec:
    name: str
    key_size: int
    iv_size: int
    block_bits: int
    factory: Callable[[bytes], object]


CIPHERS: dict[str, CipherSpec] = {
    "aes128": CipherSpec("aes128", 16, 16, 128, algorithms.AES128),
    # 16-byte keying: K1|K2 expanded to K1|K2|K1 (two-key triple DES)
    "tdes": CipherSpec("tdes", 16, 8, 64,
                       lambda key: TripleDES(key + key[:8])),
}


@dataclass(frozen=True)
class CipherParams:
    cipher: str
    key: bytes
    iv: bytes

    def spec(self) -> CipherSpec:
        spec = CIPHERS.get(self.cipher)
        if spec is None:
            raise BadRequest(f"unknown cipher {self.cipher!r}")
        if len(self.key) != spec.key_size:
            raise BadRequest(
                f"{spec.name} wants a {spec.key_size}-byte key")
        if len(self.iv) != spec.iv_size:
            raise BadRequest(f"{spec.name} wants a {spec.iv_size}-byte IV")
        return spec


def _cipher(params: CipherParams) -> Cipher:
    spec = params.spec()
    return Cipher(spec.factory(params.key), modes.CBC(params.iv))


# -- block codec ------------------------------------------------------------

def encrypt_block_stream(pieces: Iterable[bytes], params: CipherParams,
                         part_num: int, length: int) -> bytearray:
    """Encrypt one block of `length` plaintext bytes fed as pieces; returns
    header followed by ciphertext. The block is built in one buffer: each
    piece is encrypted straight into it, PKCS#7 padding is one more pass
    of the cipher, and the header is packed in front once the digest is
    known. Only that buffer and the current piece are ever held."""
    if part_num < 0:
        raise BadRequest("block numbers are 0-based")
    spec = params.spec()
    encryptor = _cipher(params).encryptor()
    cipher_block = spec.block_bits // 8
    digest = hashlib.md5()
    # update_into wants room for one cipher block beyond its input
    block = bytearray(HEADER_SIZE + length + 2 * cipher_block)
    end = HEADER_SIZE
    fed = 0
    with memoryview(block) as view:
        for piece in pieces:
            fed += len(piece)
            if fed > length:
                raise BadRequest(f"block {part_num}: pieces exceed its "
                                 f"{length} plaintext bytes")
            digest.update(piece)
            end += encryptor.update_into(piece, view[end:])
            gauge.note(len(block) + len(piece))
        if fed != length:
            raise BadRequest(f"block {part_num}: pieces hold {fed} of its "
                             f"{length} plaintext bytes")
        pad = cipher_block - length % cipher_block
        end += encryptor.update_into(bytes([pad]) * pad, view[end:])
        encryptor.finalize()
    block[:HEADER_SIZE] = BlockHeader(part_num, end - HEADER_SIZE,
                                      digest.digest()).encode()
    del block[end:]
    return block


def stream_decrypt(source, header: BlockHeader, params: CipherParams,
                   sink: Callable[[bytes, int], None]) -> int:
    """Decrypt `header.length` ciphertext bytes from the readable `source`,
    feeding plaintext pieces to `sink(piece, position)`. Verifies the
    digest. Returns the plaintext length."""
    spec = params.spec()
    decryptor = _cipher(params).decryptor()
    unpadder = padding.PKCS7(spec.block_bits).unpadder()
    digest = hashlib.md5()
    remaining = header.length
    position = 0
    try:
        while remaining > 0:
            piece = source.read(min(PIECE_SIZE, remaining))
            if not piece:
                raise BadRequest(f"block {header.part_num}: block file "
                                 f"shorter than its header claims")
            remaining -= len(piece)
            plain = unpadder.update(decryptor.update(piece))
            gauge.note(len(piece) + len(plain))
            digest.update(plain)
            if plain:
                sink(plain, position)
            position += len(plain)
        tail = unpadder.update(decryptor.finalize()) + unpadder.finalize()
    except ValueError as exc:
        raise BadPadding(f"block {header.part_num}: {exc}") from None
    digest.update(tail)
    if tail:
        sink(tail, position)
    position += len(tail)
    if digest.digest() != header.md5:
        raise IntegrityMismatch(
            f"block {header.part_num}: content digest mismatch")
    return position


# -- planning ---------------------------------------------------------------

def plan_blocks(file_size: int,
                block_size: int = DEFAULT_BLOCK_SIZE
                ) -> list[tuple[int, int, int]]:
    """(part_num, offset, plain_length) descriptors covering the file."""
    if file_size < 0:
        raise BadRequest("file size must not be negative")
    if block_size < 1:
        raise BadRequest("block size must be at least 1")
    plan = []
    offset = 0
    part = 0
    while offset < file_size:
        length = min(block_size, file_size - offset)
        plan.append((part, offset, length))
        offset += length
        part += 1
    return plan


def assign_round_robin(parts: Sequence[int], workers: int) -> list[list[int]]:
    if workers < 1:
        raise NoWorkers("need at least one worker")
    queues: list[list[int]] = [[] for _ in range(workers)]
    for position, part in enumerate(parts):
        queues[position % workers].append(part)
    return queues


def block_name(base: str, part_num: int) -> str:
    return f"{base}.blk{part_num}"


def sequential_blocks(path: Path, params: CipherParams,
                      block_size: int = DEFAULT_BLOCK_SIZE,
                      piece_size: int = PIECE_SIZE):
    """Single-process encryption of a local file, yielding (part_num,
    block bytes) in order. The distributed path must produce exactly this."""
    size = os.path.getsize(path)
    with open(path, "rb") as handle:
        for part, offset, length in plan_blocks(size, block_size):
            def pieces(remaining=length):
                while remaining > 0:
                    piece = handle.read(min(piece_size, remaining))
                    if not piece:
                        raise BadRequest("file shrank while encrypting")
                    remaining -= len(piece)
                    yield piece
            yield part, encrypt_block_stream(pieces(), params, part,
                                             length)


# -- placement manifest -----------------------------------------------------

@dataclass(frozen=True)
class Placement:
    part_num: int
    holder: str          # "host:port" of the node storing the block
    name: str            # block file name within the holder's store


@dataclass
class PlacementMap:
    base_name: str
    file_size: int
    block_size: int
    cipher: str
    placements: dict[int, Placement] = field(default_factory=dict)


def encode_manifest(manifest: PlacementMap) -> bytes:
    entries = [
        wire.encode_fields({
            ME_PART: wire.u64(placement.part_num),
            ME_HOLDER: placement.holder.encode("utf-8"),
            ME_NAME: placement.name.encode("utf-8"),
        })
        for placement in sorted(manifest.placements.values(),
                                key=lambda p: p.part_num)
    ]
    return wire.encode_fields({
        M_BASE: manifest.base_name.encode("utf-8"),
        M_SIZE: wire.u64(manifest.file_size),
        M_BLOCK_SIZE: wire.u64(manifest.block_size),
        M_CIPHER: manifest.cipher.encode("utf-8"),
        M_ENTRIES: wire.pack_blobs(entries),
    })


def decode_manifest(raw: bytes) -> PlacementMap:
    fields = wire.decode_fields(raw)
    manifest = PlacementMap(
        base_name=fields.get(M_BASE, b"").decode("utf-8"),
        file_size=wire.read_uint(fields, M_SIZE, 0),
        block_size=wire.read_uint(fields, M_BLOCK_SIZE, DEFAULT_BLOCK_SIZE),
        cipher=fields.get(M_CIPHER, b"").decode("utf-8"))
    for blob in wire.unpack_blobs(fields.get(M_ENTRIES, b"")):
        entry = wire.decode_fields(blob)
        placement = Placement(
            wire.read_uint(entry, ME_PART),
            entry.get(ME_HOLDER, b"").decode("utf-8"),
            entry.get(ME_NAME, b"").decode("utf-8"))
        manifest.placements[placement.part_num] = placement
    return manifest


def manifest_path_for(file: Path) -> Path:
    return file.with_name(file.name + ".manifest")


def save_manifest(manifest: PlacementMap, path: Path) -> None:
    path.write_bytes(encode_manifest(manifest))


def load_manifest(path: Path) -> PlacementMap:
    return decode_manifest(Path(path).read_bytes())


# -- endpoint strings -------------------------------------------------------

def parse_endpoint(text: str) -> tuple[str, int]:
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit():
        raise BadRequest(f"endpoint {text!r} is not host:port")
    return host, int(port)


def _flat_name(name: str) -> bool:
    return (0 < len(name) <= 200 and "/" not in name and "\\" not in name
            and "\x00" not in name and name not in (".", ".."))


# -- worker service ---------------------------------------------------------

class CryptWorker:
    """Server side of CRYPT mode: executes one encrypt task per request.

    A task reads its plaintext range with DFS READs over the same session:
    it keeps a window of the range's READs in flight, takes the replies
    in order and encrypts each piece into the block's one buffer as it
    arrives, so hashing and encryption overlap the distributor's answers.
    A task that fails with replies still in flight takes them before its
    error is reported, and the session goes on. The block goes into the
    worker's store, whose path passes the sandbox gate (`dfsm.sandboxed`)
    before the first READ, as every file a session touches does, or, for
    a relayed task, back over the session as CRYPT_TASK frames of one
    piece each, ahead of the task's C_DONE reply. A worker dials no node:
    it needs no credentials but its own session's. Blocks are decrypted
    where they are reassembled, never on a worker.
    """

    def serve(self, channel: Channel, account: Account) -> None:
        channel.serve(lambda frame: self._one(channel, account,
                                              frame.payload),
                      FrameType.CRYPT_TASK)

    def _one(self, channel: Channel, account: Account,
             payload: bytes) -> None:
        denial = check(account, GuardedAction(ActionKind.EXECUTION))
        if denial is not None:
            raise PermissionDenied(denial)
        fields = wire.decode_fields(payload)
        part = wire.read_uint(fields, C_PART)
        secret = wire.decode_fields(fields.get(C_SECRETS, b""))
        params = CipherParams(
            fields.get(C_CIPHER, b"").decode("utf-8"),
            secret.get(SEC_KEY, b""), secret.get(SEC_IV, b""))
        params.spec()
        path = fields.get(C_PATH, b"").decode("utf-8")
        name = fields.get(C_BLOCK, b"").decode("utf-8")
        if not _flat_name(name):
            raise BadRequest("block names are flat file names")
        offset = wire.read_uint(fields, C_OFFSET)
        length = wire.read_uint(fields, C_LENGTH)
        if length > MAX_BLOCK_SIZE:
            raise BadRequest(f"blocks are at most {MAX_BLOCK_SIZE} bytes")
        destination = None if wire.read_uint(fields, C_RELAY, 0) else \
            sandboxed(account, f"{BLOCK_SUBDIR}/{name}")
        # not a context manager: its close would end the crypt session
        fs = FsClient(channel)
        try:
            block = self._encrypt(fs, params, part, path, offset, length)
        except GridfsError:
            # the distributor answers the reads in flight before it reads
            # the ERROR this becomes, so none is left for the next task
            fs.drain()
            raise
        if destination is None:
            piece_size = channel.params.buffer_size
            for start in range(0, len(block), piece_size):
                channel.send(FrameType.CRYPT_TASK, wire.encode_fields({
                    C_PIECE: block[start:start + piece_size]}))
        else:
            try:
                destination.parent.mkdir(parents=True, exist_ok=True)
                scratch = destination.with_name(destination.name + ".tmp")
                scratch.write_bytes(block)
                os.replace(scratch, destination)
            except OSError as exc:
                # the worker's fault, not the task's: the distributor
                # fails this worker over and goes on
                raise WorkerFailed(f"block store: {map_os_error(exc)}") \
                    from None
        channel.send(FrameType.CRYPT_TASK, wire.encode_fields({
            C_PART: wire.u64(part), C_DONE: wire.u8(1)}))

    def _encrypt(self, fs: FsClient, params: CipherParams, part: int,
                 path: str, offset: int, length: int) -> bytearray:
        piece_size = fs.channel.params.buffer_size
        fs.read_ahead(path, offset, length)

        def pieces():
            for start in range(offset, offset + length, piece_size):
                want = min(piece_size, offset + length - start)
                piece = fs.read(path, start, want)
                if len(piece) < want:
                    raise BadRequest(
                        "source file ends inside the block range")
                yield piece
        return encrypt_block_stream(pieces(), params, part, length)


# -- distributor ------------------------------------------------------------

def _encrypt_task_fields(part: int, offset: int, length: int,
                         params: CipherParams, path: str, name: str,
                         relay: bool) -> dict[int, bytes]:
    return {
        C_PART: wire.u64(part),
        C_SECRETS: wire.encode_fields({SEC_KEY: params.key,
                                       SEC_IV: params.iv}),
        C_CIPHER: params.cipher.encode("utf-8"),
        C_PATH: path.encode("utf-8"),
        C_OFFSET: wire.u64(offset),
        C_LENGTH: wire.u64(length),
        C_BLOCK: name.encode("utf-8"),
        C_RELAY: wire.u8(relay),
    }


def _answer_task(channel: Channel, fields: dict[int, bytes], source: Path,
                 spool) -> int:
    """Send one task, answer its reads of `source`, and write the pieces
    of a relayed block to `spool`; returns the part the worker reports
    done."""
    channel.send(FrameType.CRYPT_TASK, wire.encode_fields(fields))
    # the worker's request ids start over with each task
    share = FileShare(channel, source, source.name)
    while True:
        reply = wire.decode_fields(
            share.answer_until(FrameType.CRYPT_TASK).payload)
        if C_PIECE not in reply:
            return wire.read_uint(reply, C_PART)
        if spool is None:
            raise ProtocolError("a piece of a block that is not relayed")
        spool.write(reply[C_PIECE])


def _run_queue(address: str, tasks: list[dict[int, bytes]],
               username: str, psk: bytes, security: SecurityMode,
               buffer_size: int, source: Path,
               collector: TransferClient | None = None
               ) -> tuple[list[int], GridfsError | None]:
    """Feed one worker its task queue over a single crypt session, and
    answer the worker's reads of `source` while each task runs. Given a
    `collector`, each block comes back over the session into a spool file,
    which is pushed to the collector before the next task goes out.
    Returns the completed part numbers and the error that stopped the
    queue, if any. A failed push raises ConnectionLost naming the
    collector."""
    completed: list[int] = []
    try:
        channel = secchan.connect(
            parse_endpoint(address),
            SessionParams(Mode.CRYPT, security, buffer_size=buffer_size),
            username, psk)
    except GridfsError as exc:
        return completed, exc
    except OSError as exc:
        return completed, ConnectionLost(str(exc))
    try:
        for fields in tasks:
            with (tempfile.NamedTemporaryFile(prefix="gridfs-relay-")
                  if collector is not None
                  else contextlib.nullcontext()) as spool:
                try:
                    part = _answer_task(channel, fields, source, spool)
                except GridfsError as exc:
                    return completed, exc
                if collector is not None:
                    spool.flush()
                    try:
                        collector.push(Path(spool.name), f"{BLOCK_SUBDIR}/"
                                       f"{fields[C_BLOCK].decode('utf-8')}")
                    except (ConnectionLost, StreamLost, OSError) as exc:
                        host, port = collector.address
                        raise ConnectionLost(
                            f"collector {host}:{port}: {exc}") from exc
            completed.append(part)
        return completed, None
    finally:
        channel.close()


def distribute(file: Path, workers: Sequence[str], params: CipherParams,
               username: str, psk: bytes, *,
               block_size: int = DEFAULT_BLOCK_SIZE,
               security: SecurityMode = SecurityMode.NONSECURE,
               collector: str | None = None,
               buffer_size: int = wire.DEFAULT_MAX_PAYLOAD,
               manifest_path: Path | None = None) -> PlacementMap:
    """Encrypt `file` across `workers`, returning the placement manifest.

    Each worker reads its plaintext ranges over the crypt session that
    carries its tasks, and this process answers those reads: READ of this
    one file, by its name, and nothing else. No port is opened. Without a
    `collector`, each worker keeps its blocks. With one, each worker sends
    its blocks back over its session, and this process pushes them to the
    collector over one transfer client that lives as long as the run.

    A worker that fails forfeits the blocks it kept (they die with its
    store), but not those the collector holds, and the run redistributes
    the rest over the survivors; once none is left, WorkerFailed names
    the last worker that failed, by its address, and its error. A fault
    that is not the worker's ends the run at once with its own error: a
    task the worker answers with BadRequest, such as a source that ends
    inside a block range, and a failed push to the collector, a
    ConnectionLost that names the collector.
    """
    file = Path(file)
    params.spec()
    if not workers:
        raise NoWorkers("no workers given")
    if not file.is_file():
        raise BadRequest(f"no such file: {file}")
    if block_size > MAX_BLOCK_SIZE:
        raise BadRequest(f"blocks are at most {MAX_BLOCK_SIZE} bytes")
    plan = plan_blocks(os.path.getsize(file), block_size)
    manifest = PlacementMap(file.name, os.path.getsize(file), block_size,
                            params.cipher)
    if manifest_path is None:
        manifest_path = manifest_path_for(file)
    if not plan:
        save_manifest(manifest, manifest_path)
        return manifest

    lengths = {part: length for part, _, length in plan}
    offsets = {part: offset for part, offset, _ in plan}
    mover = (TransferClient(parse_endpoint(collector), username, psk,
                            security=security, buffer_size=buffer_size)
             if collector else None)
    alive = list(workers)
    pending = [part for part, _, _ in plan]
    with mover or contextlib.nullcontext():
        while pending:
            queues = assign_round_robin(pending, len(alive))
            outcomes = [([], None)] * len(alive)

            def run(index: int) -> None:
                tasks = [
                    _encrypt_task_fields(
                        part, offsets[part], lengths[part], params,
                        file.name, block_name(file.name, part),
                        mover is not None)
                    for part in queues[index]]
                outcomes[index] = _run_queue(alive[index], tasks, username,
                                             psk, security, buffer_size,
                                             file, mover)

            faults = [exc for exc in fan_out(run, len(alive)) if exc]
            faults += [error for _, error in outcomes
                       if isinstance(error, BadRequest)]
            if faults:
                raise faults[0]

            errors = []
            survivors = []
            still_pending = []
            for address, queue, (completed, error) in zip(alive, queues,
                                                          outcomes):
                # a failed worker's store is lost, the collector's is not
                placed = completed if error is None or collector else []
                for part in placed:
                    manifest.placements[part] = Placement(
                        part, collector or address,
                        block_name(file.name, part))
                still_pending += [p for p in queue if p not in placed]
                if error is None:
                    survivors.append(address)
                else:
                    errors.append((address, error))
            alive = survivors
            pending = still_pending
            if pending and not alive:
                address, error = errors[-1]
                if all(isinstance(e, PermissionDenied) for _, e in errors):
                    raise error
                raise WorkerFailed(f"{len(pending)} blocks unplaced: "
                                   f"worker {address}: {error}")

    for part, _, _ in plan:
        if part not in manifest.placements:
            raise WorkerFailed(f"block {part} was never placed")
    save_manifest(manifest, manifest_path)
    return manifest


# -- reassembly -------------------------------------------------------------

def reassemble(manifest: PlacementMap | Path, params: CipherParams,
               destination: Path, username: str, psk: bytes, *,
               security: SecurityMode = SecurityMode.NONSECURE,
               buffer_size: int = wire.DEFAULT_MAX_PAYLOAD) -> None:
    """Pull every block named in the manifest, decrypt, and rebuild the
    file at `destination`.

    One fetcher thread runs per holder, over one control session to it
    that the fetcher closes when it ends. Each pulls its holder's blocks
    in plan order, one at a time, into a spool file, decrypts the block
    straight into its place in the output and deletes the spool file
    before it pulls the next, so one holder's decrypt overlaps another's
    transfer. At most one block per holder sits on the spool disk, and
    one decrypt piece per holder in memory.

    All-or-nothing: the output appears only after every block has
    verified. The first failing block stops the run: every other fetcher
    finishes the block it holds and pulls no further, all of them are
    joined before the output and the spool are closed, and that first
    failure is raised."""
    if isinstance(manifest, (str, Path)):
        manifest = load_manifest(Path(manifest))
    params.spec()
    if manifest.cipher != params.cipher:
        raise BadRequest(
            f"manifest was written with {manifest.cipher!r}, "
            f"not {params.cipher!r}")
    plan = plan_blocks(manifest.file_size, manifest.block_size)
    for part, _, _ in plan:
        if part not in manifest.placements:
            raise MissingBlock(part)
    queues: dict[str, list[tuple[int, int, int]]] = {}
    for block in plan:
        queues.setdefault(manifest.placements[block[0]].holder,
                          []).append(block)
    fetchers = [(TransferClient(parse_endpoint(holder), username, psk,
                                security=security, buffer_size=buffer_size),
                 blocks)
                for holder, blocks in queues.items()]

    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    scratch = destination.with_name(destination.name + ".part")
    rebuilt = [0] * len(fetchers)
    failures: list[BaseException] = []
    stop = threading.Event()
    try:
        with open(scratch, "wb") as out, \
                tempfile.TemporaryDirectory(prefix="gridfs-blocks-") as spool:
            fd = out.fileno()

            def restore(mover: TransferClient, part: int, base_offset: int,
                        plain_length: int) -> int:
                local = Path(spool) / f"{part}.blk"
                remote = f"{BLOCK_SUBDIR}/{manifest.placements[part].name}"
                try:
                    mover.pull(remote, local)
                except (NoSuchFile, ConnectionLost, StreamLost,
                        OSError) as exc:
                    raise MissingBlock(part) from exc
                with open(local, "rb") as handle:
                    try:
                        header = decode_block_header(
                            handle.read(HEADER_SIZE))
                    except TruncatedHeader as exc:
                        raise TruncatedHeader(f"block {part}: {exc}") \
                            from None
                    if header.part_num != part:
                        raise IntegrityMismatch(
                            f"block {part}: file holds part "
                            f"{header.part_num}")
                    got = stream_decrypt(
                        handle, header, params,
                        lambda piece, pos: pwrite_all(
                            fd, piece, base_offset + pos))
                local.unlink()
                if got != plain_length:
                    raise IntegrityMismatch(
                        f"block {part}: {got} plaintext bytes where "
                        f"{plain_length} belong")
                return got

            def fetch(index: int) -> None:
                mover, blocks = fetchers[index]
                with mover:
                    for block in blocks:
                        if stop.is_set():
                            return
                        try:
                            rebuilt[index] += restore(mover, *block)
                        except BaseException as exc:
                            failures.append(exc)    # in the order they happen
                            stop.set()
                            raise

            fan_out(fetch, len(fetchers))
            if failures:
                raise failures[0]
            out.truncate(manifest.file_size)
            out.flush()
            os.fsync(fd)
        if sum(rebuilt) != manifest.file_size:
            raise IntegrityMismatch(
                f"rebuilt {sum(rebuilt)} bytes of {manifest.file_size}")
        os.replace(scratch, destination)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
