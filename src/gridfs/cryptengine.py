"""Distributed block cryptography: slice, fan out, encrypt, reassemble.

A file is cut into fixed-size blocks. Each block becomes one task: a worker
node reads its plaintext range from the distributor's remote file system
service, encrypts it, and keeps the headed block in its own store or streams
it to a collector node. A manifest records where every block ended up; the
reverse path pulls the blocks back, verifies each one, and rebuilds the
file bit for bit.

Every block file starts with a fixed 32-byte header: the 0-based block
index, the ciphertext length, and the MD5 digest of the block's plaintext.
Decryption recomputes the digest and refuses anything that does not match,
so a wrong key, a truncated file, or a flipped bit all fail loudly.

One key and one IV cover the whole file, so a given (file, key, IV) always
produces identical blocks; that determinism is what lets a distributed run
be checked against a sequential one. Reusing the IV across blocks leaks
whether two blocks begin with the same plaintext; callers who care should
encrypt each file under a fresh IV.

Ciphers live in a small registry keyed by name. AES-128 and two-key
triple DES ship by default; both run CBC with PKCS#7 padding.
"""

from __future__ import annotations

import hashlib
import os
import shutil
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
from .dfsm import FsClient
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
)
from .ftsm import TransferClient, fan_out
from .perms import Account, ActionKind, GuardedAction, check
from .secchan import Channel
from .wire import FrameType, Mode, SecurityMode, SessionParams

DEFAULT_BLOCK_SIZE = 20 * 2 ** 20
HEADER_FMT = ">QQ16s"      # part_num | ciphertext length | plaintext md5
HEADER_SIZE = struct.calcsize(HEADER_FMT)
PIECE_SIZE = 262144        # streaming granularity for local block files

DIR_ENCRYPT = 0            # the only direction a worker serves

# CRYPT_TASK request fields; tag 2 is the sealed one, keep secrets there
C_PART = 1
C_SECRETS = 2              # nested map: key, iv, delegated credentials
C_CIPHER = 3
C_DIRECTION = 4
C_SOURCE = 5               # "host:port" of the node holding the plaintext
C_PATH = 6                 # remote file holding the plaintext
C_OFFSET = 7
C_LENGTH = 8
C_BLOCK = 9                # block file name in the worker's store
C_COLLECTOR = 10           # "host:port"; block is pushed there when present
C_DONE = 11                # reply: completion marker

# nested secret-map tags
SEC_KEY = 1
SEC_IV = 2
SEC_USER = 3
SEC_PSK = 4

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


# -- cipher registry --------------------------------------------------------

@dataclass(frozen=True)
class CipherSpec:
    name: str
    key_size: int
    iv_size: int
    block_bits: int
    factory: Callable[[bytes], object]


CIPHERS: dict[str, CipherSpec] = {}


def register_cipher(spec: CipherSpec) -> None:
    CIPHERS[spec.name] = spec


register_cipher(CipherSpec("aes128", 16, 16, 128, algorithms.AES128))
# 16-byte keying: K1|K2 expanded to K1|K2|K1 (two-key triple DES)
register_cipher(CipherSpec("tdes", 16, 8, 64,
                           lambda key: TripleDES(key + key[:8])))


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
                         part_num: int) -> bytes:
    """Encrypt one block fed as plaintext pieces; returns header followed
    by ciphertext. Only the growing ciphertext and the current piece are
    ever held."""
    if part_num < 0:
        raise BadRequest("block numbers are 0-based")
    spec = params.spec()
    encryptor = _cipher(params).encryptor()
    padder = padding.PKCS7(spec.block_bits).padder()
    digest = hashlib.md5()
    parts = []
    held = 0
    for piece in pieces:
        digest.update(piece)
        out = encryptor.update(padder.update(piece))
        parts.append(out)
        held += len(out)
        gauge.note(held + len(piece))
    out = encryptor.update(padder.finalize()) + encryptor.finalize()
    parts.append(out)
    held += len(out)
    gauge.note(held)
    ciphertext = b"".join(parts)
    header = BlockHeader(part_num, len(ciphertext), digest.digest())
    return header.encode() + ciphertext


def encrypt_block(plaintext: bytes, params: CipherParams,
                  part_num: int) -> bytes:
    return encrypt_block_stream((plaintext,), params, part_num)


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
                raise BadRequest(
                    "block file shorter than its header claims")
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


class _BytesReader:
    def __init__(self, data: bytes):
        self._view = memoryview(data)
        self._pos = 0

    def read(self, want: int) -> bytes:
        piece = self._view[self._pos:self._pos + want]
        self._pos += len(piece)
        return bytes(piece)


def decrypt_block(block: bytes, params: CipherParams) -> tuple[int, bytes]:
    """Inverse of encrypt_block: returns (part_num, plaintext)."""
    header = decode_block_header(block)
    if len(block) - HEADER_SIZE < header.length:
        raise BadRequest("block file shorter than its header claims")
    out = []
    source = _BytesReader(block[HEADER_SIZE:HEADER_SIZE + header.length])
    stream_decrypt(source, header, params,
                   lambda piece, _pos: out.append(piece))
    return header.part_num, b"".join(out)


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
            yield part, encrypt_block_stream(pieces(), params, part)


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

    def part_count(self) -> int:
        return len(plan_blocks(self.file_size, self.block_size))


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

    A task reads its plaintext range from the source node's file service,
    so the bulk data never stages through the distributor's memory. Blocks
    are decrypted where they are reassembled, never on a worker.
    """

    def serve(self, channel: Channel, account: Account) -> None:
        while True:
            try:
                frame = channel.recv()
            except ConnectionLost:
                return
            if frame.frame_type != FrameType.CRYPT_TASK:
                raise ProtocolError(
                    f"unexpected frame 0x{frame.frame_type:02x} on a "
                    "crypt session")
            try:
                self._one(channel, account, frame.payload)
            except ProtocolError:
                raise
            except GridfsError as exc:
                channel.send_error(exc)

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
        username = secret.get(SEC_USER, b"").decode("utf-8")
        psk = secret.get(SEC_PSK, b"")
        direction = wire.read_uint(fields, C_DIRECTION, DIR_ENCRYPT)
        if direction != DIR_ENCRYPT:
            raise BadRequest(f"unknown direction {direction}")
        source = fields.get(C_SOURCE, b"").decode("utf-8")
        path = fields.get(C_PATH, b"").decode("utf-8")
        name = fields.get(C_BLOCK, b"").decode("utf-8")
        if not _flat_name(name):
            raise BadRequest("block names are flat file names")
        offset = wire.read_uint(fields, C_OFFSET)
        length = wire.read_uint(fields, C_LENGTH)
        collector = fields.get(C_COLLECTOR, b"").decode("utf-8")
        self._encrypt(channel, account, params, username, psk, part,
                      source, path, offset, length, name, collector)
        channel.send(FrameType.CRYPT_TASK, wire.encode_fields({
            C_PART: wire.u64(part), C_DONE: wire.u8(1)}))

    def _encrypt(self, channel: Channel, account: Account,
                 params: CipherParams, username: str, psk: bytes, part: int,
                 source: str, path: str, offset: int, length: int,
                 name: str, collector: str) -> None:
        piece_size = channel.params.buffer_size
        fs_params = SessionParams(Mode.DFSM, channel.params.security,
                                  buffer_size=piece_size)
        with FsClient(secchan.connect(parse_endpoint(source), fs_params,
                                      username, psk)) as fs:
            def pieces():
                done = 0
                while done < length:
                    piece = fs.read(path, offset + done,
                                    min(piece_size, length - done))
                    if not piece:
                        raise BadRequest(
                            "source file ends inside the block range")
                    done += len(piece)
                    yield piece
            block = encrypt_block_stream(pieces(), params, part)

        destination = account.sandbox_root / BLOCK_SUBDIR / name
        destination.parent.mkdir(parents=True, exist_ok=True)
        scratch = destination.with_name(destination.name + ".tmp")
        scratch.write_bytes(block)
        if collector:
            try:
                mover = TransferClient(
                    parse_endpoint(collector), username, psk,
                    security=channel.params.security,
                    buffer_size=channel.params.buffer_size)
                mover.push(scratch, f"{BLOCK_SUBDIR}/{name}")
            finally:
                scratch.unlink(missing_ok=True)
        else:
            os.replace(scratch, destination)


# -- distributor ------------------------------------------------------------

def _share_file(file: Path, username: str, psk: bytes, listen_host: str,
                buffer_cap: int):
    """Stand up a throwaway node whose file service exposes exactly one
    file to exactly one account. Returns (server, tempdir handle)."""
    from .node import NodeConfig, NodeServer
    from .perms import PermissionDoc, serialize_permissions

    scratch = tempfile.TemporaryDirectory(prefix="gridfs-share-")
    root = Path(scratch.name) / "store"
    etc = root / "etc" / "accounts"
    etc.mkdir(parents=True)
    (root / "etc" / "credentials").write_text(
        f"{username}:{psk.hex()}\n")
    (etc / f"{username}.xml").write_text(serialize_permissions(
        PermissionDoc.others(FileIOPermission=True)))
    home = root / "home" / username
    home.mkdir(parents=True)
    try:
        os.link(file, home / file.name)
    except OSError:
        shutil.copy2(file, home / file.name)

    config = NodeConfig(host=listen_host, port=0, storage_root=root,
                        modes=frozenset({Mode.DFSM}), buffer_cap=buffer_cap)
    server = NodeServer(config)
    try:
        server.start()
    except BaseException:
        scratch.cleanup()
        raise
    return server, scratch


def _encrypt_task_fields(part: int, offset: int, length: int,
                         params: CipherParams, username: str, psk: bytes,
                         source: str, path: str, name: str,
                         collector: str | None) -> dict[int, bytes]:
    fields = {
        C_PART: wire.u64(part),
        C_SECRETS: wire.encode_fields({
            SEC_KEY: params.key, SEC_IV: params.iv,
            SEC_USER: username.encode("utf-8"), SEC_PSK: psk}),
        C_CIPHER: params.cipher.encode("utf-8"),
        C_DIRECTION: wire.u8(DIR_ENCRYPT),
        C_SOURCE: source.encode("utf-8"),
        C_PATH: path.encode("utf-8"),
        C_OFFSET: wire.u64(offset),
        C_LENGTH: wire.u64(length),
        C_BLOCK: name.encode("utf-8"),
    }
    if collector:
        fields[C_COLLECTOR] = collector.encode("utf-8")
    return fields


def _run_queue(address: str, tasks: list[dict[int, bytes]],
               username: str, psk: bytes, security: SecurityMode,
               buffer_size: int) -> tuple[list[int], GridfsError | None]:
    """Feed one worker its task queue over a single crypt session.
    Returns the completed part numbers and the error that stopped the
    queue, if any."""
    completed: list[int] = []
    try:
        channel = secchan.connect(
            parse_endpoint(address),
            SessionParams(Mode.CRYPT, security, buffer_size=buffer_size),
            username, psk)
    except (GridfsError, OSError) as exc:
        if isinstance(exc, GridfsError):
            return completed, exc
        return completed, ConnectionLost(str(exc))
    try:
        for fields in tasks:
            channel.send(FrameType.CRYPT_TASK, wire.encode_fields(fields))
            reply = wire.decode_fields(
                channel.expect(FrameType.CRYPT_TASK).payload)
            completed.append(wire.read_uint(reply, C_PART))
        return completed, None
    except GridfsError as exc:
        return completed, exc
    finally:
        channel.close()


def distribute(file: Path, workers: Sequence[str], params: CipherParams,
               username: str, psk: bytes, *,
               block_size: int = DEFAULT_BLOCK_SIZE,
               security: SecurityMode = SecurityMode.NONSECURE,
               collector: str | None = None,
               listen_host: str = "127.0.0.1",
               advertise_host: str | None = None,
               buffer_size: int = wire.DEFAULT_MAX_PAYLOAD,
               manifest_path: Path | None = None) -> PlacementMap:
    """Encrypt `file` across `workers`, returning the placement manifest.

    The file is shared read-only through a throwaway node for the duration
    of the run; workers pull their ranges from it directly. A worker that
    dies forfeits all its blocks (they die with its store) and the run
    redistributes them over the survivors.
    """
    file = Path(file)
    params.spec()
    if not workers:
        raise NoWorkers("no workers given")
    if not file.is_file():
        raise BadRequest(f"no such file: {file}")
    plan = plan_blocks(os.path.getsize(file), block_size)
    manifest = PlacementMap(file.name, os.path.getsize(file), block_size,
                            params.cipher)
    if manifest_path is None:
        manifest_path = manifest_path_for(file)
    if not plan:
        save_manifest(manifest, manifest_path)
        return manifest

    server, scratch = _share_file(file, username, psk, listen_host,
                                  buffer_size)
    host = advertise_host or listen_host
    source = f"{host}:{server.port}"
    lengths = {part: length for part, _, length in plan}
    offsets = {part: offset for part, offset, _ in plan}
    try:
        alive = list(workers)
        pending = [part for part, _, _ in plan]
        while pending:
            queues = assign_round_robin(pending, len(alive))
            outcomes = [([], None)] * len(alive)

            def run(index: int) -> None:
                tasks = [
                    _encrypt_task_fields(
                        part, offsets[part], lengths[part], params,
                        username, psk, source, file.name,
                        block_name(file.name, part), collector)
                    for part in queues[index]]
                outcomes[index] = _run_queue(alive[index], tasks, username,
                                             psk, security, buffer_size)

            for index, exc in enumerate(fan_out(run, len(alive))):
                if exc is not None:
                    outcomes[index] = ([], WorkerFailed(str(exc)))

            errors = []
            survivors = []
            still_pending = []
            for address, queue, (completed, error) in zip(alive, queues,
                                                          outcomes):
                if error is None:
                    survivors.append(address)
                    holder = collector or address
                    for part in completed:
                        manifest.placements[part] = Placement(
                            part, holder, block_name(file.name, part))
                    continue
                errors.append(error)
                # a dead worker's store is gone: blocks it already wrote
                # are lost too, unless they went to the collector
                if collector:
                    for part in completed:
                        manifest.placements[part] = Placement(
                            part, collector, block_name(file.name, part))
                    still_pending += [p for p in queue
                                      if p not in completed]
                else:
                    still_pending += queue
            alive = survivors
            pending = still_pending
            if pending and not alive:
                if errors and all(isinstance(e, PermissionDenied)
                                  for e in errors):
                    raise errors[-1]
                raise WorkerFailed(
                    f"{len(pending)} blocks unplaced: {errors[-1]}")
    finally:
        server.stop()
        scratch.cleanup()

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
    file at `destination`. All-or-nothing: the output appears only after
    every block has verified."""
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

    destination = Path(destination)
    destination.parent.mkdir(parents=True, exist_ok=True)
    scratch = destination.with_name(destination.name + ".part")
    movers: dict[str, TransferClient] = {}
    rebuilt = 0
    try:
        with open(scratch, "wb") as out, \
                tempfile.TemporaryDirectory(prefix="gridfs-blocks-") as spool:
            fd = out.fileno()
            for part, base_offset, plain_length in plan:
                placement = manifest.placements[part]
                mover = movers.get(placement.holder)
                if mover is None:
                    mover = TransferClient(
                        parse_endpoint(placement.holder), username, psk,
                        security=security, buffer_size=buffer_size)
                    movers[placement.holder] = mover
                local = Path(spool) / f"{part}.blk"
                try:
                    mover.pull(f"{BLOCK_SUBDIR}/{placement.name}", local)
                except (NoSuchFile, ConnectionLost, StreamLost,
                        OSError) as exc:
                    raise MissingBlock(part) from exc
                with open(local, "rb") as handle:
                    header = decode_block_header(handle.read(HEADER_SIZE))
                    if header.part_num != part:
                        raise IntegrityMismatch(
                            f"block {part}: file holds part "
                            f"{header.part_num}")
                    got = stream_decrypt(
                        handle, header, params,
                        lambda piece, pos: os.pwrite(
                            fd, piece, base_offset + pos))
                local.unlink()
                if got != plain_length:
                    raise IntegrityMismatch(
                        f"block {part}: {got} plaintext bytes where "
                        f"{plain_length} belong")
                rebuilt += got
            out.truncate(manifest.file_size)
            out.flush()
            os.fsync(fd)
        if rebuilt != manifest.file_size:
            raise IntegrityMismatch(
                f"rebuilt {rebuilt} bytes of {manifest.file_size}")
        os.replace(scratch, destination)
    except BaseException:
        scratch.unlink(missing_ok=True)
        raise
