import errno
import os
import socket
import struct
import threading
from pathlib import Path

import pytest

from gridfs.node import NodeConfig, NodeServer
from gridfs.perms import PermissionDoc, serialize_permissions
from gridfs.wire import HEADER_FMT, HEADER_SIZE, MAGIC

GRID_PSK = bytes(range(32))
ALICE_PSK = bytes(range(32, 64))
BOB_PSK = b"b" * 32


def seed_store(root, extra_accounts=()):
    """Create a node storage tree with three users: `grid` (administrator),
    `alice` (file access only), `bob` (no permissions at all)."""
    etc = root / "etc"
    (etc / "accounts").mkdir(parents=True, exist_ok=True)
    lines = [f"grid:{GRID_PSK.hex()}", f"alice:{ALICE_PSK.hex()}",
             f"bob:{BOB_PSK.hex()}"]
    for username, psk in extra_accounts:
        lines.append(f"{username}:{psk.hex()}")
    (etc / "credentials").write_text("\n".join(lines) + "\n")
    (etc / "accounts" / "alice.xml").write_text(serialize_permissions(
        PermissionDoc.others(FileIOPermission=True, Execution=True)))
    (etc / "accounts" / "bob.xml").write_text(serialize_permissions(
        PermissionDoc.others()))
    return root


def fail_resolve_of(monkeypatch, name):
    """Make `Path.resolve()` raise EINVAL for paths named `name`, as it
    does when a rename of a symlink races it; returns the list that each
    such call appends its path to."""
    real = Path.resolve
    calls = []

    def resolve(self, strict=False):
        if self.name == name:
            calls.append(self)
            raise OSError(errno.EINVAL, os.strerror(errno.EINVAL))
        return real(self, strict)

    monkeypatch.setattr(Path, "resolve", resolve)
    return calls


@pytest.fixture
def node_factory(tmp_path):
    servers = []

    def make(subdir="node0", **overrides):
        root = seed_store(tmp_path / subdir / "store")
        overrides.setdefault("port", 0)
        config = NodeConfig(storage_root=root, **overrides)
        server = NodeServer(config)
        server.start()
        servers.append(server)
        return server

    yield make
    for server in servers:
        server.stop()


@pytest.fixture
def node(node_factory):
    return node_factory()


class SniffProxy:
    """TCP relay that records everything crossing it, in both directions,
    across every connection. Frames are split out of each direction's byte
    stream so tests can count them by type; the raw capture is kept whole
    for plaintext scans."""

    def __init__(self, target):
        self.target = target
        self.frames = []            # (direction, frame_type, flags, payload)
        # (frame_type, count): cut the connection right behind the n-th
        # server-to-client frame of that type, or of any type given None;
        # the count runs over every connection, and a cut clears the trigger
        self.kill_s2c_after = None
        self._kill_count = 0
        self._chunks = []
        self._lock = threading.Lock()
        self._conns = []
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self.address = ("127.0.0.1", self.port)
        self._stopping = False
        self._accept_thread = threading.Thread(target=self._accept,
                                               daemon=True)
        self._accept_thread.start()

    def raw(self) -> bytes:
        with self._lock:
            return b"".join(self._chunks)

    def count(self, frame_type) -> int:
        with self._lock:
            return sum(1 for _, ftype, _, _ in self.frames
                       if ftype == frame_type)

    def payloads(self, frame_type) -> list:
        with self._lock:
            return [payload for _, ftype, _, payload in self.frames
                    if ftype == frame_type]

    def _accept(self):
        while True:
            try:
                client, _ = self._listener.accept()
            except OSError:
                return
            if self._stopping:
                client.close()
                return
            try:
                upstream = socket.create_connection(self.target, timeout=5)
            except OSError:
                client.close()
                continue
            with self._lock:
                self._conns += [client, upstream]
            for src, dst, tag in ((client, upstream, "c2s"),
                                  (upstream, client, "s2c")):
                threading.Thread(target=self._pump, args=(src, dst, tag),
                                 daemon=True).start()

    def _pump(self, src, dst, direction):
        buffer = bytearray()
        while True:
            try:
                data = src.recv(65536)
            except OSError:
                data = b""
            if not data:
                break
            buffer += data
            rest = self._parse(buffer, direction)
            if rest is not None:    # kill trigger fired for this connection
                data = data[:len(data) - rest]
            with self._lock:
                self._chunks.append(data)
            try:
                dst.sendall(data)
            except OSError:
                break
            if rest is not None:
                break
        for sock in (src, dst):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def _parse(self, buffer, direction):
        """Record each whole frame in `buffer` and take it out; returns
        None, or, once the kill trigger fires, the count of bytes left
        behind the frame that fired it, which are not to be relayed."""
        while len(buffer) >= HEADER_SIZE:
            magic, ftype, flags, length = struct.unpack_from(
                HEADER_FMT, buffer)
            if magic != MAGIC:
                del buffer[:]        # not a framed stream; stop parsing
                return None
            if len(buffer) < HEADER_SIZE + length:
                return None
            payload = bytes(buffer[HEADER_SIZE:HEADER_SIZE + length])
            with self._lock:
                self.frames.append((direction, ftype, flags, payload))
            del buffer[:HEADER_SIZE + length]
            trigger = self.kill_s2c_after
            if trigger and direction == "s2c" and \
                    trigger[0] in (None, ftype):
                self._kill_count += 1
                if self._kill_count >= trigger[1]:
                    self.kill_s2c_after = None    # one kill per trigger
                    self._kill_count = 0
                    return len(buffer)
        return None

    def drop_connections(self):
        """Cut every relayed connection, as a restarted node would, and
        keep accepting new ones."""
        with self._lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass

    def close(self):
        self._stopping = True
        self._listener.close()
        with self._lock:
            conns = list(self._conns)
        for sock in conns:
            try:
                sock.close()
            except OSError:
                pass


@pytest.fixture
def sniff_factory():
    proxies = []

    def make(target):
        proxy = SniffProxy(target)
        proxies.append(proxy)
        return proxy

    yield make
    for proxy in proxies:
        proxy.close()
