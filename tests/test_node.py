"""Daemon behavior: config parsing, handshake policy, dispatch, restarts."""

import functools
import logging
import os
import socket
import threading
import time

import pytest

from gridfs import ftsm, secchan, wire
from gridfs.dfsm import FsClient
from gridfs.errors import (
    AuthFailed,
    GridfsError,
    MalformedConfig,
    ModeRejected,
    VersionMismatch,
)
from gridfs.ftsm import TransferClient
from gridfs.node import NodeConfig, NodeServer, load_config, parse_config
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

from conftest import ALICE_PSK, GRID_PSK, seed_store


# -- config file ------------------------------------------------------------

def test_defaults_without_any_keys():
    config = parse_config("")
    assert config.host == "127.0.0.1"
    assert config.port == 2525
    assert config.buffer_cap == wire.DEFAULT_MAX_PAYLOAD
    assert config.modes == frozenset(Mode)


def test_keys_comments_and_blank_lines():
    config = parse_config(
        "# a node\n"
        "\n"
        "port = 9999   # overridden for tests\n"
        "host = 0.0.0.0\n"
        "storage_root = /tmp/somewhere\n"
        "max_sessions = 3\n"
        "drain_timeout = 1.5\n")
    assert config.port == 9999
    assert config.host == "0.0.0.0"
    assert str(config.storage_root) == "/tmp/somewhere"
    assert config.max_sessions == 3
    assert config.drain_timeout == 1.5


def test_modes_list():
    config = parse_config("modes = dfsm, ftsm_push\n")
    assert config.modes == frozenset({Mode.DFSM, Mode.FTSM_PUSH})


def test_unknown_key_warns_but_loads(caplog):
    with caplog.at_level("WARNING", logger="gridfs.node"):
        config = parse_config("colour = blue\nport = 1234\n", "x.conf")
    assert config.port == 1234
    assert any("colour" in record.message for record in caplog.records)


def test_bad_integer_names_the_line():
    with pytest.raises(MalformedConfig) as err:
        parse_config("host = a\nport = not-a-number\n", "node.conf")
    assert "node.conf:2" in str(err.value)


def test_negative_integer_refused():
    with pytest.raises(MalformedConfig):
        parse_config("port = -1\n")


def test_missing_equals_refused():
    with pytest.raises(MalformedConfig) as err:
        parse_config("port 2525\n", "c")
    assert "c:1" in str(err.value)


def test_unknown_mode_refused():
    with pytest.raises(MalformedConfig):
        parse_config("modes = dfsm, warp\n")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "node.conf"
    path.write_text("port = 7777\n")
    assert load_config(path).port == 7777
    with pytest.raises(MalformedConfig):
        load_config(tmp_path / "missing.conf")


# -- handshake and dispatch -------------------------------------------------

def connect(node, mode=Mode.DFSM, security=SecurityMode.SECURE,
            username="grid", psk=GRID_PSK, **kwargs):
    params = SessionParams(mode, security, **kwargs)
    return secchan.connect(("127.0.0.1", node.port), params, username, psk)


def test_unknown_user_rejected_like_bad_password(node):
    with pytest.raises(AuthFailed):
        connect(node, username="nobody", psk=b"k" * 32)


def test_wrong_version_rejected(node):
    params = SessionParams(Mode.DFSM, SecurityMode.SECURE, version=9)
    with pytest.raises(VersionMismatch):
        secchan.connect(("127.0.0.1", node.port), params, "grid", GRID_PSK)


@pytest.mark.parametrize("mode", list(Mode), ids=lambda mode: mode.name)
def test_version_one_hello_rejected_in_every_mode(node, mode):
    """Every version since 1 changed the wire so that an older peer
    fails, so the node refuses a version-1 HELLO in every mode, before any
    key is used."""
    with pytest.raises(VersionMismatch,
                       match="client speaks version 1, server "
                             f"{wire.PROTOCOL_VERSION}"):
        connect(node, mode=mode, version=1)


def test_version_five_hello_rejected(node):
    """Version 6 made a SECURE chunk's hash-list entry its AEAD tag, so a
    version-5 peer would fail every SECURE digest: the node refuses its
    HELLO."""
    with pytest.raises(VersionMismatch,
                       match="client speaks version 5, server "
                             f"{wire.PROTOCOL_VERSION}"):
        connect(node, version=5)


@pytest.mark.parametrize("direction", ["push", "pull"])
def test_client_facing_an_older_node_fails_once(node, sniff_factory,
                                                tmp_path, monkeypatch,
                                                direction):
    """A node that speaks the previous version refuses the client's
    HELLO: the transfer raises VersionMismatch after that one HELLO, with
    no retry and no backoff pause."""
    older = wire.PROTOCOL_VERSION - 1
    monkeypatch.setattr(wire, "negotiate",
                        functools.partial(wire.negotiate,
                                          server_version=older))
    pauses = []
    monkeypatch.setattr(ftsm.time, "sleep", pauses.append)
    proxy = sniff_factory(("127.0.0.1", node.port))
    local = tmp_path / "local.bin"
    local.write_bytes(os.urandom(10_000))
    (node.config.storage_root / "remote.bin").write_bytes(b"remote")
    with TransferClient(proxy.address, "grid", GRID_PSK,
                        streams=2) as mover:
        with pytest.raises(VersionMismatch,
                           match=f"client speaks version "
                                 f"{wire.PROTOCOL_VERSION}, server {older}"):
            if direction == "push":
                mover.push(local, "remote.bin")
            else:
                mover.pull("remote.bin", local)
    deadline = time.monotonic() + 5
    while proxy.count(FrameType.HELLO) == 0 and time.monotonic() < deadline:
        threading.Event().wait(0.01)    # the relay parses after it forwards
    assert proxy.count(FrameType.HELLO) == 1
    assert pauses == []


def test_refused_hello_is_logged_with_its_cause(node_factory, caplog):
    node = node_factory("dfsm-only", modes=frozenset({Mode.DFSM}))
    with caplog.at_level(logging.WARNING, logger="gridfs.node"):
        with pytest.raises(VersionMismatch):
            connect(node, version=1)
        with pytest.raises(ModeRejected):
            connect(node, mode=Mode.TASK)
    refusals = [record.getMessage() for record in caplog.records
                if record.name == "gridfs.node"
                and record.levelno == logging.WARNING]
    assert len(refusals) == 2
    assert all(line.startswith("refused session from ('127.0.0.1', ")
               for line in refusals)
    assert refusals[0].endswith(": client speaks version 1, server "
                                f"{wire.PROTOCOL_VERSION}")
    assert refusals[1].endswith(": mode TASK disabled on this server")


def test_disabled_mode_rejected(node_factory):
    node = node_factory("dfsm-only", modes=frozenset({Mode.DFSM}))
    with pytest.raises(ModeRejected):
        connect(node, mode=Mode.FTSM_PUSH)
    connect(node, mode=Mode.DFSM).close()


def test_buffer_negotiation_clamped_by_server_cap(node_factory):
    node = node_factory("small-buf", buffer_cap=8192)
    channel = connect(node, buffer_size=1 << 20)
    assert channel.params.buffer_size == 8192
    channel.close()


def test_session_limit_refuses_extra_connections(node_factory):
    node = node_factory("tiny", max_sessions=1)
    first = connect(node)
    try:
        with pytest.raises(GridfsError) as err:
            connect(node)
        assert "session limit" in str(err.value)
    finally:
        first.close()


def test_non_hello_first_frame_closes_connection(node):
    sock = socket.create_connection(("127.0.0.1", node.port), timeout=5)
    try:
        sock.sendall(wire.encode_frame(wire.Frame(FrameType.DFS_REQ, b"")))
        sock.settimeout(5)
        assert sock.recv(4096) == b""    # closed without a reply
    finally:
        sock.close()


def test_garbage_bytes_close_connection(node):
    sock = socket.create_connection(("127.0.0.1", node.port), timeout=5)
    try:
        sock.sendall(b"GET / HTTP/1.1\r\n\r\n")
        sock.settimeout(5)
        assert sock.recv(4096) == b""
    finally:
        sock.close()


def test_second_auth_is_a_protocol_violation(node):
    channel = connect(node)
    channel.send(FrameType.AUTH, b"again")
    with pytest.raises(GridfsError):
        channel.recv()    # server closed on us
    channel.close()


# -- end-to-end file access through a real node -----------------------------

def test_dfs_session_over_loopback(node, tmp_path):
    channel = connect(node, mode=Mode.DFSM)
    fs = FsClient(channel)
    fs.write("hello.txt", 0, b"hello over tcp")
    assert fs.read("hello.txt", 0, 100) == b"hello over tcp"
    fs.close()
    assert (node.config.storage_root / "hello.txt").read_bytes() == \
        b"hello over tcp"


def test_fs_close_closes_the_connection_answered_or_not(node):
    """`FsClient.close` closes its socket once CLOSE is answered, and also
    when CLOSE cannot be sent."""
    fs = FsClient(connect(node, mode=Mode.DFSM))
    fs.close()
    assert fs.channel.sock.fileno() == -1
    fs = FsClient(connect(node, mode=Mode.DFSM))
    fs.channel.sock.shutdown(socket.SHUT_WR)
    with pytest.raises((GridfsError, OSError)):
        fs.close()
    assert fs.channel.sock.fileno() == -1


def test_sandboxed_user_lands_in_home(node):
    channel = connect(node, username="alice", psk=ALICE_PSK)
    fs = FsClient(channel)
    fs.write("mine.txt", 0, b"alice data")
    fs.close()
    assert (node.config.storage_root / "home" / "alice" /
            "mine.txt").read_bytes() == b"alice data"


def test_restart_preserves_files_and_drops_sessions(tmp_path):
    """Server-side statelessness: a new process serves the same bytes;
    the old session's locks die with it."""
    root = seed_store(tmp_path / "store")
    config = NodeConfig(port=0, storage_root=root)
    first = NodeServer(config)
    first.start()
    channel = connect(first, mode=Mode.DFSM)
    fs = FsClient(channel)
    fs.write("persist.bin", 0, b"survives restarts")
    fs.lock("persist.bin", 0, 8)
    first.stop()

    second = NodeServer(NodeConfig(port=0, storage_root=root))
    second.start()
    try:
        with pytest.raises(GridfsError):
            fs.read("persist.bin", 0, 10)    # old session is dead
        channel2 = connect(second, mode=Mode.DFSM)
        fs2 = FsClient(channel2)
        assert fs2.read("persist.bin", 0, 100) == b"survives restarts"
        fs2.lock("persist.bin", 0, 8)    # no stale lock survives
        fs2.close()
    finally:
        second.stop()
