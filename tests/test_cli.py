"""Command line coverage: argument handling, exit codes, and one
subprocess run of the daemon the way an operator would start it."""

import hashlib
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import ALICE_PSK, BOB_PSK, GRID_PSK, seed_store
from gridfs.cli import (
    EX_DENIED,
    EX_FAILURE,
    EX_OK,
    EX_USAGE,
    main,
    parse_node_address,
    split_remote,
)
from gridfs.taskexec import pi_hex_digits


AS_ALICE = ["--user", "alice", "--psk", ALICE_PSK.hex()]


def endpoint(node):
    return f"127.0.0.1:{node.port}"


def sandbox(node, username="alice"):
    return node.config.storage_root / "home" / username


# -- address parsing ---------------------------------------------------------

def test_parse_node_address_defaults_port():
    assert parse_node_address("example") == ("example", 2525)
    assert parse_node_address("example:9000") == ("example", 9000)


def test_parse_node_address_rejects_garbage():
    from gridfs.cli import UsageError
    with pytest.raises(UsageError):
        parse_node_address(":9000")
    with pytest.raises(UsageError):
        parse_node_address("host:soon")


def test_split_remote_forms():
    assert split_remote("host:path/to/f") == (("host", 2525), "path/to/f")
    assert split_remote("host:9000:f.bin") == (("host", 9000), "f.bin")
    assert split_remote("/local/path") is None
    assert split_remote("dir/with:colon") is None
    assert split_remote("relative.bin") is None
    # a colon inside the remote path, port still defaulted
    assert split_remote("host:odd:name") == (("host", 2525), "odd:name")


def test_both_sides_local_is_usage_error(capsys):
    assert main(["cp", "a", "b"]) == EX_USAGE
    assert "node:path" in capsys.readouterr().err


def test_unknown_verb_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_missing_credentials_is_usage_error(capsys, monkeypatch):
    monkeypatch.delenv("GRIDFS_USER", raising=False)
    monkeypatch.delenv("GRIDFS_PSK", raising=False)
    assert main(["cp", "src.bin", "host:dst.bin"]) == EX_USAGE
    assert "GRIDFS_USER" in capsys.readouterr().err


# -- cp ----------------------------------------------------------------------

def test_cp_push_then_pull(node, tmp_path, capsys):
    payload = os.urandom(300_000)
    src = tmp_path / "src.bin"
    src.write_bytes(payload)
    code = main(["cp", str(src), f"{endpoint(node)}:data/copy.bin",
                 "--streams", "3", *AS_ALICE])
    assert code == EX_OK
    assert "pushed" in capsys.readouterr().out
    assert (sandbox(node) / "data" / "copy.bin").read_bytes() == payload

    back = tmp_path / "back.bin"
    code = main(["cp", f"{endpoint(node)}:data/copy.bin", str(back),
                 "--streams", "2", *AS_ALICE])
    assert code == EX_OK
    assert "pulled" in capsys.readouterr().out
    assert back.read_bytes() == payload


def test_cp_pull_region(node, tmp_path):
    target = sandbox(node) / "part-src.bin"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_bytes(b"0123456789ABCDEF")
    out = tmp_path / "part.bin"
    code = main(["cp", f"{endpoint(node)}:part-src.bin", str(out),
                 "--offset", "10", "--length", "5", *AS_ALICE])
    assert code == EX_OK
    assert out.read_bytes()[10:15] == b"ABCDE"


def test_cp_offset_without_length_is_usage_error(node, tmp_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x")
    code = main(["cp", str(src), f"{endpoint(node)}:x.bin",
                 "--offset", "1", *AS_ALICE])
    assert code == EX_USAGE


def test_cp_denied_user_exits_3(node, tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"payload")
    code = main(["cp", str(src), f"{endpoint(node)}:x.bin",
                 "--user", "bob", "--psk", BOB_PSK.hex()])
    assert code == EX_DENIED
    assert "gridfs:" in capsys.readouterr().err


def test_cp_wrong_psk_exits_3(node, tmp_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"payload")
    code = main(["cp", str(src), f"{endpoint(node)}:x.bin",
                 "--user", "alice", "--psk", "00" * 32])
    assert code == EX_DENIED


def test_credentials_from_environment(node, tmp_path, monkeypatch):
    monkeypatch.setenv("GRIDFS_USER", "alice")
    monkeypatch.setenv("GRIDFS_PSK", ALICE_PSK.hex())
    src = tmp_path / "env.bin"
    src.write_bytes(b"via environment")
    code = main(["cp", str(src), f"{endpoint(node)}:env.bin"])
    assert code == EX_OK
    assert (sandbox(node) / "env.bin").read_bytes() == b"via environment"


# -- fs ----------------------------------------------------------------------

def test_fs_write_read_stat_truncate(node, tmp_path, capsys):
    remote = f"{endpoint(node)}:notes.txt"
    assert main(["fs", "write", remote, "--data", "hello grid",
                 *AS_ALICE]) == EX_OK
    capsys.readouterr()

    assert main(["fs", "stat", remote, *AS_ALICE]) == EX_OK
    assert "size=10" in capsys.readouterr().out

    out = tmp_path / "fetched.txt"
    assert main(["fs", "read", remote, "--out", str(out),
                 *AS_ALICE]) == EX_OK
    assert out.read_bytes() == b"hello grid"

    assert main(["fs", "read", remote, "--offset", "6", *AS_ALICE]) == EX_OK
    assert capsys.readouterr().out.endswith("grid")

    assert main(["fs", "truncate", remote, "--size", "5",
                 *AS_ALICE]) == EX_OK
    capsys.readouterr()
    assert main(["fs", "stat", remote, *AS_ALICE]) == EX_OK
    assert "size=5" in capsys.readouterr().out


def test_fs_write_from_file(node, tmp_path):
    src = tmp_path / "in.bin"
    src.write_bytes(b"\x00\x01\x02binary")
    assert main(["fs", "write", f"{endpoint(node)}:raw.bin",
                 "--input", str(src), *AS_ALICE]) == EX_OK
    assert (sandbox(node) / "raw.bin").read_bytes() == b"\x00\x01\x02binary"


def test_fs_lock_hold_release(node, capsys):
    remote = f"{endpoint(node)}:locked.bin"
    assert main(["fs", "write", remote, "--data", "z", *AS_ALICE]) == EX_OK
    capsys.readouterr()
    assert main(["fs", "lock", remote, "--offset", "0", "--length", "1",
                 *AS_ALICE]) == EX_OK
    out = capsys.readouterr().out
    assert "acquired" in out and "released" in out


def test_fs_unlock_foreign_id_fails(node, capsys):
    remote = f"{endpoint(node)}:locked2.bin"
    assert main(["fs", "write", remote, "--data", "z", *AS_ALICE]) == EX_OK
    code = main(["fs", "unlock", remote, "--lock-id", "424242",
                 *AS_ALICE])
    assert code == EX_FAILURE


def test_fs_read_missing_file_fails(node):
    assert main(["fs", "stat", f"{endpoint(node)}:absent.bin",
                 *AS_ALICE]) == EX_FAILURE


# -- submit ------------------------------------------------------------------

def test_submit_runs_process_and_streams_output(node, capsys):
    code = main(["submit", "--node", endpoint(node), *AS_ALICE,
                 "--", "/bin/sh", "-c", "echo out-line; echo err-line >&2"])
    captured = capsys.readouterr()
    assert code == EX_OK
    assert "out-line" in captured.out
    assert "err-line" in captured.err


def test_submit_nonzero_exit_maps_to_failure(node, capsys):
    code = main(["submit", "--node", endpoint(node), *AS_ALICE,
                 "--", "/bin/sh", "-c", "exit 3"])
    assert code == EX_FAILURE
    assert "exit code 3" in capsys.readouterr().err


def test_submit_with_dependency_and_output(node, tmp_path, capsys):
    payload = os.urandom(4096)
    dep = tmp_path / "input.bin"
    dep.write_bytes(payload)
    outdir = tmp_path / "results"
    code = main(["submit", "--node", endpoint(node), *AS_ALICE,
                 "--dep", f"{dep}:input.bin",
                 "--output", "copy.bin", "--out-dir", str(outdir),
                 "--", "/bin/cp", "input.bin", "copy.bin"])
    assert code == EX_OK
    assert (outdir / "copy.bin").read_bytes() == payload


def test_submit_denied_user_exits_3(node):
    code = main(["submit", "--node", endpoint(node),
                 "--user", "bob", "--psk", BOB_PSK.hex(),
                 "--", "/bin/true"])
    assert code == EX_DENIED


def test_submit_without_command_is_usage_error(node, capsys):
    assert main(["submit", "--node", endpoint(node),
                 *AS_ALICE]) == EX_USAGE


# -- pi ----------------------------------------------------------------------

def test_pi_local(capsys):
    assert main(["pi", "1", "16"]) == EX_OK
    assert capsys.readouterr().out.strip() == "243F6A8885A308D3"


def test_pi_fanned_out_matches_local(node_factory, capsys):
    nodes = [node_factory("n0"), node_factory("n1")]
    eps = ",".join(f"127.0.0.1:{server.port}" for server in nodes)
    code = main(["pi", "1", "32", "--nodes", eps,
                 "--user", "alice", "--psk", ALICE_PSK.hex()])
    assert code == EX_OK
    assert capsys.readouterr().out.strip() == pi_hex_digits(1, 32)


def test_pi_offset_fan_out(node, capsys):
    code = main(["pi", "101", "12", "--nodes", endpoint(node),
                 *AS_ALICE])
    assert code == EX_OK
    assert capsys.readouterr().out.strip() == pi_hex_digits(101, 12)


# -- crypt -------------------------------------------------------------------

def test_crypt_encrypt_decrypt_roundtrip(node_factory, tmp_path, capsys):
    workers = [node_factory("w0"), node_factory("w1")]
    eps = ",".join(f"127.0.0.1:{server.port}" for server in workers)
    payload = os.urandom(200_000)
    plain = tmp_path / "secret.bin"
    plain.write_bytes(payload)
    key, iv = os.urandom(16).hex(), os.urandom(16).hex()

    code = main(["crypt", "encrypt", str(plain), "--workers", eps,
                 "--key", key, "--iv", iv, "--block-size", "65536",
                 "--user", "alice", "--psk", ALICE_PSK.hex()])
    assert code == EX_OK
    out = capsys.readouterr().out
    assert "placed 4 block(s)" in out
    manifest = tmp_path / "secret.bin.manifest"
    assert manifest.exists()

    rebuilt = tmp_path / "rebuilt.bin"
    code = main(["crypt", "decrypt", str(plain), "--out", str(rebuilt),
                 "--key", key, "--iv", iv,
                 "--user", "alice", "--psk", ALICE_PSK.hex()])
    assert code == EX_OK
    out = capsys.readouterr().out
    assert "sha256=" in out
    assert f"sha256={hashlib.sha256(payload).hexdigest()}" in out
    assert rebuilt.read_bytes() == payload


def test_crypt_bad_key_hex_is_usage_error(tmp_path):
    plain = tmp_path / "f.bin"
    plain.write_bytes(b"x")
    code = main(["crypt", "encrypt", str(plain), "--workers", "h",
                 "--key", "zz", "--iv", "00" * 16,
                 "--user", "alice", "--psk", ALICE_PSK.hex()])
    assert code == EX_USAGE


# -- bench -------------------------------------------------------------------

def test_bench_mem_smoke(node, capsys):
    code = main(["bench", "--node", endpoint(node), "--mem",
                 "--streams", "2", "--seconds", "0.2", *AS_ALICE])
    assert code == EX_OK
    out = capsys.readouterr().out
    assert "Mbps" in out
    assert "stream 1:" in out


def test_bench_without_mem_is_usage_error(node):
    assert main(["bench", "--node", endpoint(node),
                 *AS_ALICE]) == EX_USAGE


# -- account -----------------------------------------------------------------

def test_account_lifecycle(tmp_path, capsys):
    root = tmp_path / "store"
    config = tmp_path / "node.cfg"
    config.write_text(f"storage_root = {root}\n")
    base = ["--config", str(config)]

    code = main(["account", "add", "carol", "--psk", "aa" * 32,
                 "--allow", "FileIOPermission", *base])
    assert code == EX_OK
    capsys.readouterr()

    assert main(["account", "show", "carol", *base]) == EX_OK
    out = capsys.readouterr().out
    assert "carol: Others" in out
    assert "FileIOPermission = True" in out
    assert "Execution = False" in out

    assert main(["account", "set-perm", "carol", "Execution", "true",
                 *base]) == EX_OK
    capsys.readouterr()
    assert main(["account", "show", "carol", *base]) == EX_OK
    assert "Execution = True" in capsys.readouterr().out


def test_account_add_admin_and_unknown_flag(tmp_path, capsys):
    config = tmp_path / "node.cfg"
    config.write_text(f"storage_root = {tmp_path / 'store'}\n")
    base = ["--config", str(config)]
    assert main(["account", "add", "root", "--psk", "bb" * 32,
                 "--admin", *base]) == EX_OK
    capsys.readouterr()
    assert main(["account", "show", "root", *base]) == EX_OK
    assert "Administrator" in capsys.readouterr().out

    assert main(["account", "add", "dave", "--psk", "cc" * 32,
                 "--allow", "Clairvoyance", *base]) == EX_USAGE


def test_account_show_missing_fails(tmp_path):
    config = tmp_path / "node.cfg"
    config.write_text(f"storage_root = {tmp_path / 'store'}\n")
    assert main(["account", "show", "nobody",
                 "--config", str(config)]) == EX_FAILURE


# -- serve (the real daemon, as an operator runs it) -------------------------

def spawn_serve(config_path):
    return subprocess.Popen(
        [sys.executable, "-m", "gridfs", "serve", "--config",
         str(config_path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_serve_subprocess_accepts_connections(tmp_path):
    root = seed_store(tmp_path / "store")
    config = tmp_path / "node.cfg"
    config.write_text(f"storage_root = {root}\nport = 0\n")
    proc = spawn_serve(config)
    try:
        line = proc.stdout.readline()
        assert "gridfs node listening on" in line
        port = int(line.rsplit(":", 1)[1])
        code = main(["fs", "write", f"127.0.0.1:{port}:smoke.txt",
                     "--data", "up", "--user", "alice",
                     "--psk", ALICE_PSK.hex()])
        assert code == EX_OK
        assert (root / "home" / "alice" / "smoke.txt").read_bytes() == b"up"
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0


def test_serve_bad_config_one_line_cause(tmp_path):
    config = tmp_path / "node.cfg"
    config.write_text("port = not-a-number\n")
    proc = spawn_serve(config)
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == EX_FAILURE
    assert "port" in err
    assert len(err.strip().splitlines()) == 1


def test_serve_bind_conflict_fails(tmp_path):
    blocker = socket.create_server(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        root = seed_store(tmp_path / "store")
        config = tmp_path / "node.cfg"
        config.write_text(f"storage_root = {root}\nport = {port}\n")
        proc = spawn_serve(config)
        _, err = proc.communicate(timeout=10)
        assert proc.returncode == EX_FAILURE
        assert "bind" in err
    finally:
        blocker.close()


def test_serve_config_from_environment(tmp_path):
    root = seed_store(tmp_path / "store")
    config = tmp_path / "node.cfg"
    config.write_text(f"storage_root = {root}\nport = 0\n")
    env = dict(os.environ, GRIDFS_CONFIG=str(config))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gridfs", "serve"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    try:
        line = proc.stdout.readline()
        assert "listening on" in line
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
