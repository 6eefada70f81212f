"""Loopback cluster spawner: real node processes for multi-node tests.

`spawn_cluster` starts `nodes` alike peers: one `gridfs serve` process
each, on its own storage root and a free loopback port, all with the same
config and seeded with the same single account. As in DotGrid, every node
runs the one daemon and serves every role, so the cluster has one shape,
the complete graph. The caller owns the cluster; stopping it ends every
process and removes its scratch tree.
"""

from __future__ import annotations

import os
import select
import shutil
import socket
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import BadRequest, SpawnFailed
from .perms import PermissionDoc, serialize_permissions

HARNESS_USER = "bench"
STARTUP_TIMEOUT = 20.0


class Topology(Enum):
    COMPLETE_GRAPH = "mesh"


@dataclass
class SpawnedNode:
    process: subprocess.Popen
    port: int
    root: Path

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    @property
    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"


@dataclass
class Cluster:
    scratch: Path
    nodes: list[SpawnedNode]
    username: str
    psk: bytes

    @property
    def compute_nodes(self) -> list[SpawnedNode]:
        """Every node: each peer computes."""
        return list(self.nodes)

    def stop(self) -> None:
        _stop_nodes(self.nodes)
        shutil.rmtree(self.scratch, ignore_errors=True)

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _stop_nodes(nodes: list[SpawnedNode]) -> None:
    """Terminate every node process, killing any that outlive the wait."""
    for node in nodes:
        if node.process.poll() is None:
            node.process.terminate()
    for node in nodes:
        try:
            node.process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            node.process.kill()
            node.process.wait(timeout=5)
        if node.process.stdout is not None:
            node.process.stdout.close()


def _seed_accounts(root: Path, psk: bytes) -> None:
    etc = root / "etc"
    (etc / "accounts").mkdir(parents=True, exist_ok=True)
    (etc / "credentials").write_text(f"{HARNESS_USER}:{psk.hex()}\n")
    (etc / "accounts" / f"{HARNESS_USER}.xml").write_text(
        serialize_permissions(PermissionDoc.others(
            FileIOPermission=True, Execution=True)))


def _await_listening(process: subprocess.Popen, err_path: Path) -> int:
    ready, _, _ = select.select([process.stdout], [], [], STARTUP_TIMEOUT)
    line = process.stdout.readline() if ready else ""
    if "listening on" not in line:
        detail = line.strip()
        try:
            stderr_lines = err_path.read_text().strip().splitlines()
            if stderr_lines:
                detail = stderr_lines[-1]
        except OSError:
            pass
        raise SpawnFailed(f"node never came up: {detail or 'no output'}")
    return int(line.rsplit(":", 1)[1])


def spawn_cluster(topology: Topology, nodes: int, *,
                  scratch: Path | None = None) -> Cluster:
    """Start `nodes` alike peers on loopback, every one on a private
    storage root seeded with the same single account. `topology` is the
    one shape, `Topology.COMPLETE_GRAPH`. The caller owns the cluster and
    must stop() it (or use it as a context manager); stopping also
    removes the scratch tree."""
    if nodes < 1:
        raise BadRequest("a cluster needs at least 1 node")
    owns_scratch = scratch is None
    scratch = (Path(tempfile.mkdtemp(prefix="gridfs-cluster-"))
               if scratch is None else Path(scratch))
    psk = os.urandom(32)
    spawned: list[SpawnedNode] = []
    try:
        for index in range(nodes):
            root = scratch / f"node{index}" / "store"
            _seed_accounts(root, psk)
            config_path = scratch / f"node{index}.cfg"
            config_path.write_text(
                f"storage_root = {root}\n"
                "host = 127.0.0.1\n"
                "port = 0\n"
                "log_level = warning\n")
            err_path = scratch / f"node{index}.err"
            with open(err_path, "wb") as err:
                process = subprocess.Popen(
                    [sys.executable, "-m", "gridfs", "serve",
                     "--config", str(config_path)],
                    stdout=subprocess.PIPE, stderr=err, text=True)
            # listed before it is up, so a failure below stops it too
            node = SpawnedNode(process, 0, root)
            spawned.append(node)
            node.port = _await_listening(process, err_path)
            socket.create_connection(node.address, timeout=5).close()
    except BaseException as exc:
        _stop_nodes(spawned)
        if owns_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
        if isinstance(exc, OSError):
            raise SpawnFailed(
                f"cannot start node {index}: {exc}") from exc
        raise
    return Cluster(scratch, spawned, HARNESS_USER, psk)
