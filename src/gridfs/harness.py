"""Loopback cluster spawner: real node processes for multi-node tests.

`spawn_cluster` starts one `gridfs serve` process per node slot, each on
its own storage root and a free loopback port, all seeded with the same
single account, and assigns each slot a role from the chosen topology.
The caller owns the cluster; stopping it ends every process and removes
its scratch tree.
"""

from __future__ import annotations

import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .errors import BadRequest, SpawnFailed
from .perms import PermissionDoc, serialize_permissions

HARNESS_USER = "bench"

ROLE_MASTER = "master"
ROLE_DISTRIBUTOR = "distributor"
ROLE_WORKER = "worker"
ROLE_COLLECTOR = "collector"
ROLE_PEER = "peer"


class Topology(Enum):
    MASTER_SLAVES = "master"
    HIERARCHICAL = "hier"
    COMPLETE_GRAPH = "mesh"


@dataclass(frozen=True)
class TopologyPlan:
    topology: Topology
    roles: tuple[str, ...]


def plan_topology(topology: Topology, nodes: int) -> TopologyPlan:
    """Assign a role to each of `nodes` node slots.

    Master-slaves puts one file master in front of plain workers. The
    hierarchical shape adds a dedicated collector at the end, so six nodes
    become one distributor, four workers, and one collector. The complete
    graph makes every node a peer serving every role, and degenerates
    cleanly to a single node.
    """
    if topology == Topology.MASTER_SLAVES:
        if nodes < 2:
            raise BadRequest("master-slaves needs at least 2 nodes")
        return TopologyPlan(topology,
                            (ROLE_MASTER,) + (ROLE_WORKER,) * (nodes - 1))
    if topology == Topology.HIERARCHICAL:
        if nodes < 3:
            raise BadRequest("the hierarchical shape needs at least 3 nodes")
        return TopologyPlan(topology, (ROLE_DISTRIBUTOR,)
                            + (ROLE_WORKER,) * (nodes - 2)
                            + (ROLE_COLLECTOR,))
    if nodes < 1:
        raise BadRequest("a cluster needs at least 1 node")
    return TopologyPlan(topology, (ROLE_PEER,) * nodes)


@dataclass
class SpawnedNode:
    index: int
    role: str
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
    plan: TopologyPlan
    scratch: Path
    nodes: list[SpawnedNode]
    username: str
    psk: bytes

    @property
    def master(self) -> SpawnedNode:
        return self.nodes[0]

    @property
    def compute_nodes(self) -> list[SpawnedNode]:
        if self.plan.topology == Topology.COMPLETE_GRAPH:
            return list(self.nodes)
        if self.plan.topology == Topology.HIERARCHICAL:
            return self.nodes[1:-1]
        return self.nodes[1:]

    @property
    def collector(self) -> SpawnedNode | None:
        if self.plan.topology == Topology.HIERARCHICAL:
            return self.nodes[-1]
        return None

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


def _await_listening(process: subprocess.Popen, err_path: Path,
                     timeout: float) -> int:
    holder: dict[str, str] = {}

    def read() -> None:
        holder["line"] = process.stdout.readline()

    thread = threading.Thread(target=read, daemon=True)
    thread.start()
    thread.join(timeout)
    line = holder.get("line", "")
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


def spawn_cluster(topology: Topology = Topology.HIERARCHICAL, nodes: int = 6,
                  *, scratch: Path | None = None,
                  startup_timeout: float = 20.0) -> Cluster:
    """Start `nodes` daemon processes on loopback, every one on a private
    storage root seeded with the same single account. The caller owns the
    cluster and must stop() it (or use it as a context manager); stopping
    also removes the scratch tree."""
    plan = plan_topology(topology, nodes)
    owns_scratch = scratch is None
    scratch = (Path(tempfile.mkdtemp(prefix="gridfs-cluster-"))
               if scratch is None else Path(scratch))
    psk = os.urandom(32)
    spawned: list[SpawnedNode] = []
    try:
        for index, role in enumerate(plan.roles):
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
            node = SpawnedNode(index, role, process, 0, root)
            spawned.append(node)
            node.port = _await_listening(process, err_path, startup_timeout)
            socket.create_connection(node.address, timeout=5).close()
    except BaseException as exc:
        _stop_nodes(spawned)
        if owns_scratch:
            shutil.rmtree(scratch, ignore_errors=True)
        if isinstance(exc, OSError):
            raise SpawnFailed(
                f"cannot start node {index}: {exc}") from exc
        raise
    return Cluster(plan, scratch, spawned, HARNESS_USER, psk)
