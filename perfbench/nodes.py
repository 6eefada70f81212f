"""Spawn gridfs node processes on loopback and stop every one of them.

Each node gets a private storage root seeded with one account. Untraced
nodes run `python -m gridfs serve`; traced nodes run `launcher.py`, which
installs the span wrappers, runs the same `run_node`, and writes its
spans when SIGTERM stops it. A process is registered the moment it
exists, so `stop` reaches it whatever fails after the spawn.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent

USERNAME = "bench"


@dataclass
class Node:
    name: str
    process: subprocess.Popen
    port: int
    root: Path
    spans_path: Path | None

    @property
    def address(self) -> tuple[str, int]:
        return ("127.0.0.1", self.port)

    @property
    def endpoint(self) -> str:
        return f"127.0.0.1:{self.port}"

    def home(self) -> Path:
        return self.root / "home" / USERNAME


def vm_hwm_mib(pid: int) -> float:
    """Peak resident set size of `pid`, from VmHWM in /proc/<pid>/status."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class NodeSet:
    def __init__(self, scratch: Path, src: Path, psk: bytes, traced: bool):
        self.scratch = scratch
        self.src = src
        self.psk = psk
        self.traced = traced
        self.nodes: list[Node] = []
        self._processes: list[subprocess.Popen] = []

    def spawn(self, name: str, timeout: float = 20.0) -> Node:
        from gridfs.perms import PermissionDoc, serialize_permissions

        root = self.scratch / name / "store"
        accounts = root / "etc" / "accounts"
        accounts.mkdir(parents=True)
        (root / "etc" / "credentials").write_text(
            f"{USERNAME}:{self.psk.hex()}\n")
        (accounts / f"{USERNAME}.xml").write_text(serialize_permissions(
            PermissionDoc.others(FileIOPermission=True, Execution=True)))
        config = self.scratch / f"{name}.conf"
        config.write_text(f"storage_root = {root}\nhost = 127.0.0.1\n"
                          "port = 0\nlog_level = warning\n")
        spans_path = None
        if self.traced:
            spans_path = self.scratch / f"{name}.spans.json"
            command = [sys.executable, str(HERE / "launcher.py"),
                       "--config", str(config), "--spans", str(spans_path)]
        else:
            command = [sys.executable, "-m", "gridfs", "serve",
                       "--config", str(config)]
        env = dict(os.environ, PYTHONPATH=str(self.src),
                   TMPDIR=str(self.scratch / "tmp"))
        err_path = self.scratch / f"{name}.err"
        with open(err_path, "wb") as err:
            process = subprocess.Popen(command, stdout=subprocess.PIPE,
                                       stderr=err, env=env, text=True)
        self._processes.append(process)
        port = self._await_port(process, err_path, timeout)
        node = Node(name, process, port, root, spans_path)
        self.nodes.append(node)
        return node

    @staticmethod
    def _await_port(process: subprocess.Popen, err_path: Path,
                    timeout: float) -> int:
        ready, _, _ = select.select([process.stdout], [], [], timeout)
        line = process.stdout.readline() if ready else ""
        if "listening on" not in line:
            detail = err_path.read_text(errors="replace").strip()
            raise RuntimeError(
                f"node did not start: {line.strip() or detail or 'no output'}")
        return int(line.rsplit(":", 1)[1])

    def peak_rss_mib(self) -> dict[str, float]:
        return {node.name: vm_hwm_mib(node.process.pid) for node in self.nodes}

    def stop(self) -> None:
        """SIGTERM every node, wait for it, SIGKILL what does not exit;
        then check that none of the spawned pids is still alive."""
        for process in self._processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        for process in self._processes:
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
            if process.stdout is not None:
                process.stdout.close()
        alive = [process.pid for process in self._processes
                 if process.returncode is None or _is_our_child(process.pid)]
        if alive:
            raise RuntimeError(f"spawned nodes still alive: {alive}")


def _is_our_child(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except FileNotFoundError:
        return False
    # a reaped pid may already belong to someone else: only a live child
    # of this process counts as a survivor
    return int(fields[1]) == os.getpid() and fields[0] != "Z"
