"""Multi-node scenario harness: spawn a loopback cluster, measure it.

The harness starts real node processes (each `gridfs serve` on its own
storage root, sharing one account set), drives the standard scenarios
against them, and reports one record per measured cell: scenario name,
parameters, bytes moved, wall seconds, derived Mbps, and a pass flag.
Reports are one FieldMap-encoded record per line, hex on the wire format,
with an optional plain-text rendering.

Scenario failures raise ScenarioFailed naming the first violated
assertion; throughput numbers are recorded, never judged.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path

from . import ftsm, secchan, wire
from .cryptengine import CipherParams, distribute, reassemble
from .errors import (
    BadRequest,
    GridfsError,
    ScenarioFailed,
    SpawnFailed,
    StateCorrupt,
)
from .ftsm import ChunkGrid, TransferClient, load_state, pack_chunk, \
    state_path, throughput_mbps
from .perms import PermissionDoc, serialize_permissions
from .taskexec import pi_across, pi_hex_digits
from .wire import FrameType, Mode, SecurityMode, SessionParams

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
    scratch = (Path(tempfile.mkdtemp(prefix="gridfs-harness-"))
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


# -- records -----------------------------------------------------------------

REC_SCENARIO = 1
REC_PARAMS = 2
REC_BYTES = 3
REC_SECONDS = 4
REC_MBPS = 5
REC_PASS = 6


@dataclass(frozen=True)
class ScenarioRecord:
    scenario: str
    parameters: str
    byte_count: int
    seconds: float
    mbps: float
    passed: bool


def encode_record(record: ScenarioRecord) -> bytes:
    return wire.encode_fields({
        REC_SCENARIO: record.scenario.encode("utf-8"),
        REC_PARAMS: record.parameters.encode("utf-8"),
        REC_BYTES: wire.u64(record.byte_count),
        REC_SECONDS: wire.f64(record.seconds),
        REC_MBPS: wire.f64(record.mbps),
        REC_PASS: wire.u8(1 if record.passed else 0),
    })


def decode_record(raw: bytes) -> ScenarioRecord:
    fields = wire.decode_fields(raw)
    return ScenarioRecord(
        scenario=fields.get(REC_SCENARIO, b"").decode("utf-8"),
        parameters=fields.get(REC_PARAMS, b"").decode("utf-8"),
        byte_count=wire.read_uint(fields, REC_BYTES, 0),
        seconds=wire.read_f64(fields, REC_SECONDS, 0.0),
        mbps=wire.read_f64(fields, REC_MBPS, 0.0),
        passed=bool(wire.read_uint(fields, REC_PASS, 0)),
    )


def write_report(records: list[ScenarioRecord], path: Path) -> None:
    lines = [encode_record(record).hex() for record in records]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))


def read_report(path: Path) -> list[ScenarioRecord]:
    records = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            records.append(decode_record(bytes.fromhex(line)))
    return records


def render_text(records: list[ScenarioRecord]) -> str:
    headers = ("scenario", "parameters", "bytes", "seconds", "Mbps", "result")
    rows = [(record.scenario, record.parameters, str(record.byte_count),
             f"{record.seconds:.3f}", f"{record.mbps:.2f}",
             "pass" if record.passed else "FAIL")
            for record in records]
    widths = [max(len(headers[i]), *(len(row[i]) for row in rows))
              if rows else len(headers[i]) for i in range(len(headers))]
    def fmt(row):
        return "  ".join(cell.ljust(widths[i])
                         for i, cell in enumerate(row)).rstrip()
    lines = [fmt(headers), fmt(tuple("-" * w for w in widths))]
    lines += [fmt(row) for row in rows]
    return "\n".join(lines)


# -- scenario settings -------------------------------------------------------

@dataclass(frozen=True)
class HarnessSettings:
    transfer_bytes: int = 8 * 2**20
    bench_seconds: float = 1.0
    stream_counts: tuple[int, ...] = (1, 2, 4, 8)
    crypt_bytes: int = 8 * 2**20
    crypt_block: int = 2**20
    crypt_workers: tuple[int, ...] = (1, 2, 3)
    pi_digits: int = 256
    kill_bytes: int = 2 * 2**20
    chunk_size: int = 65536


def ensure(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioFailed(message)


# -- scenarios ---------------------------------------------------------------

def scenario_transfer(cluster: Cluster,
                      settings: HarnessSettings) -> list[ScenarioRecord]:
    """Stream-count sweep, memory and disk targets: eight records."""
    records = []
    payload = os.urandom(settings.transfer_bytes)
    src = cluster.scratch / "transfer-src.bin"
    src.write_bytes(payload)
    digest = hashlib.md5(payload).digest()
    for streams in settings.stream_counts:
        with TransferClient(cluster.master.address, cluster.username,
                            cluster.psk, streams=streams,
                            chunk_size=settings.chunk_size) as mover:
            bench = mover.bench_mem(settings.bench_seconds)
            ensure(sum(bench.per_stream) == bench.bytes_moved,
                   f"streams={streams}: per-stream counters sum to "
                   f"{sum(bench.per_stream)}, moved {bench.bytes_moved}")
            records.append(ScenarioRecord(
                "transfer", f"streams={streams} target=mem",
                bench.bytes_moved, bench.seconds, bench.mbps, True))

            remote = f"bench/disk{streams}.bin"
            push = mover.push(src, remote)
            back = cluster.scratch / f"transfer-back{streams}.bin"
            back.unlink(missing_ok=True)
            mover.pull(remote, back)
        ensure(hashlib.md5(back.read_bytes()).digest() == digest,
               f"streams={streams}: disk round trip corrupted the payload")
        records.append(ScenarioRecord(
            "transfer", f"streams={streams} target=disk",
            push.bytes_moved, push.seconds, push.mbps, True))
    return records


def scenario_crypt(cluster: Cluster,
                   settings: HarnessSettings) -> list[ScenarioRecord]:
    """Worker-count sweep over distributed AES encryption, each cell
    verified by reassembling and comparing against the original."""
    records = []
    payload = os.urandom(settings.crypt_bytes)
    plain = cluster.scratch / "crypt-src.bin"
    plain.write_bytes(payload)
    pool = cluster.compute_nodes
    collector = cluster.collector
    for count in settings.crypt_workers:
        workers = [pool[i % len(pool)].endpoint for i in range(count)]
        params = CipherParams("aes128", os.urandom(16), os.urandom(16))
        manifest_path = cluster.scratch / f"crypt{count}.manifest"
        start = time.monotonic()
        distribute(plain, workers, params, cluster.username, cluster.psk,
                   block_size=settings.crypt_block,
                   collector=collector.endpoint if collector else None,
                   manifest_path=manifest_path)
        rebuilt = cluster.scratch / f"crypt-back{count}.bin"
        reassemble(manifest_path, params, rebuilt,
                   cluster.username, cluster.psk)
        elapsed = time.monotonic() - start
        ensure(rebuilt.read_bytes() == payload,
               f"workers={count}: decrypted file differs from the original")
        records.append(ScenarioRecord(
            "crypt", f"workers={count} cipher=aes128", len(payload), elapsed,
            throughput_mbps(len(payload), elapsed), True))
    return records


def scenario_pi(cluster: Cluster,
                settings: HarnessSettings) -> list[ScenarioRecord]:
    """SPMD digit extraction across every compute node, checked against
    the same computation on one."""
    digits = settings.pi_digits
    addresses = [node.address for node in cluster.compute_nodes]
    start = time.monotonic()
    result = pi_across(addresses, 1, digits, cluster.username, cluster.psk)
    elapsed = time.monotonic() - start
    ensure(result == pi_hex_digits(1, digits),
           "distributed digits differ from the single-node computation")
    return [ScenarioRecord(
        "pi", f"digits={digits} nodes={len(addresses)}", len(result),
        elapsed, throughput_mbps(len(result), elapsed), True)]


def _abandon_push(cluster: Cluster, src: Path, remote: str,
                  fraction: float, chunk_size: int, streams: int = 2) -> int:
    """Drive a push by hand and vanish partway through, exactly as a
    client killed mid-transfer does: no DONE, streams cut."""
    size = src.stat().st_size
    params = SessionParams(Mode.FTSM_PUSH, SecurityMode.NONSECURE,
                           buffer_size=65536, stream_count=streams)
    address = cluster.master.address
    control = secchan.connect(address, params, cluster.username, cluster.psk)
    try:
        transfer_id = os.urandom(16)
        control.send(FrameType.XFER_OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: remote.encode("utf-8"),
            ftsm.X_REGION_OFFSET: wire.u64(0),
            ftsm.X_REGION_LENGTH: wire.u64(size),
            ftsm.X_STREAMS: wire.u8(streams),
            ftsm.X_CHUNK_SIZE: wire.u32(chunk_size),
        }))
        control.expect(FrameType.XFER_ACCEPT)
        chunks = ChunkGrid(0, size, streams, chunk_size).chunks()
        keep = chunks[:max(1, int(len(chunks) * fraction))]
        sent = 0
        data = secchan.connect(address, params, cluster.username,
                               cluster.psk, transfer_id=transfer_id,
                               stream_index=0)
        with open(src, "rb") as handle:
            for offset, length in keep:
                handle.seek(offset)
                data.send(FrameType.CHUNK,
                          pack_chunk(transfer_id, 0, offset,
                                     handle.read(length)))
                sent += length
        data.close()
    finally:
        control.close()
    return sent


def _wait_for_state(dst: Path, minimum_bytes: int,
                    timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            state = load_state(dst)
        except StateCorrupt:
            state = None
        if state is not None and state.total_received >= minimum_bytes:
            return
        time.sleep(0.02)
    raise ScenarioFailed("the interrupted push left no resumable state")


def scenario_kill_resume(cluster: Cluster,
                         settings: HarnessSettings) -> list[ScenarioRecord]:
    """Kill a push at about half way, push again, and require a resumed
    transfer whose result matches the source byte for byte."""
    payload = os.urandom(settings.kill_bytes)
    src = cluster.scratch / "resume-src.bin"
    src.write_bytes(payload)
    remote = "resume.bin"
    dst = cluster.master.root / "home" / cluster.username / remote
    dst.unlink(missing_ok=True)
    state_path(dst).unlink(missing_ok=True)

    sent = _abandon_push(cluster, src, remote, fraction=0.5,
                         chunk_size=settings.chunk_size)
    _wait_for_state(dst, sent)

    back = cluster.scratch / "resume-back.bin"
    back.unlink(missing_ok=True)
    with TransferClient(cluster.master.address, cluster.username,
                        cluster.psk, streams=2,
                        chunk_size=settings.chunk_size) as mover:
        report = mover.push(src, remote)
        ensure(report.resumed,
               "second push started fresh instead of resuming")
        mover.pull(remote, back)
    ensure(hashlib.md5(back.read_bytes()).digest()
           == hashlib.md5(payload).digest(),
           "resumed file does not match the source")
    ensure(not state_path(dst).exists(),
           "resume sidecar survived a completed transfer")
    return [ScenarioRecord("kill-resume", "fraction=0.5", len(payload),
                           report.seconds, report.mbps, True)]


SCENARIOS = {
    "transfer": scenario_transfer,
    "crypt": scenario_crypt,
    "pi": scenario_pi,
    "kill-resume": scenario_kill_resume,
}


def _mean_batches(batches: list[list[ScenarioRecord]]) -> list[ScenarioRecord]:
    merged = []
    for column in zip(*batches):
        first = column[0]
        merged.append(replace(
            first,
            seconds=sum(r.seconds for r in column) / len(column),
            mbps=sum(r.mbps for r in column) / len(column),
            passed=all(r.passed for r in column)))
    return merged


def run_scenario(cluster: Cluster, name: str, repeats: int = 3,
                 settings: HarnessSettings | None = None
                 ) -> list[ScenarioRecord]:
    """Run one scenario `repeats` times and report per-cell means. `all`
    runs every scenario in registry order."""
    settings = settings or HarnessSettings()
    if name == "all":
        records = []
        for key in SCENARIOS:
            records.extend(run_scenario(cluster, key, repeats, settings))
        return records
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise BadRequest(f"unknown scenario {name!r}") from None
    batches = [fn(cluster, settings) for _ in range(max(1, repeats))]
    return _mean_batches(batches)


# -- command line ------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridfs-harness",
        description="spawn a loopback node cluster and run the standard "
                    "benchmark scenarios against it")
    parser.add_argument("--topology",
                        choices=[t.value for t in Topology], default="hier")
    parser.add_argument("--nodes", type=int, default=6)
    parser.add_argument("--scenario", default="all",
                        choices=sorted(SCENARIOS) + ["all"])
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--report", metavar="PATH",
                        help="write one encoded record per line here")
    parser.add_argument("--report-text", action="store_true",
                        help="print the records as a table")
    parser.add_argument("--transfer-bytes", type=int, default=None)
    parser.add_argument("--bench-seconds", type=float, default=None)
    parser.add_argument("--crypt-bytes", type=int, default=None)
    parser.add_argument("--crypt-block", type=int, default=None)
    parser.add_argument("--pi-digits", type=int, default=None)
    parser.add_argument("--kill-bytes", type=int, default=None)
    parser.add_argument("--chunk", type=int, default=None, metavar="BYTES")
    return parser


def settings_from_args(args) -> HarnessSettings:
    settings = HarnessSettings()
    overrides = {
        "transfer_bytes": args.transfer_bytes,
        "bench_seconds": args.bench_seconds,
        "crypt_bytes": args.crypt_bytes,
        "crypt_block": args.crypt_block,
        "pi_digits": args.pi_digits,
        "kill_bytes": args.kill_bytes,
        "chunk_size": args.chunk,
    }
    present = {key: value for key, value in overrides.items()
               if value is not None}
    return replace(settings, **present) if present else settings


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    settings = settings_from_args(args)
    try:
        cluster = spawn_cluster(Topology(args.topology), args.nodes)
    except GridfsError as exc:
        print(f"gridfs-harness: {exc}", file=sys.stderr)
        return 1
    try:
        records = run_scenario(cluster, args.scenario, args.repeats, settings)
    except GridfsError as exc:
        print(f"gridfs-harness: {exc}", file=sys.stderr)
        return 1
    finally:
        cluster.stop()
    if args.report:
        write_report(records, Path(args.report))
    if args.report_text:
        print(render_text(records))
    else:
        print(f"{len(records)} record(s), "
              + ("all passed" if all(r.passed for r in records)
                 else "FAILURES PRESENT"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
