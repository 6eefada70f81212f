"""Task execution: SPMD splitting, pi digit extraction, process runs,
staged dependencies, and the full submit/run/collect lifecycle over a
live node."""

import gc
import threading
import time
import types

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ALICE_PSK, BOB_PSK
from gridfs import ftsm, secchan, taskexec, wire
from gridfs.errors import (
    BadRequest,
    LaunchFailed,
    NoSuchFile,
    PermissionDenied,
    SetExpired,
    StagingFailed,
    StreamLost,
)
from gridfs.perms import Account
from gridfs.taskexec import (
    TaskClient,
    TaskStatus,
    builtin_task,
    pi_hex_digits,
    process_task,
    run_builtin_task,
    run_process_task,
    split_spmd,
)
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

SH = "/bin/sh"


# -- split_spmd -------------------------------------------------------------

def test_split_even():
    assert split_spmd(1000, 4) == [(1, 250), (251, 250), (501, 250),
                                   (751, 250)]


def test_split_ragged():
    assert split_spmd(10, 3) == [(1, 4), (5, 4), (9, 2)]


def test_split_more_workers_than_work():
    assert split_spmd(5, 8) == [(1, 1), (2, 1), (3, 1), (4, 1), (5, 1)]


def test_split_nothing():
    assert split_spmd(0, 4) == []


def test_split_rejects_bad_counts():
    with pytest.raises(BadRequest):
        split_spmd(10, 0)
    with pytest.raises(BadRequest):
        split_spmd(-1, 3)


@given(total=st.integers(0, 100_000), workers=st.integers(1, 64))
def test_split_partitions_exactly(total, workers):
    ranges = split_spmd(total, workers)
    assert len(ranges) <= workers
    expected = 1
    for start, count in ranges:
        assert start == expected
        assert count > 0
        expected = start + count
    assert expected == total + 1


# -- pi digit extraction ----------------------------------------------------

def oracle_digits(start: int, count: int) -> str:
    """Hex digits of pi via arbitrary-precision float arithmetic; an
    independent route to the same digits."""
    digits = start + count - 1
    with mpmath.workprec(4 * digits + 96):
        frac = +mpmath.pi - 3
        value = int(mpmath.floor(frac * (16 ** digits)))
    return format(value, "X").zfill(digits)[start - 1:start - 1 + count]


def test_pi_first_sixteen():
    assert pi_hex_digits(1, 16) == "243F6A8885A308D3"


def test_pi_empty():
    assert pi_hex_digits(1, 0) == ""


def test_pi_concatenation():
    assert pi_hex_digits(1, 8) + pi_hex_digits(9, 8) == pi_hex_digits(1, 16)


def test_pi_deep_offset():
    start = 1001
    assert pi_hex_digits(start, 12) == oracle_digits(start, 12)


def test_pi_rejects_bad_positions():
    with pytest.raises(BadRequest):
        pi_hex_digits(0, 4)
    with pytest.raises(BadRequest):
        pi_hex_digits(1, -1)


@settings(max_examples=25, deadline=None)
@given(start=st.integers(1, 2000), count=st.integers(1, 48))
def test_pi_matches_oracle(start, count):
    assert pi_hex_digits(start, count) == oracle_digits(start, count)


@settings(max_examples=15, deadline=None)
@given(total=st.integers(1, 120), workers=st.integers(1, 8))
def test_pi_split_reassembles(total, workers):
    whole = pi_hex_digits(1, total)
    parts = [pi_hex_digits(start, count)
             for start, count in split_spmd(total, workers)]
    assert "".join(parts) == whole


# -- spec and result codecs -------------------------------------------------

def test_spec_round_trip_builtin():
    spec = builtin_task("pi_hex_digits",
                        {1: wire.u64(9), 2: wire.u32(8)},
                        dependencies=[("table.bin", "/tmp/table.bin")],
                        outputs=["report.txt"])
    decoded = taskexec.decode_spec(taskexec.encode_spec(spec))
    assert decoded.kind == taskexec.KIND_BUILTIN
    assert decoded.name == "pi_hex_digits"
    assert decoded.params == spec.params
    # local source paths never cross the wire
    assert decoded.dependencies == (("table.bin", ""),)
    assert decoded.outputs == ("report.txt",)


def test_spec_round_trip_process():
    spec = process_task(SH, ["-c", "exit 0"], timeout=2.5,
                        network_access=True)
    decoded = taskexec.decode_spec(taskexec.encode_spec(spec))
    assert decoded.kind == taskexec.KIND_PROCESS
    assert decoded.command == SH
    assert decoded.args == ("-c", "exit 0")
    assert decoded.network_access is True
    assert decoded.timeout == 2.5


def test_result_round_trip():
    result = taskexec.TaskResult(7, TaskStatus.FAILED, exit_code=-9,
                                 stdout=b"out", stderr=b"err",
                                 outputs=("a", "b"), message="boom")
    decoded = taskexec.decode_result(taskexec.encode_result(result))
    assert decoded == result


# -- local process execution ------------------------------------------------

def test_process_captures_output(tmp_path):
    spec = process_task("/bin/echo", ["hello", "task"])
    result = run_process_task(spec, tmp_path)
    assert result.status == TaskStatus.OK
    assert result.exit_code == 0
    assert result.stdout == b"hello task\n"


def test_process_nonzero_exit(tmp_path):
    result = run_process_task(process_task(SH, ["-c", "exit 3"]), tmp_path)
    assert result.status == TaskStatus.FAILED
    assert result.exit_code == 3


def test_process_timeout(tmp_path):
    spec = process_task("/bin/sleep", ["5"], timeout=0.2)
    began = time.monotonic()
    result = run_process_task(spec, tmp_path)
    assert result.status == TaskStatus.TIMEOUT
    assert time.monotonic() - began < 3.0


def test_process_missing_binary(tmp_path):
    with pytest.raises(LaunchFailed):
        run_process_task(process_task("/no/such/binary"), tmp_path)


def test_process_runs_in_workdir(tmp_path):
    (tmp_path / "seed.txt").write_text("grain")
    spec = process_task(SH, ["-c", "cat seed.txt > crop.txt"],
                        outputs=["crop.txt"])
    result = run_process_task(spec, tmp_path)
    assert result.status == TaskStatus.OK
    assert result.outputs == ("crop.txt",)
    assert (tmp_path / "crop.txt").read_text() == "grain"


def test_unknown_builtin_fails_cleanly():
    result = run_builtin_task(builtin_task("echo", {}), 0)
    assert result.status == TaskStatus.OK
    result = taskexec.run_builtin_task(
        taskexec.TaskSpec(kind=taskexec.KIND_BUILTIN, name="nope"), 0)
    assert result.status == TaskStatus.FAILED


# -- full lifecycle over a node ---------------------------------------------

def alice_client(node, **kw):
    return TaskClient(("127.0.0.1", node.port), "alice", ALICE_PSK, **kw)


def tasksets_dir(node, username):
    return node.config.storage_root / "home" / username / ".tasksets"


def test_builtin_set_ordered_results(node):
    client = alice_client(node)
    tasks = [builtin_task("pi_hex_digits",
                          {1: wire.u64(start), 2: wire.u32(count)})
             for start, count in split_spmd(24, 3)]
    tasks.append(builtin_task("echo", {5: b"payload"}))
    handle = client.submit(tasks)
    results = client.collect(handle)
    client.close(handle)
    assert [r.index for r in results] == [0, 1, 2, 3]
    assert all(r.status == TaskStatus.OK for r in results)
    digits = "".join(r.result[1].decode() for r in results[:3])
    assert digits == pi_hex_digits(1, 24)
    assert results[3].result == {5: b"payload"}


def test_staged_bytes_survive_round_trip(node, tmp_path):
    source = tmp_path / "data.bin"
    payload = bytes((i * 31 + 7) % 256 for i in range(70_000))
    source.write_bytes(payload)
    client = alice_client(node, streams=2, chunk_size=8192)
    task = process_task(SH, ["-c", "cp data.bin copy.bin"],
                        dependencies=[("data.bin", str(source))],
                        outputs=["copy.bin"])
    handle = client.submit([task])
    outdir = tmp_path / "collected"
    results = client.collect(handle, output_dir=outdir)
    client.close(handle)
    assert results[0].status == TaskStatus.OK
    assert (outdir / "copy.bin").read_bytes() == payload


def test_staging_waits_the_node_drain_timeout(node_factory, tmp_path,
                                              monkeypatch):
    """A node's configured drain_timeout reaches its task sessions:
    staging waits for its data connections as long as a plain push."""
    waits = []
    real_wait = ftsm.TransferSession.wait_quiesce

    def recording_wait(session, timeout, *args, **kwargs):
        waits.append(timeout)
        return real_wait(session, timeout, *args, **kwargs)

    monkeypatch.setattr(ftsm.TransferSession, "wait_quiesce", recording_wait)
    node = node_factory("drain", drain_timeout=2.5)
    source = tmp_path / "data.bin"
    source.write_bytes(b"staged")
    client = alice_client(node)
    handle = client.submit([process_task(
        SH, ["-c", "true"], dependencies=[("data.bin", str(source))])])
    client.collect(handle)
    client.close(handle)
    assert waits == [2.5]


def test_mixed_statuses_come_back(node):
    tasks = [
        process_task(SH, ["-c", "exit 0"]),
        process_task(SH, ["-c", "echo sad >&2; exit 3"]),
        process_task("/bin/sleep", ["5"], timeout=0.2),
        process_task("/no/such/binary"),
    ]
    client = alice_client(node)
    handle = client.submit(tasks)
    results = client.collect(handle)
    client.close(handle)
    assert [r.status for r in results] == [
        TaskStatus.OK, TaskStatus.FAILED, TaskStatus.TIMEOUT,
        TaskStatus.FAILED]
    assert results[1].exit_code == 3
    assert results[1].stderr == b"sad\n"
    assert "launch" in results[3].message


def test_nonsecure_results_show_no_output_name(node, sniff_factory):
    """Under NONSECURE the TASK_RESULT that answers a collect is sealed
    whole, as the TASK_SUBMIT that declared its names is: neither a
    declared output name nor the command of a task that cannot launch
    crosses the wire in the clear."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    client = TaskClient(proxy.address, "alice", ALICE_PSK,
                        security=SecurityMode.NONSECURE)
    handle = client.submit([
        process_task(SH, ["-c", "echo x > payroll-summary.txt"],
                     outputs=["payroll-summary.txt"]),
        process_task("/no/such/payroll-launcher"),
    ])
    results = client.collect(handle)
    client.close(handle)
    assert results[0].outputs == ("payroll-summary.txt",)
    assert "payroll-launcher" in results[1].message
    raw = proxy.raw()
    assert b"payroll-summary.txt" not in raw
    assert b"payroll-launcher" not in raw


def test_denied_before_any_staging(node, tmp_path):
    source = tmp_path / "data.bin"
    source.write_bytes(b"secret")
    client = TaskClient(("127.0.0.1", node.port), "bob", BOB_PSK)
    task = process_task(SH, ["-c", "true"],
                        dependencies=[("data.bin", str(source))])
    with pytest.raises(PermissionDenied):
        client.submit([task])
    assert not tasksets_dir(node, "bob").exists()


def test_network_task_without_socket_permission_never_runs(node, tmp_path):
    """alice holds no SocketPermission: her process task that asks for
    network access comes back DENIED, naming the flag, and its command
    never runs."""
    marker = tmp_path / "ran"
    client = alice_client(node)
    handle = client.submit([process_task(SH, ["-c", f"touch {marker}"],
                                         network_access=True)])
    results = client.collect(handle)
    client.close(handle)
    assert results[0].status == TaskStatus.DENIED
    assert "SocketPermission" in results[0].message
    assert not marker.exists()


def test_failed_staging_push_aborts_the_set(node, tmp_path, monkeypatch):
    """A dependency push that fails makes `submit` raise StagingFailed,
    and its abort leaves the node no set and no work directory."""
    source = tmp_path / "data.bin"
    source.write_bytes(b"staged")

    def failing_push(*args, **kwargs):
        raise StreamLost("push cut")

    client = alice_client(node)
    monkeypatch.setattr(client.mover, "send_push", failing_push)
    with pytest.raises(StagingFailed, match="push cut"):
        client.submit([process_task(
            SH, ["-c", "true"], dependencies=[("data.bin", str(source))])])
    assert node.tasks._sets == {}
    assert list(tasksets_dir(node, "alice").iterdir()) == []


def test_missing_local_dependency_fails_first(node, tmp_path):
    client = alice_client(node)
    task = process_task(SH, ["-c", "true"],
                        dependencies=[("gone.bin", str(tmp_path / "gone"))])
    with pytest.raises(StagingFailed):
        client.submit([task])
    assert not tasksets_dir(node, "alice").exists()


def test_conflicting_dependency_sources(node, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(b"a")
    b.write_bytes(b"b")
    client = alice_client(node)
    tasks = [process_task(SH, ["-c", "true"],
                          dependencies=[("same.bin", str(a))]),
             process_task(SH, ["-c", "true"],
                          dependencies=[("same.bin", str(b))])]
    with pytest.raises(BadRequest):
        client.submit(tasks)


def test_run_with_dependency_never_staged(node):
    """Driving the protocol by hand: declare a dependency, skip staging,
    ask to run. The set must be refused and leave nothing behind."""
    params = SessionParams(Mode.TASK, SecurityMode.NONSECURE)
    channel = secchan.connect(("127.0.0.1", node.port), params, "alice",
                              ALICE_PSK)
    try:
        task = process_task(SH, ["-c", "true"],
                            dependencies=[("data.bin", "ignored")])
        set_id = b"\xaa" * 16
        channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
            taskexec.SUB_SET: set_id,
            taskexec.SUB_COUNT: wire.u16(1),
            taskexec.SUB_TASKS: wire.pack_blobs([taskexec.encode_spec(task)]),
        }))
        channel.expect(FrameType.TASK_STATUS)
        assert tasksets_dir(node, "alice").exists()
        channel.send(FrameType.TASK_STATUS, wire.encode_fields({
            taskexec.ST_SET: set_id,
            taskexec.ST_ACTION: wire.u8(taskexec.ACT_RUN)}))
        with pytest.raises(StagingFailed):
            channel.expect(FrameType.TASK_STATUS)
    finally:
        channel.close()
    assert list(tasksets_dir(node, "alice").iterdir()) == []


def test_a_dependency_that_failed_to_land_never_runs(node, tmp_path,
                                                     monkeypatch):
    """Driving the protocol by hand: the node's disk fails under a
    dependency's push, which leaves the file made but unverified in the
    work directory. RUN is refused all the same and the set leaves
    nothing behind: only a push the node verified stages a dependency."""
    def failing(receiver, offset, payload, digest=None):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(ftsm.RegionReceiver, "write_chunk", failing)
    marker = tmp_path / "ran"
    source = tmp_path / "data.bin"
    source.write_bytes(b"staged")
    mover = ftsm.TransferClient(("127.0.0.1", node.port), "alice", ALICE_PSK)
    channel = mover.dial(Mode.TASK)
    try:
        task = process_task(SH, ["-c", f"touch {marker}"],
                            dependencies=[("data.bin", str(source))])
        set_id = b"\xcc" * 16
        channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
            taskexec.SUB_SET: set_id,
            taskexec.SUB_COUNT: wire.u16(1),
            taskexec.SUB_TASKS: wire.pack_blobs([taskexec.encode_spec(task)]),
        }))
        channel.expect(FrameType.TASK_STATUS)
        with pytest.raises(StreamLost, match="No space left"):
            mover.push_on(channel, source, "data.bin")
        assert (tasksets_dir(node, "alice") / set_id.hex() / "data.bin") \
            .exists()
        with pytest.raises(StagingFailed):
            taskexec._set_action(channel, set_id, taskexec.ACT_RUN)
    finally:
        channel.close()
    assert list(tasksets_dir(node, "alice").iterdir()) == []
    time.sleep(0.1)
    assert not marker.exists()


def test_foreign_set_is_invisible(node):
    client = alice_client(node)
    handle = client.submit([process_task("/bin/sleep", ["0.4"])])
    intruder = TaskClient(("127.0.0.1", node.port), "bob", BOB_PSK)
    with pytest.raises(PermissionDenied):
        intruder.reattach(handle.set_id)
    results = client.collect(handle)
    client.close(handle)
    assert results[0].status == TaskStatus.OK


def test_sets_get_distinct_workdirs(node, tmp_path):
    contents = {"one": b"first set", "two": b"second set"}
    handles = {}
    clients = {}
    for label, body in contents.items():
        source = tmp_path / f"{label}.bin"
        source.write_bytes(body)
        client = alice_client(node)
        task = process_task(SH, ["-c", "cp shared.bin out.bin"],
                            dependencies=[("shared.bin", str(source))],
                            outputs=["out.bin"])
        clients[label] = client
        handles[label] = client.submit([task])
    for label, body in contents.items():
        outdir = tmp_path / f"collected-{label}"
        clients[label].collect(handles[label], output_dir=outdir)
        clients[label].close(handles[label])
        assert (outdir / "out.bin").read_bytes() == body


def test_one_auth_for_the_whole_set(node, sniff_factory, tmp_path):
    """Control session authenticates once, and staging and output
    transfers, each a single stream, ride that same session."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    first = tmp_path / "first.bin"
    second = tmp_path / "second.bin"
    first.write_bytes(b"x" * 9000)
    second.write_bytes(b"y" * 5000)
    client = TaskClient(("127.0.0.1", proxy.port), "alice", ALICE_PSK)
    task = process_task(SH, ["-c", "cat a.bin b.bin > both.bin"],
                        dependencies=[("a.bin", str(first)),
                                      ("b.bin", str(second))],
                        outputs=["both.bin"])
    handle = client.submit([task])
    results = client.collect(handle, output_dir=tmp_path / "out")
    client.close(handle)
    assert results[0].status == TaskStatus.OK
    assert (tmp_path / "out" / "both.bin").read_bytes() == \
        b"x" * 9000 + b"y" * 5000
    # one control connection carries both stagings and the output pull
    assert proxy.count(FrameType.AUTH) == 1
    assert proxy.count(FrameType.HELLO) == 1


def test_collect_twice_within_retention(node):
    client = alice_client(node)
    task = builtin_task("pi_hex_digits", {1: wire.u64(1), 2: wire.u32(12)})
    handle = client.submit([task])
    first = client.collect(handle)
    client.close(handle)

    again = client.reattach(handle.set_id)
    second = client.collect(again)
    client.close(again)
    assert first[0].result == second[0].result


def test_results_expire(node_factory):
    node = node_factory(task_retention=0.3)
    client = alice_client(node)
    handle = client.submit([builtin_task("echo", {1: b"x"})])
    client.collect(handle)
    client.close(handle)
    time.sleep(0.7)
    with pytest.raises(SetExpired):
        client.reattach(handle.set_id)


def held_objects(root, stop=(Account,)):
    """Every object reachable from `root`, not walking into shared
    objects of the types in `stop`, nor into classes or modules."""
    seen, todo, found = set(), [root], []
    while todo:
        item = todo.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen.add(id(item))
        found.append(item)
        if not isinstance(item, stop):
            todo.extend(gc.get_referents(item))
    return found


def test_collected_sets_keep_only_their_results(node, tmp_path):
    """Once a set is collected, the node keeps only whose it is, when it
    expires and its encoded results: no spec, Condition or FtsmService
    stays reachable from any retained record, and the results can still
    be collected again."""
    client = alice_client(node)
    handles = []
    for start in range(1, 6):
        handle = client.submit([builtin_task(
            "pi_hex_digits", {1: wire.u64(start), 2: wire.u32(4)},
            dependencies=())])
        client.collect(handle)
        client.close(handle)
        handles.append(handle)
    retained = list(node.tasks._sets.values())
    assert len(retained) == 5
    heavy = (taskexec.TaskSpec, type(threading.Condition()),
             ftsm.FtsmService)
    assert [obj for record in retained for obj in held_objects(record)
            if isinstance(obj, heavy)] == []
    again = client.reattach(handles[2].set_id)
    assert client.status(again) == (taskexec.PH_DONE, 1, 1)
    with pytest.raises(NoSuchFile):
        client.mover.pull_on(again.channel, "out.bin", tmp_path / "out.bin")
    assert client.collect(again)[0].result == {1: pi_hex_digits(3, 4).encode()}
    client.close(again)


def test_expired_sets_are_swept_by_the_next_submit(node_factory):
    """Collected or not, sets past their retention are forgotten, in the
    order they completed, when the next set is submitted."""
    node = node_factory(task_retention=0.2)
    client = alice_client(node)
    kept = client.submit([builtin_task("echo", {1: b"never collected"})])
    for _ in range(3):
        handle = client.submit([builtin_task("echo", {1: b"x"})])
        client.collect(handle)
        client.close(handle)
    assert len(node.tasks._sets) == 4
    time.sleep(0.4)
    client.close(client.submit([process_task("/bin/sleep", ["0.2"])]))
    assert len(node.tasks._sets) == 1
    assert not tasksets_dir(node, "alice").joinpath(kept.set_id.hex()).exists()
    client.close(kept)


def test_reattach_after_lost_connection(node):
    client = alice_client(node)
    handle = client.submit([process_task("/bin/sleep", ["0.4"]),
                            builtin_task("echo", {1: b"still here"})])
    client.close(handle)    # control connection dies mid-run

    revived = client.reattach(handle.set_id)
    assert revived.total == 2
    results = client.collect(revived)
    client.close(revived)
    assert [r.status for r in results] == [TaskStatus.OK, TaskStatus.OK]
    assert results[1].result == {1: b"still here"}


def test_status_reports_progress(node):
    client = alice_client(node)
    handle = client.submit([process_task("/bin/sleep", ["0.6"])])
    phase, done, total = client.status(handle)
    assert phase == taskexec.PH_RUNNING
    assert (done, total) == (0, 1)
    client.collect(handle)
    phase, done, total = client.status(handle)
    assert phase == taskexec.PH_DONE
    assert (done, total) == (1, 1)
    client.close(handle)


def test_secure_session_works_end_to_end(node, tmp_path):
    source = tmp_path / "data.bin"
    source.write_bytes(b"sealed cargo")
    client = alice_client(node, security=SecurityMode.SECURE)
    task = process_task(SH, ["-c", "cp data.bin out.bin"],
                        dependencies=[("data.bin", str(source))],
                        outputs=["out.bin"])
    handle = client.submit([task])
    results = client.collect(handle, output_dir=tmp_path / "out")
    client.close(handle)
    assert results[0].status == TaskStatus.OK
    assert (tmp_path / "out" / "out.bin").read_bytes() == b"sealed cargo"


def test_dotted_dependency_names_rejected(node, tmp_path):
    source = tmp_path / "x"
    source.write_bytes(b"x")
    client = alice_client(node)
    task = process_task(SH, ["-c", "true"],
                        dependencies=[("../escape", str(source))])
    with pytest.raises((BadRequest, StagingFailed)):
        client.submit([task])
    assert not (node.config.storage_root / "home" / "escape").exists()


def test_set_abandoned_in_staging_is_dropped(node):
    """Driving the protocol by hand: submit a set with a dependency, then
    hang up before staging it. The set can never run, so the node forgets
    it and removes its work directory."""
    params = SessionParams(Mode.TASK, SecurityMode.NONSECURE)
    channel = secchan.connect(("127.0.0.1", node.port), params, "alice",
                              ALICE_PSK)
    set_id = b"\xbb" * 16
    try:
        task = process_task(SH, ["-c", "true"],
                            dependencies=[("data.bin", "ignored")])
        channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
            taskexec.SUB_SET: set_id,
            taskexec.SUB_COUNT: wire.u16(1),
            taskexec.SUB_TASKS: wire.pack_blobs([taskexec.encode_spec(task)]),
        }))
        channel.expect(FrameType.TASK_STATUS)
        workdir = tasksets_dir(node, "alice") / set_id.hex()
        assert workdir.is_dir()
    finally:
        channel.close()
    deadline = time.monotonic() + 5
    while workdir.exists() and time.monotonic() < deadline:
        time.sleep(0.02)
    assert not workdir.exists()
    assert set_id not in node.tasks._sets


def test_a_symlinked_output_is_not_produced(node, tmp_path):
    """A process task that leaves a symlink under an output's name has
    not produced that output: it is not listed, not fetched, and a pull
    of it is refused, so the node never serves the link's target (here
    its own credential file)."""
    credentials = node.config.storage_root / "etc" / "credentials"
    client = alice_client(node)
    handle = client.submit([process_task(
        "/bin/ln", ["-s", str(credentials), "out"], outputs=["out"])])
    while client.status(handle)[0] != taskexec.PH_DONE:
        time.sleep(0.01)
    with pytest.raises(PermissionDenied):
        client.mover.pull_on(handle.channel, "out", tmp_path / "stolen")
    assert not (tmp_path / "stolen").exists()
    results = client.collect(handle, output_dir=tmp_path / "out")
    client.close(handle)
    assert results[0].status == TaskStatus.OK
    assert results[0].outputs == ()
    assert list((tmp_path / "out").iterdir()) == []


def test_a_set_whose_work_directory_cannot_be_made_is_not_kept(node):
    """alice's `.tasksets` is a regular file, so no set's work directory
    can be made under it. The submit is refused with BadRequest naming
    the cause, and the node keeps no record of the set: a set left in
    staging by a failed submit would never expire."""
    sandbox = node.config.storage_root / "home" / "alice"
    sandbox.mkdir(parents=True, exist_ok=True)
    (sandbox / ".tasksets").write_bytes(b"not a directory")
    client = alice_client(node)
    with pytest.raises(BadRequest, match="io error ENOTDIR"):
        client.submit([builtin_task("echo", {5: b"payload"})])
    assert node.tasks._sets == {}
