"""One round trip for a small transfer: a push of at most one chunk sends
its offer, chunk and XFER_DONE back to back, and a pull planned on one
stream gets XFER_DONE behind its chunks without sending one. A task set
on a held session takes three client waits. Covers the frame order on
each side, the sidecar a one-chunk region never writes, the refusals
that must leave the session in step, a sweep that cuts the connection
after each frame the node sends, and a sweep that checks that every
refused request, in every mode, is answered by one ERROR frame."""

import os
import socket
import time

import pytest

from gridfs import cryptengine, ftsm, secchan, taskexec, wire
from gridfs.dfsm import FsClient
from gridfs.errors import (
    AuthFailed,
    BadRequest,
    GridfsError,
    NoSuchFile,
    PermissionDenied,
    StagingFailed,
    StreamLost,
)
from gridfs.ftsm import TransferClient, state_path
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

from conftest import ALICE_PSK, BOB_PSK, GRID_PSK

ALL_MODES = [SecurityMode.NONSECURE, SecurityMode.SEMISECURE,
             SecurityMode.SECURE]
CHUNK = 16384
OFFER, ACCEPT, DATA, DONE = (FrameType.XFER_OFFER, FrameType.XFER_ACCEPT,
                             FrameType.CHUNK, FrameType.XFER_DONE)


def storage(node):
    return node.config.storage_root


def mover_for(address, security=SecurityMode.NONSECURE, username="grid",
              psk=GRID_PSK, streams=1):
    return TransferClient(address, username, psk, security=security,
                          streams=streams, buffer_size=65536,
                          chunk_size=CHUNK)


def record_frames(channel):
    """Log each frame `channel` sends and receives, in order, as
    ("send" | "recv", frame_type)."""
    events = []
    send, recv = channel.send, channel.recv

    def sending(frame_type, payload=b""):
        events.append(("send", frame_type))
        return send(frame_type, payload)

    def receiving():
        frame = recv()
        events.append(("recv", frame.frame_type))
        return frame

    channel.send, channel.recv = sending, receiving
    return events


def frames_of(proxy, direction):
    """The frame types one direction carried after authentication."""
    types = [ftype for side, ftype, _, _ in proxy.frames if side == direction]
    return types[2:]    # HELLO and AUTH, or WELCOME and AUTH_OK


def wait_until_idle(node, timeout=5.0):
    """Wait until the node holds no transfer and no session; returns
    whether it got there."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with node._sessions_lock:
            sessions = len(node._conns)
        if not sessions and not node.registry._sessions:
            return True
        time.sleep(0.005)
    return False


# -- frame order -------------------------------------------------------------

@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_one_chunk_push_sends_everything_before_the_first_reply(
        node, sniff_factory, tmp_path, security):
    """The client sends OFFER, CHUNK and DONE before it reads the node's
    ACCEPT and DONE, and the file lands exactly."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = mover_for(proxy.address, security)
    data = os.urandom(CHUNK)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    control = mover.dial(Mode.FTSM_PUSH)
    events = record_frames(control)
    try:
        report = mover.push_on(control, src, "one.bin")
    finally:
        control.close()
    assert events == [("send", OFFER), ("send", DATA), ("send", DONE),
                      ("recv", ACCEPT), ("recv", DONE)]
    assert frames_of(proxy, "c2s") == [OFFER, DATA, DONE]
    assert frames_of(proxy, "s2c") == [ACCEPT, DONE]
    assert (storage(node) / "one.bin").read_bytes() == data
    assert report.per_stream == [len(data)] and not report.resumed


def test_empty_push_sends_offer_and_done_back_to_back(node, tmp_path):
    mover = mover_for(("127.0.0.1", node.port))
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    (storage(node) / "empty.bin").write_bytes(b"old bytes")
    control = mover.dial(Mode.FTSM_PUSH)
    events = record_frames(control)
    try:
        mover.push_on(control, src, "empty.bin")
    finally:
        control.close()
    assert events == [("send", OFFER), ("send", DONE),
                      ("recv", ACCEPT), ("recv", DONE)]
    assert (storage(node) / "empty.bin").read_bytes() == b""


def test_two_chunk_push_waits_for_the_accept(node, sniff_factory, tmp_path):
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = mover_for(proxy.address)
    data = os.urandom(CHUNK + 1)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    control = mover.dial(Mode.FTSM_PUSH)
    events = record_frames(control)
    try:
        mover.push_on(control, src, "two.bin")
    finally:
        control.close()
    assert events == [("send", OFFER), ("recv", ACCEPT), ("send", DATA),
                      ("send", DATA), ("send", DONE), ("recv", DONE)]
    assert frames_of(proxy, "c2s") == [OFFER, DATA, DATA, DONE]
    assert frames_of(proxy, "s2c") == [ACCEPT, DONE]
    assert (storage(node) / "two.bin").read_bytes() == data


@pytest.mark.parametrize("chunks", [1, 3])
def test_single_stream_pull_sends_one_offer_and_no_done(
        node, sniff_factory, tmp_path, chunks):
    """The node sends ACCEPT, the chunks and DONE without waiting; the
    client sends its offer and nothing else."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    mover = mover_for(proxy.address)
    data = os.urandom((chunks - 1) * CHUNK + 1000)
    (storage(node) / "pulled.bin").write_bytes(data)
    back = tmp_path / "back.bin"
    control = mover.dial(Mode.FTSM_PULL)
    events = record_frames(control)
    try:
        mover.pull_on(control, "pulled.bin", back)
    finally:
        control.close()
    assert events == [("send", OFFER), ("recv", ACCEPT)] + \
        [("recv", DATA)] * chunks + [("recv", DONE)]
    assert frames_of(proxy, "c2s") == [OFFER]
    assert frames_of(proxy, "s2c") == [ACCEPT] + [DATA] * chunks + [DONE]
    assert back.read_bytes() == data


def test_two_stream_pull_still_ends_with_the_clients_done(node, tmp_path):
    mover = mover_for(("127.0.0.1", node.port), streams=2)
    data = os.urandom(4 * CHUNK)
    (storage(node) / "wide.bin").write_bytes(data)
    back = tmp_path / "back.bin"
    control = mover.dial(Mode.FTSM_PULL)
    events = record_frames(control)
    try:
        mover.pull_on(control, "wide.bin", back)
    finally:
        control.close()
    assert events == [("send", OFFER), ("recv", ACCEPT), ("recv", DATA),
                      ("recv", DATA), ("send", DONE), ("recv", DONE)]
    assert back.read_bytes() == data


# -- no sidecar for one chunk --------------------------------------------------

@pytest.fixture
def sidecar_writes(monkeypatch):
    saved = []
    real_save = ftsm.save_state

    def counting(dst, state):
        saved.append(dst)
        real_save(dst, state)

    monkeypatch.setattr(ftsm, "save_state", counting)
    return saved


def test_one_chunk_transfers_write_no_sidecar(node, tmp_path,
                                              sidecar_writes):
    """Neither end of a one-chunk push or pull ever writes a sidecar,
    while a three-chunk pull still does."""
    mover = mover_for(("127.0.0.1", node.port))
    data = os.urandom(CHUNK)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    mover.push(src, "one.bin")
    mover.pull("one.bin", tmp_path / "back.bin")
    assert sidecar_writes == []
    assert (tmp_path / "back.bin").read_bytes() == data
    assert not state_path(storage(node) / "one.bin").exists()
    (storage(node) / "three.bin").write_bytes(os.urandom(3 * CHUNK))
    mover.pull("three.bin", tmp_path / "three.bin")
    assert sidecar_writes == [tmp_path / "three.bin"]


def test_one_chunk_push_drops_a_sidecar_it_finds(node, tmp_path,
                                                 sidecar_writes):
    """A sidecar left beside the destination by an earlier transfer of the
    same one-chunk region is deleted, and the push is accepted afresh."""
    data = os.urandom(1000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    dst = storage(node) / "stale.bin"
    dst.write_bytes(bytes(1000))
    grid = ftsm.ChunkGrid(0, 1000, 1, CHUNK)
    state_path(dst).write_bytes(
        ftsm.TransferState.fresh(os.urandom(16), grid).encode())
    report = mover_for(("127.0.0.1", node.port)).push(src, "stale.bin")
    assert not report.resumed
    assert dst.read_bytes() == data
    assert not state_path(dst).exists()
    assert sidecar_writes == []


# -- refusals keep the session in step ----------------------------------------

def test_refused_one_chunk_push_raises_the_refusal(node, tmp_path):
    """bob may write nowhere: his one-chunk push is refused with
    PermissionDenied, not a broken session, and the same session then
    carries a push that is accepted."""
    mover = mover_for(("127.0.0.1", node.port), username="bob", psk=BOB_PSK)
    src = tmp_path / "src.bin"
    src.write_bytes(b"x" * 100)
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        for _ in range(2):
            with pytest.raises(PermissionDenied):
                mover.push_on(control, src, "nope.bin")
        assert not node.registry._sessions
        assert not (storage(node) / "home" / "bob" / "nope.bin").exists()
    finally:
        control.close()


def test_chunk_that_fails_to_land_answers_after_the_done(
        node, tmp_path, monkeypatch):
    """The node's disk fails under a one-chunk push: the client gets
    StreamLost, and its next push on the same session lands."""
    mover = mover_for(("127.0.0.1", node.port))
    data = os.urandom(5000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    real_write = ftsm.RegionReceiver.write_chunk
    failures = [OSError(28, "No space left on device")]

    def failing(receiver, offset, payload, digest=None):
        if failures:
            raise failures.pop()
        real_write(receiver, offset, payload, digest)

    monkeypatch.setattr(ftsm.RegionReceiver, "write_chunk", failing)
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        with pytest.raises(StreamLost, match="No space left"):
            mover.push_on(control, src, "full.bin")
        assert not node.registry._sessions
        mover.push_on(control, src, "full.bin")
    finally:
        control.close()
    assert (storage(node) / "full.bin").read_bytes() == data


def test_staging_an_undeclared_dependency_keeps_the_task_session(
        node, tmp_path):
    """A one-chunk staging push of a name the set never declared raises
    PermissionDenied, and the same task session then answers ACT_ABORT."""
    mover = mover_for(("127.0.0.1", node.port), username="alice",
                      psk=ALICE_PSK)
    src = tmp_path / "dep.bin"
    src.write_bytes(b"dependency")
    set_id = os.urandom(16)
    task = taskexec.process_task("/bin/true",
                                 dependencies=[("declared.bin", str(src))])
    channel = mover.dial(Mode.TASK)
    try:
        channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
            taskexec.SUB_SET: set_id,
            taskexec.SUB_COUNT: wire.u16(1),
            taskexec.SUB_TASKS: wire.pack_blobs([taskexec.encode_spec(task)]),
        }))
        channel.expect(FrameType.TASK_STATUS)
        with pytest.raises(PermissionDenied):
            mover.push_on(channel, src, "undeclared.bin")
        assert not node.registry._sessions
        status = taskexec._set_action(channel, set_id, taskexec.ACT_ABORT)
        assert wire.read_uint(status, taskexec.ST_PHASE) == taskexec.PH_DONE
    finally:
        channel.close()
    assert set_id not in node.tasks._sets


def test_a_stale_session_under_a_one_chunk_push_is_dialled_again(
        node, tmp_path, monkeypatch):
    """The node closes the held session while it sits idle; the next
    one-chunk push finds it dead only while sending, before any reply,
    and dials afresh without a backoff pause."""
    mover = mover_for(("127.0.0.1", node.port))
    data = os.urandom(3000)
    src = tmp_path / "src.bin"
    src.write_bytes(data)
    pauses = []
    with mover:
        mover.push(src, "first.bin")
        with node._sessions_lock:
            conns = list(node._conns)
        for conn in conns:
            conn.close()    # the node's end, as an idle timeout would
        time.sleep(0.05)
        monkeypatch.setattr(ftsm.time, "sleep", pauses.append)
        report = mover.push(src, "second.bin")
    assert (storage(node) / "second.bin").read_bytes() == data
    assert report.bytes_moved == len(data)
    assert pauses == []


def task_session_refusing_offers(mover, case):
    """A TASK session that refuses offers as `case` says: with no set,
    with its set running, or with its set finished; returns the session
    and the error the refusal raises."""
    channel = mover.dial(Mode.TASK)
    if case == "no set":
        return channel, BadRequest
    task = (taskexec.process_task("/bin/sleep", ["1"]) if case == "running"
            else taskexec.builtin_task("echo", {1: b"x"}))
    set_id = submit_by_hand(channel, task)
    taskexec._set_action(channel, set_id, taskexec.ACT_RUN)
    if case == "running":
        return channel, BadRequest
    channel.send(FrameType.TASK_RESULT, wire.encode_fields(
        {taskexec.RES_SET: set_id}))
    channel.expect(FrameType.TASK_RESULT)
    taskexec._set_action(channel, set_id, taskexec.ACT_FINISH)
    return channel, NoSuchFile


def submit_by_hand(channel, task):
    """Send a one-task TASK_SUBMIT and read its reply; returns the set id."""
    set_id = os.urandom(16)
    channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
        taskexec.SUB_SET: set_id,
        taskexec.SUB_COUNT: wire.u16(1),
        taskexec.SUB_TASKS: wire.pack_blobs([taskexec.encode_spec(task)]),
    }))
    channel.expect(FrameType.TASK_STATUS)
    return set_id


@pytest.mark.parametrize("case", ["no set", "running", "finished"])
def test_a_push_a_task_session_refuses_is_read_through_its_done(
        node, tmp_path, case):
    """A task session refuses an offer when it has no set, when its set
    runs and when its set is finished. A one-chunk push so refused is
    answered by its one ERROR, and the session then takes a new set."""
    mover = mover_for(("127.0.0.1", node.port), username="alice",
                      psk=ALICE_PSK)
    src = tmp_path / "dep.bin"
    src.write_bytes(b"dependency")
    channel, error = task_session_refusing_offers(mover, case)
    try:
        with pytest.raises(error):
            mover.push_on(channel, src, "dep.bin")
        submit_by_hand(channel, taskexec.builtin_task("echo", {1: b"y"}))
    finally:
        channel.close()


def test_a_push_region_past_the_largest_offset_is_refused(node, tmp_path):
    """A one-chunk push whose region starts at 2^63 is refused with
    BadRequest before any file is made, and the session lands the next
    push."""
    mover = mover_for(("127.0.0.1", node.port))
    transfer_id = os.urandom(16)
    src = tmp_path / "src.bin"
    src.write_bytes(b"near")
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        control.send(OFFER, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_PATH: b"far.bin",
            **ftsm.grid_fields(ftsm.ChunkGrid(2**63, 4, 1, CHUNK))}))
        control.send(DATA, ftsm.pack_chunk(transfer_id, 0, 2**63, b"abcd"))
        control.send(DONE, wire.encode_fields({
            ftsm.X_TRANSFER: transfer_id,
            ftsm.X_REGION_DIGEST: bytes(32)}))
        with pytest.raises(BadRequest, match="largest file offset"):
            control.expect(ACCEPT)
        mover.push_on(control, src, "near.bin")
    finally:
        control.close()
    assert not (storage(node) / "far.bin").exists()
    assert (storage(node) / "near.bin").read_bytes() == b"near"


# -- a task set on a held session ----------------------------------------------

SUBMIT, STATUS, RESULT = (FrameType.TASK_SUBMIT, FrameType.TASK_STATUS,
                          FrameType.TASK_RESULT)


def task_client(address, username="alice", psk=ALICE_PSK):
    return taskexec.TaskClient(address, username, psk,
                               security=SecurityMode.SEMISECURE)


def pi_set(client, dep):
    """Submit and collect one pi task that declares `dep`; returns its
    digits."""
    handle = client.submit([taskexec.builtin_task(
        "pi_hex_digits", {1: wire.u64(5), 2: wire.u32(8)},
        dependencies=[("dep.bin", str(dep))])])
    try:
        result = client.collect(handle)[0]
    finally:
        client.close(handle)
    assert result.status == taskexec.TaskStatus.OK
    return result.result[1].decode()


PI = taskexec.pi_hex_digits(5, 8)


@pytest.fixture
def dep(tmp_path):
    path = tmp_path / "dep.bin"
    path.write_bytes(os.urandom(4096))
    return path


def waits(events):
    """How often the client turned from sending to waiting for a reply."""
    return sum(1 for before, after in zip(events, events[1:])
               if before[0] == "send" and after[0] == "recv")


def test_a_held_task_set_takes_three_waits(node, sniff_factory, dep):
    """After one collected set, a one-task set with a 4 KiB dependency
    rides the held session, with no HELLO or AUTH, and waits three
    times: for SUBMIT's decision, for the staging and RUN, and for the
    results and FINISH."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    client = task_client(proxy.address)
    with client.mover:
        pi_set(client, dep)
        events = record_frames(client.mover._held[Mode.TASK])
        assert pi_set(client, dep) == PI
    assert proxy.count(FrameType.HELLO) == proxy.count(FrameType.AUTH) == 1
    assert events == [("send", SUBMIT), ("recv", STATUS),
                      ("send", OFFER), ("send", DATA), ("send", DONE),
                      ("send", STATUS), ("recv", ACCEPT), ("recv", DONE),
                      ("recv", STATUS),
                      ("send", RESULT), ("send", STATUS), ("recv", RESULT),
                      ("recv", STATUS)]
    assert waits(events) == 3


def test_a_set_refused_at_submit_keeps_the_held_session_in_step(
        node, sniff_factory, dep, monkeypatch):
    """bob may not execute: his set is refused at SUBMIT before one byte
    of its dependency leaves, and the session stays held and in step.
    Once the node lets him (its check is patched, since a held session
    keeps the account it authenticated as), his next set runs on that
    same session."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    client = task_client(proxy.address, "bob", BOB_PSK)
    with client.mover:
        with pytest.raises(PermissionDenied):
            pi_set(client, dep)
        assert frames_of(proxy, "c2s") == [SUBMIT]
        monkeypatch.setattr(taskexec, "check", lambda account, action: None)
        assert pi_set(client, dep) == PI
    assert proxy.count(FrameType.HELLO) == 1


def test_a_set_whose_dependency_is_refused_keeps_the_session_in_step(
        node, sniff_factory, dep, monkeypatch):
    """The node's disk fails under a set's one-chunk dependency: submit
    raises StagingFailed naming the cause, the node keeps neither the set
    nor its work directory, and the next set runs on the same session."""
    real_write = ftsm.RegionReceiver.write_chunk
    failures = [OSError(28, "No space left on device")]

    def failing(receiver, offset, payload, digest=None):
        if failures:
            raise failures.pop()
        real_write(receiver, offset, payload, digest)

    monkeypatch.setattr(ftsm.RegionReceiver, "write_chunk", failing)
    proxy = sniff_factory(("127.0.0.1", node.port))
    client = task_client(proxy.address)
    tasksets = storage(node) / "home" / "alice" / ".tasksets"
    with client.mover:
        with pytest.raises(StagingFailed, match="No space left"):
            pi_set(client, dep)
        assert node.tasks._sets == {}
        assert list(tasksets.iterdir()) == []
        assert pi_set(client, dep) == PI
    assert proxy.count(FrameType.HELLO) == 1


def test_a_held_task_session_the_node_dropped_is_dialled_again(
        node, sniff_factory, dep):
    """The node ends the held TASK session while it sits idle; the next
    set finds it dead before SUBMIT's reply, dials afresh and runs."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    client = task_client(proxy.address)
    with client.mover:
        pi_set(client, dep)
        assert Mode.TASK in client.mover._held
        with node._sessions_lock:
            conns = list(node._conns)
        for conn in conns:
            conn.shutdown(socket.SHUT_RDWR)
        time.sleep(0.05)
        assert pi_set(client, dep) == PI
    assert proxy.count(FrameType.HELLO) == 2


# -- a cut after each frame the node sends -------------------------------------

def one_chunk_push(mover, tmp_path, node):
    data = os.urandom(CHUNK - 100)
    src = tmp_path / "push.bin"
    src.write_bytes(data)
    dst = storage(node) / "cut" / "push.bin"

    def run():
        mover.push(src, "cut/push.bin")
        return dst.read_bytes(), data
    return run


def single_stream_pull(chunks):
    def scenario(mover, tmp_path, node):
        data = os.urandom((chunks - 1) * CHUNK + 777)
        (storage(node) / "cut").mkdir(exist_ok=True)
        (storage(node) / "cut" / "pull.bin").write_bytes(data)
        back = tmp_path / "pull.bin"

        def run():
            back.unlink(missing_ok=True)
            state_path(back).unlink(missing_ok=True)
            mover.pull("cut/pull.bin", back)
            return back.read_bytes(), data
        return run
    return scenario


SCENARIOS = {"push-1": one_chunk_push, "pull-1": single_stream_pull(1),
             "pull-3": single_stream_pull(3)}


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_a_cut_after_any_node_frame_recovers_or_names_its_cause(
        node, sniff_factory, tmp_path, monkeypatch, security, scenario):
    """Count the frames the node sends in a clean run, then cut the
    connection right behind each of them in turn. A run may only fail
    with a named GridfsError, which the outcomes list; with one cut per
    run, each must in fact deliver the exact bytes after its own retries.
    Every run leaves the node holding no transfer and no session."""
    monkeypatch.setattr(ftsm, "BACKOFF", 0.0)
    proxy = sniff_factory(("127.0.0.1", node.port))
    (storage(node) / "cut").mkdir(exist_ok=True)
    outcomes = []
    for cut in [None, *range(1, 99)]:
        before = len(proxy.frames)
        proxy.kill_s2c_after = None if cut is None else (None, cut)
        with mover_for(proxy.address, security) as mover:
            run = SCENARIOS[scenario](mover, tmp_path, node)
            try:
                got, want = run()
                outcomes.append((cut, got == want))
            except GridfsError as exc:
                assert type(exc) is not GridfsError
                outcomes.append((cut, type(exc).__name__))
        assert wait_until_idle(node), f"cut after node frame {cut}"
        if cut is None:
            clean = sum(1 for side, *_ in proxy.frames[before:]
                        if side == "s2c")
        elif cut == clean:
            break
    assert clean >= 4
    assert outcomes == [(cut, True) for cut in [None, *range(1, clean + 1)]]


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
def test_a_cut_after_any_dfsm_frame_completes_or_names_its_cause(
        node, sniff_factory, security):
    """A DFSM write, lock, READ of a missing file and unlock, cut right
    behind each frame the node sends in turn. DFSM has no retry, so each
    run either completes or raises a named GridfsError; after every run
    the node holds no session and no lock."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    params = SessionParams(Mode.DFSM, security)
    outcomes = []
    for cut in [None, *range(1, 99)]:
        before = len(proxy.frames)
        proxy.kill_s2c_after = None if cut is None else (None, cut)
        try:
            with FsClient(secchan.connect(proxy.address, params, "alice",
                                          ALICE_PSK)) as fs:
                fs.write("cut/dfsm.bin", 0, b"data")
                lock_id = fs.lock("cut/dfsm.bin", 0, 4)
                with pytest.raises(NoSuchFile):
                    fs.read("cut/absent.bin", 0, 4)
                fs.unlock("cut/dfsm.bin", lock_id)
            outcomes.append((cut, "done"))
        except GridfsError as exc:
            assert type(exc) is not GridfsError
            outcomes.append((cut, type(exc).__name__))
        assert wait_until_idle(node), f"cut after node frame {cut}"
        assert not node.locks._locks, f"cut after node frame {cut}"
        if cut is None:
            clean = sum(1 for side, *_ in proxy.frames[before:]
                        if side == "s2c")
        elif cut == clean:
            break
    # WELCOME, AUTH_OK, then one answer to each request and to CLOSE,
    # whose answer the client does not need
    assert clean == 7
    assert outcomes == [(None, "done"),
                        *[(cut, "ConnectionLost") for cut in range(1, 6)],
                        (6, "done"), (7, "done")]


# -- every refusal is one ERROR frame ------------------------------------------

# a path and a user name no ERROR may echo: ERROR is clear in every mode
NAME = "quokka-umbra-41"


def refusal(proxy, error, call):
    """Run `call`, which must raise `error`; returns the types of the
    frames the node sent meanwhile."""
    start = len(proxy.frames)
    with pytest.raises(error):
        call()
    return [ftype for side, ftype, _, _ in proxy.frames[start:]
            if side == "s2c"]


def received_payloads(channel, frame_type):
    """The payloads of the `frame_type` frames `channel` receives from now
    on, as opened."""
    payloads = []
    recv = channel.recv

    def receiving():
        frame = recv()
        if frame.frame_type == frame_type:
            payloads.append(frame.payload)
        return frame

    channel.recv = receiving
    return payloads


def dfsm_read_of_a_missing_file(proxy, security, node, tmp_path):
    channel = secchan.connect(proxy.address, SessionParams(Mode.DFSM,
                                                          security),
                              "alice", ALICE_PSK)
    replies = received_payloads(channel, FrameType.DFS_RESP)
    with FsClient(channel) as fs:
        fs.write("present.bin", 0, b"here")
        answer = refusal(proxy, NoSuchFile,
                         lambda: fs.read(f"{NAME}.bin", 0, 16))
        assert fs.stat("present.bin").size == 4
    assert replies and all(8 not in wire.decode_fields(reply)
                           for reply in replies)
    return answer


def ftsm_push_under_a_regular_file(proxy, security, node, tmp_path):
    (storage(node) / "home" / "alice").mkdir(parents=True, exist_ok=True)
    (storage(node) / "home" / "alice" / "afile").write_bytes(b"plain")
    src = tmp_path / "src.bin"
    src.write_bytes(b"x" * 100)
    mover = mover_for(proxy.address, security, "alice", ALICE_PSK)
    control = mover.dial(Mode.FTSM_PUSH)
    try:
        answer = refusal(proxy, BadRequest, lambda: mover.push_on(
            control, src, f"afile/{NAME}.bin"))
        mover.push_on(control, src, "landed.bin")
    finally:
        control.close()
    assert (storage(node) / "home" / "alice" / "landed.bin").read_bytes() \
        == b"x" * 100
    return answer


def task_submit_by_bob(proxy, security, node, tmp_path):
    channel = mover_for(proxy.address, security, "bob", BOB_PSK).dial(
        Mode.TASK)
    task = taskexec.process_task("/bin/true", [NAME], outputs=[NAME])

    def submit():
        channel.send(FrameType.TASK_SUBMIT, wire.encode_fields({
            taskexec.SUB_SET: os.urandom(16),
            taskexec.SUB_COUNT: wire.u16(1),
            taskexec.SUB_TASKS: wire.pack_blobs(
                [taskexec.encode_spec(task)]),
        }))
        channel.expect(FrameType.TASK_STATUS)
    try:
        answer = refusal(proxy, PermissionDenied, submit)
        # bob may do nothing: the next request is answered, and alone
        assert refusal(proxy, PermissionDenied, submit) == [FrameType.ERROR]
    finally:
        channel.close()
    return answer


def crypt_task_by_bob(proxy, security, node, tmp_path):
    channel = secchan.connect(proxy.address, SessionParams(Mode.CRYPT,
                                                          security),
                              "bob", BOB_PSK)
    fields = cryptengine._encrypt_task_fields(
        0, 0, 16, cryptengine.CipherParams("aes128", b"k" * 16, b"i" * 16),
        f"{NAME}.bin", cryptengine.block_name(f"{NAME}.bin", 0), False)

    def task():
        channel.send(FrameType.CRYPT_TASK, wire.encode_fields(fields))
        channel.expect(FrameType.CRYPT_TASK)
    try:
        answer = refusal(proxy, PermissionDenied, task)
        assert refusal(proxy, PermissionDenied, task) == [FrameType.ERROR]
    finally:
        channel.close()
    return answer


def dial_refused(username, psk):
    def case(proxy, security, node, tmp_path):
        params = SessionParams(Mode.DFSM, security)
        answer = refusal(proxy, AuthFailed, lambda: secchan.connect(
            proxy.address, params, username, psk))
        # the node still serves: the next dial, with alice's key, works
        with FsClient(secchan.connect(proxy.address, params, "alice",
                                      ALICE_PSK)) as fs:
            assert not fs.stat("absent.bin").exists
        assert answer[:1] == [FrameType.WELCOME]
        return answer[1:]
    return case


REFUSALS = {"dfsm-read": dfsm_read_of_a_missing_file,
            "ftsm-push": ftsm_push_under_a_regular_file,
            "task-submit": task_submit_by_bob,
            "crypt-task": crypt_task_by_bob,
            "wrong-key": dial_refused("alice", b"k" * 32),
            "unknown-user": dial_refused(NAME, b"k" * 32)}


@pytest.mark.parametrize("security", ALL_MODES,
                         ids=[mode.name for mode in ALL_MODES])
@pytest.mark.parametrize("case", list(REFUSALS))
def test_a_refused_request_gets_one_error_frame_and_the_session_goes_on(
        node, sniff_factory, tmp_path, security, case):
    """In every mode and every security mode, a refused request is
    answered by exactly one ERROR frame and nothing else, and the same
    session (or, for a refused dial, the node) serves the next request.
    No AUTH_FAIL (0x05) or XFER_RESUME (0x24) frame crosses, no DFS_RESP
    carries a status (tag 8), and no ERROR names the request's path or
    the dialling user."""
    proxy = sniff_factory(("127.0.0.1", node.port))
    assert REFUSALS[case](proxy, security, node, tmp_path) == \
        [FrameType.ERROR]
    assert proxy.count(0x05) == proxy.count(0x24) == 0
    errors = proxy.payloads(FrameType.ERROR)
    assert errors
    assert not [payload for payload in errors
                if NAME.encode() in payload or b"alice" in payload]
