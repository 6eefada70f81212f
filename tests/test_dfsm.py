import os
import random
import socket
import threading
from pathlib import Path

import pytest

from gridfs import dfsm, secchan, wire
from gridfs.dfsm import (
    WHOLE_FILE,
    DfsServer,
    FileStat,
    FsClient,
    LockTable,
    SeekOrigin,
    resolve_path,
    resolve_seek,
)
from gridfs.errors import (
    BadRequest,
    LockConflict,
    NegativeOffset,
    NoSuchFile,
    NotOwner,
    PermissionDenied,
)
from gridfs.perms import Account, PermissionDoc
from gridfs.secchan import Channel, ChannelKeys
from gridfs.wire import FrameType, Mode, SecurityMode, SessionParams

from conftest import ALICE_PSK, fail_resolve_of

PSK = b"p" * 32


def make_account(tmp_path, admin=True, **flags):
    root = Path(tmp_path) / "data"
    if admin:
        root.mkdir(parents=True, exist_ok=True)
        return Account("root", PSK, root.resolve(),
                       PermissionDoc.administrator())
    sandbox = root / "home" / "user"
    sandbox.mkdir(parents=True, exist_ok=True)
    return Account("user", PSK, sandbox.resolve(), PermissionDoc.others(**flags))


def dfs_pair(account, locks=None, security=SecurityMode.SECURE,
             buffer_size=wire.DEFAULT_MAX_PAYLOAD):
    """FsClient talking to a DfsServer thread over a socketpair."""
    a, b = socket.socketpair()
    params = SessionParams(Mode.DFSM, security, buffer_size=buffer_size)
    cn, sn = b"c" * 16, b"s" * 16
    client = Channel(a, params, ChannelKeys.for_role(PSK, cn, sn, True))
    server = Channel(b, params, ChannelKeys.for_role(PSK, cn, sn, False))
    locks = locks if locks is not None else LockTable()
    srv = DfsServer(server, account, locks)
    thread = threading.Thread(target=srv.serve, daemon=True)
    thread.start()
    return FsClient(client), thread


def live_locks(table):
    with table._lock:
        return tuple(table._locks.values())


def conflicts(table, path, offset, length, session):
    """True when [offset, offset+length) overlaps a foreign lock."""
    with table._lock:
        return table._foreign_overlap(path, offset, length, session)


class TestSeekArithmetic:
    def test_begin(self):
        assert resolve_seek(SeekOrigin.BEGIN, 100, FileStat(0, False)) == 100

    def test_end_negative_delta(self):
        assert resolve_seek(SeekOrigin.END, -16, FileStat(1024, True)) == 1008

    def test_end_underflow(self):
        with pytest.raises(NegativeOffset):
            resolve_seek(SeekOrigin.END, -2000, FileStat(1024, True))

    def test_current_hint(self):
        assert resolve_seek(SeekOrigin.CURRENT_HINT, 5,
                            FileStat(0, False), current=7) == 12

    def test_begin_negative(self):
        with pytest.raises(NegativeOffset):
            resolve_seek(SeekOrigin.BEGIN, -1, FileStat(0, False))


class TestResolvePath:
    def test_plain(self, tmp_path):
        assert resolve_path(tmp_path, "a/b.txt") == \
            (tmp_path / "a" / "b.txt").resolve()

    def test_traversal_rejected(self, tmp_path):
        with pytest.raises(PermissionDenied):
            resolve_path(tmp_path, "../outside")
        with pytest.raises(PermissionDenied):
            resolve_path(tmp_path, "a/../../outside")

    def test_absolute_rejected(self, tmp_path):
        with pytest.raises(PermissionDenied):
            resolve_path(tmp_path, "/etc/passwd")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(BadRequest):
            resolve_path(tmp_path, "")


class TestLockTable:
    def test_grant_and_conflict(self):
        table = LockTable()
        table.acquire("f", 0, 10, b"A" * 16)
        with pytest.raises(LockConflict):
            table.acquire("f", 5, 8, b"A" * 16)   # same session still conflicts
        with pytest.raises(LockConflict):
            table.acquire("f", 9, 1, b"B" * 16)

    def test_disjoint_ranges_granted(self):
        table = LockTable()
        table.acquire("f", 0, 10, b"A" * 16)
        table.acquire("f", 10, 10, b"B" * 16)
        assert len(live_locks(table)) == 2

    def test_different_paths_independent(self):
        table = LockTable()
        table.acquire("f", 0, 10, b"A" * 16)
        table.acquire("g", 0, 10, b"B" * 16)

    def test_zero_length_rejected(self):
        table = LockTable()
        with pytest.raises(BadRequest):
            table.acquire("f", 0, 0, b"A" * 16)

    def test_unlock_idempotent_for_owner(self):
        table = LockTable()
        lock_id = table.acquire("f", 0, 10, b"A" * 16)
        table.release(lock_id, b"A" * 16)
        table.release(lock_id, b"A" * 16)   # second release: no error

    def test_foreign_unlock_rejected(self):
        table = LockTable()
        lock_id = table.acquire("f", 0, 10, b"A" * 16)
        with pytest.raises(NotOwner):
            table.release(lock_id, b"B" * 16)
        with pytest.raises(NotOwner):
            table.release(9999, b"B" * 16)

    def test_session_release_frees_ranges(self):
        table = LockTable()
        table.acquire("f", 0, 10, b"A" * 16)
        table.acquire("f", 20, 5, b"A" * 16)
        table.release_session(b"A" * 16)
        table.acquire("f", 0, 30, b"B" * 16)

    def test_whole_file_lock(self):
        table = LockTable()
        table.acquire("f", 0, WHOLE_FILE, b"A" * 16)
        with pytest.raises(LockConflict):
            table.acquire("f", 2**63, 1, b"B" * 16)

    def test_conflicts_ignores_own_locks(self):
        table = LockTable()
        table.acquire("f", 0, 10, b"A" * 16)
        assert not conflicts(table, "f", 0, 10, b"A" * 16)
        assert conflicts(table, "f", 0, 10, b"B" * 16)
        assert not conflicts(table, "f", 10, 5, b"B" * 16)

    def test_audit_sees_every_transition(self):
        events = []
        table = LockTable(audit=lambda kind, snap: events.append((kind, snap)))
        lock_id = table.acquire("f", 0, 10, b"A" * 16)
        table.release(lock_id, b"A" * 16)
        assert [kind for kind, _ in events] == ["acquire", "release"]

    def test_exclusivity_under_random_schedule(self):
        # Hammer the table from several threads; the audit hook checks the
        # no-overlap invariant at every transition.
        violations = []

        def verify(kind, snapshot):
            by_path = {}
            for lock in snapshot:
                by_path.setdefault(lock.path, []).append(lock)
            for locks in by_path.values():
                locks.sort(key=lambda l: l.offset)
                for first, second in zip(locks, locks[1:]):
                    if first.end > second.offset:
                        violations.append((first, second))

        table = LockTable(audit=verify)

        def worker(seed):
            rng = random.Random(seed)
            session = bytes([seed]) * 16
            held = []
            for _ in range(200):
                if held and rng.random() < 0.5:
                    table.release(held.pop(), session)
                else:
                    offset = rng.randrange(0, 100)
                    length = rng.randrange(1, 20)
                    try:
                        held.append(table.acquire("f", offset, length, session))
                    except LockConflict:
                        pass
            table.release_session(session)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert violations == []


class TestFileOps:
    def test_read_slice(self, tmp_path):
        account = make_account(tmp_path)
        (account.sandbox_root / "f.txt").write_bytes(b"abcdef")
        client, _ = dfs_pair(account)
        with client:
            assert client.read("f.txt", 2, 3) == b"cde"

    def test_read_at_eof_empty(self, tmp_path):
        account = make_account(tmp_path)
        (account.sandbox_root / "f.txt").write_bytes(b"abcdef")
        client, _ = dfs_pair(account)
        with client:
            assert client.read("f.txt", 6, 4) == b""

    def test_read_missing_file(self, tmp_path):
        client, _ = dfs_pair(make_account(tmp_path))
        with client:
            with pytest.raises(NoSuchFile):
                client.read("ghost", 0, 4)

    def test_read_your_write(self, tmp_path):
        client, _ = dfs_pair(make_account(tmp_path))
        with client:
            assert client.write("new.bin", 0, b"hi") == 2
            assert client.read("new.bin", 0, 2) == b"hi"

    def test_sparse_extend(self, tmp_path):
        account = make_account(tmp_path)
        client, _ = dfs_pair(account)
        with client:
            client.write("s.bin", 4, b"x")
            assert client.stat("s.bin").size == 5
            assert client.read("s.bin", 0, 5) == b"\x00\x00\x00\x00x"

    def test_write_creates_parents(self, tmp_path):
        account = make_account(tmp_path)
        client, _ = dfs_pair(account)
        with client:
            client.write("deep/er/f.bin", 0, b"ok")
            assert (account.sandbox_root / "deep" / "er" / "f.bin").exists()

    def test_large_write_round_trips(self, tmp_path):
        # bigger than one buffer: client must chunk both directions
        account = make_account(tmp_path)
        blob = random.Random(7).randbytes(700_000)
        client, _ = dfs_pair(account)
        with client:
            assert client.write("big.bin", 0, blob) == len(blob)
            assert client.read("big.bin", 0, len(blob)) == blob
        assert (account.sandbox_root / "big.bin").read_bytes() == blob

    def test_read_ahead_takes_replies_in_order(self, tmp_path):
        """Reads sent ahead come back one step per read, in order; any
        other request before the last is taken is refused before it is
        sent."""
        account = make_account(tmp_path)
        blob = random.Random(8).randbytes(600_000)
        (account.sandbox_root / "big.bin").write_bytes(blob)
        client, _ = dfs_pair(account)
        step = client.channel.params.buffer_size
        with client:
            sent = client._next_request_id
            client.read_ahead("big.bin", 1000, 2 * step + 5)
            assert client._next_request_id - sent == 3
            sent = client._next_request_id
            for refused in (lambda: client.read("big.bin", 1000 + step, step),
                            lambda: client.read("big.bin", 1000, 2 * step),
                            lambda: client.stat("big.bin"),
                            lambda: client.read_ahead("big.bin", 0, 4)):
                with pytest.raises(BadRequest):
                    refused()
            assert client._next_request_id == sent
            assert client.read("big.bin", 1000, step) == blob[1000:1000 + step]
            client.drain()
            assert client.read("big.bin", 0, 4) == blob[:4]
            client.read_ahead("big.bin", len(blob) - 10, 20)
            assert client.read("big.bin", len(blob) - 10, 20) == blob[-10:]

    def test_read_ahead_keeps_a_window_in_flight(self, tmp_path):
        """A range of many steps has READ_WINDOW reads in flight at most:
        each reply taken sends the next planned read, and a drain sends
        none of the rest."""
        account = make_account(tmp_path)
        blob = random.Random(9).randbytes(3 * dfsm.READ_WINDOW * 4096)
        (account.sandbox_root / "big.bin").write_bytes(blob)
        client, _ = dfs_pair(account, buffer_size=4096)
        steps = len(blob) // 4096
        with client:
            first = client._next_request_id
            client.read_ahead("big.bin", 0, len(blob))
            for taken in range(steps):
                in_flight = client._next_request_id - first - taken
                assert in_flight == min(dfsm.READ_WINDOW, steps - taken)
                assert client.read("big.bin", taken * 4096, 4096) == \
                    blob[taken * 4096:(taken + 1) * 4096]
            client.read_ahead("big.bin", 0, len(blob))
            client.read("big.bin", 0, 4096)
            sent = client._next_request_id
            client.drain()
            assert client._next_request_id == sent
            assert client.read("big.bin", 5, 4) == blob[5:9]

    def test_setlength_truncate_and_extend(self, tmp_path):
        account = make_account(tmp_path)
        (account.sandbox_root / "t.bin").write_bytes(b"abcdef")
        client, _ = dfs_pair(account)
        with client:
            client.set_length("t.bin", 3)
            assert client.read("t.bin", 0, 10) == b"abc"
            client.set_length("t.bin", 8)
            assert client.read("t.bin", 0, 10) == b"abc\x00\x00\x00\x00\x00"

    def test_stat_missing(self, tmp_path):
        client, _ = dfs_pair(make_account(tmp_path))
        with client:
            st = client.stat("nope")
            assert st == FileStat(0, False)

    def test_flush(self, tmp_path):
        client, _ = dfs_pair(make_account(tmp_path))
        with client:
            client.write("f.bin", 0, b"data")
            client.flush("f.bin")
            with pytest.raises(NoSuchFile):
                client.flush("missing.bin")

    def test_seek_end_round_trip(self, tmp_path):
        account = make_account(tmp_path)
        (account.sandbox_root / "f.bin").write_bytes(bytes(1024))
        client, _ = dfs_pair(account)
        with client:
            assert client.seek("f.bin", SeekOrigin.END, -16) == 1008
            assert client.seek("f.bin", SeekOrigin.CURRENT_HINT, 8) == 1016
            assert client.seek("f.bin", SeekOrigin.BEGIN, 0) == 0

    def test_lock_blocks_foreign_write(self, tmp_path):
        account = make_account(tmp_path)
        (account.sandbox_root / "f.bin").write_bytes(bytes(100))
        locks = LockTable()
        alice, _ = dfs_pair(account, locks)
        bob, _ = dfs_pair(account, locks)
        with alice, bob:
            alice.lock("f.bin", 0, 50)
            with pytest.raises(LockConflict):
                bob.write("f.bin", 10, b"x")
            with pytest.raises(LockConflict):
                bob.read("f.bin", 0, 10)
            bob.write("f.bin", 60, b"y")   # outside the locked range

    def test_lock_release_on_close(self, tmp_path):
        account = make_account(tmp_path)
        locks = LockTable()
        alice, thread = dfs_pair(account, locks)
        with alice:
            alice.write("f.bin", 0, bytes(10))
            alice.lock("f.bin", 0, 10)
        thread.join(timeout=5)
        assert live_locks(locks) == ()

    def test_unlock_wrong_session(self, tmp_path):
        account = make_account(tmp_path)
        locks = LockTable()
        alice, _ = dfs_pair(account, locks)
        bob, _ = dfs_pair(account, locks)
        with alice, bob:
            alice.write("f.bin", 0, bytes(4))
            lock_id = alice.lock("f.bin", 0, 4)
            with pytest.raises(NotOwner):
                bob.unlock("f.bin", lock_id)

    def test_request_ids_must_increase(self, tmp_path):
        account = make_account(tmp_path)
        client, _ = dfs_pair(account)
        client.write("f.bin", 0, b"x")
        client._next_request_id = 1    # replay an old id
        with pytest.raises(BadRequest):
            client.stat("f.bin")

    def test_sandboxed_account_cannot_reach_storage_root(self, tmp_path):
        account = make_account(tmp_path, admin=False, FileIOPermission=True)
        secret = account.sandbox_root.parent.parent / "secret.txt"
        secret.write_bytes(b"top")
        client, _ = dfs_pair(account)
        with client:
            with pytest.raises(PermissionDenied):
                client.read("../../secret.txt", 0, 3)

    def test_file_io_flag_denies(self, tmp_path):
        account = make_account(tmp_path, admin=False, FileIOPermission=False)
        client, _ = dfs_pair(account)
        with client:
            with pytest.raises(PermissionDenied):
                client.write("f.bin", 0, b"x")

    def test_file_io_flag_allows_in_sandbox(self, tmp_path):
        account = make_account(tmp_path, admin=False, FileIOPermission=True)
        client, _ = dfs_pair(account)
        with client:
            client.write("mine.bin", 0, b"ok")
            assert (account.sandbox_root / "mine.bin").read_bytes() == b"ok"


class TestConcurrentSchedules:
    def test_disjoint_lock_write_unlock_matches_sequential(self, tmp_path):
        rng = random.Random(0xD15C)
        n_sessions, span = 4, 512
        patterns = [bytes([0xA0 + i]) * span for i in range(n_sessions)]

        # sequential oracle
        oracle = bytearray(n_sessions * span)
        for i, pattern in enumerate(patterns):
            oracle[i * span:(i + 1) * span] = pattern

        account = make_account(tmp_path)
        locks = LockTable()
        clients = [dfs_pair(account, locks)[0] for _ in range(n_sessions)]
        barrier = threading.Barrier(n_sessions)
        errors = []

        def run(i):
            try:
                barrier.wait()
                client = clients[i]
                for attempt in range(100):
                    try:
                        lock_id = client.lock("shared.bin", i * span, span)
                        break
                    except LockConflict:
                        pass
                else:
                    raise RuntimeError("never acquired")
                client.write("shared.bin", i * span, patterns[i])
                client.unlock("shared.bin", lock_id)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(n_sessions)]
        random.shuffle(threads)
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert (account.sandbox_root / "shared.bin").read_bytes() == bytes(oracle)
        for client in clients:
            client.__exit__(None, None, None)

    def test_parallel_disjoint_reads_match_oracle(self, tmp_path):
        account = make_account(tmp_path)
        blob = random.Random(42).randbytes(64 * 1024)
        (account.sandbox_root / "f.bin").write_bytes(blob)
        k = 4
        piece = len(blob) // k
        clients = [dfs_pair(account)[0] for _ in range(k)]
        results = [None] * k

        def run(i):
            results[i] = clients[i].read("f.bin", i * piece, piece)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(k)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        for i in range(k):
            assert results[i] == blob[i * piece:(i + 1) * piece]
        for client in clients:
            client.__exit__(None, None, None)


def test_lock_waits_for_a_write_in_progress(tmp_path, monkeypatch):
    """The conflict check and the write run under one guard: a LOCK over
    the range cannot be granted while the write is still in os.pwrite."""
    account = make_account(tmp_path)
    locks = LockTable()
    fs, _ = dfs_pair(account, locks)
    key = str(resolve_path(account.sandbox_root, "guarded.bin"))
    entered, release = threading.Event(), threading.Event()
    real_pwrite = os.pwrite

    def held_pwrite(fd, data, offset):
        entered.set()
        release.wait(5)
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", held_pwrite)
    writer = threading.Thread(target=fs.write,
                              args=("guarded.bin", 0, b"w" * 100),
                              daemon=True)
    writer.start()
    assert entered.wait(5)
    granted = []
    locker = threading.Thread(
        target=lambda: granted.append(locks.acquire(key, 0, 10, b"L" * 16)),
        daemon=True)
    locker.start()
    locker.join(0.3)
    assert granted == []          # still waiting on the write
    release.set()
    writer.join(5)
    locker.join(5)
    assert not writer.is_alive() and not locker.is_alive()
    assert len(granted) == 1
    fs.close()


def test_setlength_refuses_when_the_file_grew_under_a_lock(tmp_path,
                                                          monkeypatch):
    """SETLENGTH checks the range its stat gave it. If the lock holder
    grows the file between that stat and the guard, the truncate must
    not drop the locked bytes."""
    account = make_account(tmp_path)
    locks = LockTable()
    holder, _ = dfs_pair(account, locks)
    other, _ = dfs_pair(account, locks)
    holder.write("grow.bin", 0, b"x" * 50)
    holder.lock("grow.bin", 100, 100)
    real_stat = dfsm._stat
    grown = []

    def stat_then_grow(path):
        size = real_stat(path)
        if not grown:
            grown.append(True)
            writer = threading.Thread(target=holder.write,
                                      args=("grow.bin", 100, b"L" * 100))
            writer.start()
            writer.join(5)
        return size

    monkeypatch.setattr(dfsm, "_stat", stat_then_grow)
    with pytest.raises(LockConflict):
        other.set_length("grow.bin", 80)
    path = account.sandbox_root / "grow.bin"
    assert path.read_bytes()[100:] == b"L" * 100
    holder.close()
    other.close()


# -- one-file share ---------------------------------------------------------

def test_file_share_answers_only_reads_of_its_one_file(tmp_path):
    """The responder a crypt distributor runs on a worker's session: it
    answers a READ of its one file and denies every other op and name,
    so the shared file stays byte-identical."""
    data = os.urandom(4096)
    shared = tmp_path / "plain.bin"
    shared.write_bytes(data)
    (tmp_path / "other.bin").write_bytes(b"other")
    a, b = socket.socketpair()
    params = SessionParams(Mode.CRYPT, SecurityMode.SECURE)
    cn, sn = b"c" * 16, b"s" * 16
    client = Channel(a, params, ChannelKeys.for_role(PSK, cn, sn, True))
    server = Channel(b, params, ChannelKeys.for_role(PSK, cn, sn, False))
    share = dfsm.FileShare(server, shared, "plain.bin")
    ended = []
    thread = threading.Thread(
        target=lambda: ended.append(share.answer_until(FrameType.CRYPT_TASK)),
        daemon=True)
    thread.start()
    fs = FsClient(client)

    assert fs.read("plain.bin", 100, 200) == data[100:300]
    for attempt in (lambda: fs.write("plain.bin", 0, b"OVERWRITTEN"),
                    lambda: fs.set_length("plain.bin", 1),
                    lambda: fs.lock("plain.bin", 0, 16),
                    lambda: fs.stat("plain.bin"),
                    lambda: fs.read("other.bin", 0, 5),
                    lambda: fs.read("../plain.bin", 0, 5)):
        with pytest.raises(PermissionDenied):
            attempt()
    assert fs.read("plain.bin", 0, len(data)) == data
    fs._next_request_id = 1    # a replayed request id
    with pytest.raises(BadRequest):
        fs.read("plain.bin", 0, 16)

    client.send(FrameType.CRYPT_TASK, b"")
    thread.join(5)
    assert not thread.is_alive()
    assert ended[0].frame_type == FrameType.CRYPT_TASK
    assert shared.read_bytes() == data
    client.close()
    server.close()


def test_a_hello_cannot_name_another_sessions_locks(node, monkeypatch):
    """Two alice sessions whose HELLOs carry the same 16 bytes under tag 6,
    where a client once chose the id that owned its session's locks. The
    node keys each session's locks by an id it makes itself, so the second
    session can neither write through the first one's lock nor release
    it, and the locked bytes stay as the first session wrote them."""
    real = wire.hello_payload

    def claiming(params, nonce):
        fields = wire.decode_fields(real(params, nonce))
        return wire.encode_fields({**fields, 6: b"S" * 16})

    monkeypatch.setattr(wire, "hello_payload", claiming)
    params = SessionParams(Mode.DFSM, SecurityMode.NONSECURE)
    address = ("127.0.0.1", node.port)
    with FsClient(secchan.connect(address, params, "alice",
                                  ALICE_PSK)) as first, \
            FsClient(secchan.connect(address, params, "alice",
                                     ALICE_PSK)) as second:
        first.write("claimed.bin", 0, b"A" * 12)
        lock_id = first.lock("claimed.bin", 0, 10)
        with pytest.raises(LockConflict):
            second.write("claimed.bin", 0, b"C" * 10)
        with pytest.raises(NotOwner):
            second.unlock("claimed.bin", lock_id)
        assert first.read("claimed.bin", 0, 12) == b"A" * 12


def test_a_read_whose_resolve_fails_is_refused_and_the_session_goes_on(
        node, monkeypatch):
    """The sandbox gate maps an OSError from `Path.resolve()` to an
    ERROR: the READ gets a BadRequest status, and the same session still
    answers the next request instead of being dropped."""
    fail_resolve_of(monkeypatch, "raced.bin")
    params = SessionParams(Mode.DFSM, SecurityMode.NONSECURE)
    with FsClient(secchan.connect(("127.0.0.1", node.port), params,
                                  "alice", ALICE_PSK)) as fs:
        fs.write("plain.bin", 0, b"still here")
        with pytest.raises(BadRequest):
            fs.read("raced.bin", 0, 16)
        assert fs.stat("plain.bin").size == 10


@pytest.mark.parametrize("call, cause", [
    (lambda fs: fs.stat("afile/b"), "io error ENOTDIR"),
    (lambda fs: fs.set_length("afile/b", 4), "io error ENOTDIR"),
    (lambda fs: fs.read("afile", 2 ** 63, 4), "malformed request"),
    (lambda fs: fs.set_length("afile", 2 ** 64 - 1), "malformed request"),
], ids=["stat-under-a-file", "setlength-under-a-file", "read-at-2^63",
        "setlength-to-2^64-1"])
def test_a_request_the_os_refuses_is_refused_and_the_session_goes_on(
        node, call, cause):
    """Requests whose failure no handler maps itself: a STAT or SETLENGTH
    of `afile/b`, where `afile` is a regular file, fails in the node's
    stat with ENOTDIR, and an offset or size of 2^63 or more overflows
    the OS's file offset. Each comes back as one ERROR naming the cause,
    raised as BadRequest, and the same session answers the next STAT."""
    params = SessionParams(Mode.DFSM, SecurityMode.NONSECURE)
    with FsClient(secchan.connect(("127.0.0.1", node.port), params,
                                  "alice", ALICE_PSK)) as fs:
        fs.write("afile", 0, b"plain")
        with pytest.raises(BadRequest, match=cause):
            call(fs)
        assert fs.stat("afile").size == 5


def test_a_failed_request_raises_the_nodes_cause(node):
    """A READ of a missing file raises NoSuchFile with the node's own
    message, and a READ of a directory BadRequest with its, not a message
    the client makes up from the op's name."""
    params = SessionParams(Mode.DFSM, SecurityMode.NONSECURE)
    with FsClient(secchan.connect(("127.0.0.1", node.port), params,
                                  "alice", ALICE_PSK)) as fs:
        with pytest.raises(NoSuchFile, match="^no such file$"):
            fs.read("absent.bin", 0, 16)
        fs.write("dir/inner.bin", 0, b"x")
        with pytest.raises(BadRequest, match="^path names a directory$"):
            fs.read("dir", 0, 16)
